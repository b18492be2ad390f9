"""Deterministic, splittable 64-bit random streams.

Everything stochastic in this package flows through the splitmix64
finalizer so that two runs (or two independent implementations) given the
same seed produce identical draws.  The algorithm, for a 64-bit ``seed``:

    output_i = mix64(mix64(seed) + (i + 1) * 0x9E3779B97F4A7C15)  (mod 2**64)

    mix64(z):  z ^= z >> 30;  z *= 0xBF58476D1CE4E5B9
               z ^= z >> 27;  z *= 0x94D049BB133111EB
               z ^= z >> 31                                  (mod 2**64)

The inner ``mix64(seed)`` pass is load-bearing: per-trial seeds are derived
by XORing multiples of the same golden-ratio constant the stream steps by,
so feeding raw seeds into the lattice would make different trials walk
overlapping windows of one shared input sequence (heavily correlated
trials).  Scrambling the seed first places every stream at an unrelated
origin.

Uniform doubles in [0, 1) take the top 53 bits: (output >> 11) * 2**-53.

Independent streams for trial ``t`` of an experiment use the fixed
splitting rule ``seed = base_seed XOR (t * 0x9E3779B97F4A7C15 mod 2**64)``.
"""

from __future__ import annotations

import numpy as np

GOLDEN = 0x9E3779B97F4A7C15
_MASK = 0xFFFFFFFFFFFFFFFF
_M1 = 0xBF58476D1CE4E5B9
_M2 = 0x94D049BB133111EB


def mix64(z: int) -> int:
    """Scalar splitmix64 finalizer (pure Python, mod 2**64)."""
    z &= _MASK
    z = ((z ^ (z >> 30)) * _M1) & _MASK
    z = ((z ^ (z >> 27)) * _M2) & _MASK
    return z ^ (z >> 31)


def stream_uint64(seed: int, count: int, offset: int = 0) -> np.ndarray:
    """Outputs ``offset .. offset+count-1`` of the stream for ``seed``.

    Vectorized: the i-th output is ``mix64(mix64(seed) + (i+1)*GOLDEN)``
    mod 2**64, so any slice of the stream can be produced without
    generating its prefix.  The arithmetic runs in place on the output and
    one scratch array, so a call holds two ``count``-long arrays at most.
    """
    if count < 0:
        raise ValueError("count must be nonnegative")
    z = np.arange(offset + 1, offset + count + 1, dtype=np.uint64)
    z *= np.uint64(GOLDEN)
    z += np.uint64(mix64(seed))
    shifted = np.empty_like(z)
    z ^= np.right_shift(z, np.uint64(30), out=shifted)
    z *= np.uint64(_M1)
    z ^= np.right_shift(z, np.uint64(27), out=shifted)
    z *= np.uint64(_M2)
    z ^= np.right_shift(z, np.uint64(31), out=shifted)
    return z


def stream_doubles(seed: int, count: int, offset: int = 0) -> np.ndarray:
    """Uniform doubles in [0, 1), one per stream output (top 53 bits)."""
    bits = stream_uint64(seed, count, offset)
    bits >>= np.uint64(11)
    u = bits.astype(np.float64)
    u *= 2.0**-53
    return u


def trial_seed(base_seed: int, trial: int) -> int:
    """Seed for trial ``trial``: base_seed XOR (trial * GOLDEN mod 2**64)."""
    if trial < 0:
        raise ValueError("trial index must be nonnegative")
    return (base_seed & _MASK) ^ ((trial * GOLDEN) & _MASK)
