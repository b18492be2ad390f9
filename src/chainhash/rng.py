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
The last step ``z ^= z >> 31`` keeps the top 31 bits, so the sampler reads
:func:`premixed` words and applies :func:`finish` only to those it turns
into doubles.

The stream functions also take a 1-d sequence of seeds and return one row
per seed.  A row is exactly the stream of its seed: computing many seeds in
one call changes no draw, it only shares the fixed cost of the call.

Independent streams for trial ``t`` of an experiment use the fixed
splitting rule ``seed = base_seed XOR (t * 0x9E3779B97F4A7C15 mod 2**64)``.
"""

from __future__ import annotations

import numpy as np

GOLDEN = 0x9E3779B97F4A7C15
_MASK = 0xFFFFFFFFFFFFFFFF
_M1 = 0xBF58476D1CE4E5B9
_M2 = 0x94D049BB133111EB
# The same constants as uint64 scalars, made once instead of per call.
_GOLDEN64, _M1_64, _M2_64 = np.uint64(GOLDEN), np.uint64(_M1), np.uint64(_M2)
_S11, _S27, _S30, _S31 = np.uint64(11), np.uint64(27), np.uint64(30), np.uint64(31)
# Streams longer than _CHUNK are computed _CHUNK columns at a time, so the
# finalizer's passes stay in cache: 2**20 outputs of one seed took 6-7 ms in
# 2**14-column chunks against 15-19 ms in one pass, whose passes each move
# 8 MiB (2-CPU Xeon, numpy 2.4).  Trial streams (at most 10**4 outputs per
# row) stay one pass.
_CHUNK = 2**14


def mix64(z: int) -> int:
    """Scalar splitmix64 finalizer (pure Python, mod 2**64)."""
    z &= _MASK
    z = ((z ^ (z >> 30)) * _M1) & _MASK
    z = ((z ^ (z >> 27)) * _M2) & _MASK
    return z ^ (z >> 31)


def stream_uint64(seed, count: int, offset: int = 0) -> np.ndarray:
    """Outputs ``offset .. offset+count-1`` of the stream for ``seed``.

    Vectorized: the i-th output is ``mix64(mix64(seed) + (i+1)*GOLDEN)``
    mod 2**64, so any slice of the stream can be produced without
    generating its prefix.  ``seed`` is one integer (a 1-d result) or a 1-d
    sequence of them: row r of the ``(len(seed), count)`` result is then
    exactly the stream of ``seed[r]``, so drawing many seeds in one call
    changes no output.  It is ``finish(premixed(seed, count, offset))``.
    """
    return finish(premixed(seed, count, offset))


def premixed(seed, count: int, offset: int = 0) -> np.ndarray:
    """The words of :func:`stream_uint64` before its last step, ``z ^= z >> 31``."""
    if count < 0:
        raise ValueError("count must be nonnegative")
    scalar = isinstance(seed, (int, np.integer))
    seeds = [int(s) & _MASK for s in ([seed] if scalar else seed)]
    # Two or more seeds are scrambled by the same mix64 in uint64 arithmetic,
    # which wraps mod 2**64 as mix64 does: 64 seeds took 36 us in Python and
    # 15 us in numpy.  One seed keeps the Python mix64, 0.8 us against 8.5 us
    # in numpy.  Blocks of 2 to about 11 seeds (m above 5400) take up to 8 us
    # more in numpy, at most 2% of their stream (2-CPU Xeon, numpy 2.4).
    if len(seeds) == 1:
        origins = np.array([mix64(seeds[0])], dtype=np.uint64)
    else:
        origins = finish(_premix(np.array(seeds, dtype=np.uint64)))
    origins = origins[:, None]
    if count <= _CHUNK:
        z = _premixed(origins, offset, count)
    else:
        z = np.empty((origins.size, count), dtype=np.uint64)
        for start in range(0, count, _CHUNK):
            stop = min(start + _CHUNK, count)
            z[:, start:stop] = _premixed(origins, offset + start, stop - start)
    return z[0] if scalar else z


def finish(z: np.ndarray) -> np.ndarray:
    """The finalizer's last step, ``z ^= z >> 31``, in place; returns ``z``."""
    for start in range(0, z.shape[-1], _CHUNK):  # a chunk's temporary stays in cache
        part = z[..., start : start + _CHUNK]
        part ^= part >> _S31
    return z


def _premixed(origins: np.ndarray, offset: int, count: int) -> np.ndarray:
    """Premixed words ``offset .. offset+count-1`` for a column of scrambled seeds.

    The lattice ``(i+1)*GOLDEN`` is computed once and the column is added to
    it.  The finalizer runs in place with one scratch array, so one seed
    holds two ``count``-long arrays at most.
    """
    z = np.arange(offset + 1, offset + count + 1, dtype=np.uint64)[None]
    z *= _GOLDEN64
    # One seed adds its origin in place; more broadcast into a new block.
    return _premix(np.add(z, origins, out=z if origins.size == 1 else None))


def _premix(z: np.ndarray) -> np.ndarray:
    """mix64 of each word of the uint64 array ``z`` but its last step, in place; returns ``z``."""
    shifted = np.empty_like(z)
    z ^= np.right_shift(z, _S30, out=shifted)
    z *= _M1_64
    z ^= np.right_shift(z, _S27, out=shifted)
    z *= _M2_64
    return z


def stream_doubles(seed, count: int, offset: int = 0) -> np.ndarray:
    """Uniform doubles in [0, 1), one per stream output (top 53 bits).

    ``seed`` is one integer or a 1-d sequence, as for :func:`stream_uint64`.
    """
    return unit_doubles(stream_uint64(seed, count, offset))


def unit_doubles(words: np.ndarray) -> np.ndarray:
    """The uniform doubles of stream words: ``(word >> 11) * 2**-53``."""
    return (words >> _S11) * 2.0**-53


def trial_seed(base_seed: int, trial: int) -> int:
    """Seed for trial ``trial``: base_seed XOR (trial * GOLDEN mod 2**64)."""
    if trial < 0:
        raise ValueError("trial index must be nonnegative")
    return (base_seed & _MASK) ^ ((trial * GOLDEN) & _MASK)
