"""Finite probability vectors and seeded i.i.d. key sampling.

A :class:`ProbabilityVector` plays three roles: the key distribution over
the universe, the induced slot distribution, and a user's access pattern
over slots.  Sampling is inverse-CDF, driven by the portable stream in
:mod:`chainhash.rng`: for each uniform double u in [0, 1) the draw is the
smallest index i with u * cdf[-1] < cdf[i] (the last index if there is
none), where ``cdf`` is the float64 ``cumsum`` of the weights.  Sequences
are therefore reproducible bit-for-bit from (vector, seed, count).  The
search for that index goes through a guide table (Chen & Asau 1974), which
finds exactly the index the rule names; see :func:`sample_from_cdf`.  The
sampler takes each draw's guide bucket from the top bits of its stream word
before the last xor-shift, which keeps them; the guide's sign marks the
buckets that hold a cdf step, and only those draws form the double u.  It
also takes a block of seeds and draws one row per seed in a single call;
each row holds exactly the draws its seed gives on its own.  Integer arrays
from outside (keys here, slot counts and hash tables in :mod:`.hashing`) are
checked once, where they enter, by one reader: :func:`_int64_entries`.
"""

from __future__ import annotations

import math
import sys
from typing import Sequence

import numpy as np

from . import rng

SUM_TOL = 1e-12

# Guide-table buckets: a power of two, four per outcome up to 2**16 outcomes
# and one per outcome above, capped at 2**20 so that the int32 table holds
# 4 MiB plus one entry.  Fewer draws then land in a bucket that holds a cdf
# step: 6400 Zipf-64 draws took 86 us with four buckets per outcome and
# 168 us with one (binary search: 263 us).  At least 2**13 buckets (32 KiB):
# with 512, one draw in five of a 100-entry cdf reached the windowed search.
_GUIDE_FINE_UP_TO = 2**16
_GUIDE_MIN_BUCKETS = 2**13
_GUIDE_MAX_BUCKETS = 2**20  # never above 2**31: see sample_from_cdf
# KeySequence._key_histogram, which hashing.count_slots and distinct_counts
# share, is built only when U <= this many times the key count (distinct_counts
# takes np.unique otherwise).  On 10**3..10**5 random keys the bincount was the
# faster up to U between 32 and 64 times the key count, 3.5-7x at 8 times.
_BINCOUNT_UNIVERSE_PER_KEY = 8
# Bucket edges searched per call while building (the fastest of 2**10..2**16
# on a 2**20-entry Zipf cdf).
_GUIDE_BLOCK = 2**12


class ProbabilityVector:
    """Nonnegative weights normalized to sum to one.

    Construction divides by the exact sum once; the stored weights are never
    renormalized afterward.  Instances are immutable.
    """

    __slots__ = ("_owner", "_weights", "_cdf", "_guide")

    def __init__(self, weights: Sequence[float] | np.ndarray):
        arr = np.asarray(weights, dtype=np.float64)
        if arr.ndim != 1 or arr.size == 0:
            raise ValueError("weights must be a nonempty 1-d sequence")
        lo, hi = float(arr.min()), float(arr.max())  # a NaN reaches both
        if not (math.isfinite(lo) and math.isfinite(hi)):
            raise ValueError("weights must be finite")
        if lo < 0.0:
            raise ValueError("weights must be nonnegative")
        if hi > sys.float_info.max / (2 * arr.size):  # only then can the sum overflow
            with np.errstate(over="ignore"):
                total = float(arr.sum())
        else:
            total = float(arr.sum())
        if not math.isfinite(total):
            raise ValueError("weights must have a finite sum")
        if total <= 0.0:
            raise ValueError("weights must have a positive sum")
        # np.bincount copies read-only input, so it reads this owner; nothing writes it.
        self._owner = arr / total
        self._weights = _read_only(self._owner)
        self._cdf: np.ndarray | None = None
        self._guide: np.ndarray | None = None

    @property
    def weights(self) -> np.ndarray:
        return self._weights

    @property
    def cdf(self) -> np.ndarray:
        """Cumulative weights, computed once and cached."""
        if self._cdf is None:
            cdf = np.cumsum(self._weights)
            cdf.flags.writeable = False
            self._cdf = cdf
        return self._cdf

    @property
    def guide(self) -> np.ndarray:
        """Guide table of :attr:`cdf` (see :func:`guide_table`), built on first use."""
        if self._guide is None:
            guide = guide_table(self.cdf)
            guide.flags.writeable = False
            self._guide = guide
        return self._guide

    def __len__(self) -> int:
        return self._weights.size

    def __repr__(self) -> str:
        return f"ProbabilityVector(size={len(self)})"


def _read_only(arr: np.ndarray) -> np.ndarray:
    """A read-only view of ``arr``; ``arr`` itself stays writeable."""
    view = arr.view()
    view.flags.writeable = False
    return view


def _check_integer(value, what: str) -> int:
    """A scalar integer, as an int; bools and fractional or non-numeric values are rejected."""
    if isinstance(value, (float, np.floating)) and float(value).is_integer():
        value = int(value)
    if isinstance(value, (bool, np.bool_)) or not isinstance(value, (int, np.integer)):
        raise ValueError(f"{what} must be an integer, got {value!r}")
    return int(value)


def _int64_entries(arr: np.ndarray, limit: int, what: str, out_of_range: str, negative=None):
    """A new int64 copy of the 1-d array ``arr``, whose entries must be integers in [0, limit).

    A fractional, non-finite, bool or non-numeric entry raises "<what> must be
    integers"; an entry outside [0, limit) raises ``out_of_range``.  Float and
    unsigned entries are range-checked before the cast: 1e300 and uint64 2**63
    have no int64 value.  The copy is checked on its uint64 view, where a
    negative entry reads as 2**63 or more; ``negative``, where given with
    ``limit`` = 2**63, is the message for those, the only ones it can catch.
    """
    kind = arr.dtype.kind
    if kind == "f":
        integral = np.all(np.isfinite(arr) & (arr == np.trunc(arr)))
    else:
        integral = kind in "iu"
    if not integral:
        raise ValueError(f"{what} must be integers")
    if kind in "fu" and not 0 <= arr.min(initial=0).item() <= arr.max(initial=0).item() < limit:
        raise ValueError(out_of_range)
    arr = arr.astype(np.int64)  # always a copy: a later write by the caller skips no check
    if int(arr.view(np.uint64).max(initial=0)) >= limit:
        raise ValueError(negative or out_of_range)
    return arr


class KeySequence:
    """An ordered sequence of key indices drawn from {0, .., universe-1}."""

    __slots__ = ("_owner", "_keys", "_universe", "_histogram")

    def __init__(self, keys: Sequence[int] | np.ndarray, universe: int):
        universe = _check_integer(universe, "universe size")
        if universe < 1:
            raise ValueError("universe size must be positive")
        arr = np.asarray(keys)
        if arr.ndim != 1:
            raise ValueError("keys must be a 1-d sequence")
        out_of_range = f"key index out of range for universe size {universe}"
        arr = _int64_entries(arr, min(universe, 2**63), "keys", out_of_range)
        # np.bincount copies read-only input, so it reads this owner; nothing writes it.
        self._owner = arr
        self._keys = _read_only(arr)
        self._universe = universe
        self._histogram: np.ndarray | None = None

    @property
    def keys(self) -> np.ndarray:
        return self._keys

    @property
    def universe(self) -> int:
        return self._universe

    def _key_histogram(self) -> np.ndarray | None:
        """``bincount(keys, minlength=universe)``, read-only and built on first use;
        None where the universe exceeds ``_BINCOUNT_UNIVERSE_PER_KEY`` entries per key."""
        if self._histogram is None and self._universe <= _BINCOUNT_UNIVERSE_PER_KEY * len(self):
            self._histogram = np.bincount(self._owner, minlength=self._universe)
            self._histogram.flags.writeable = False
        return self._histogram

    def __len__(self) -> int:
        return self._keys.size

    def __repr__(self) -> str:
        return f"KeySequence(m={len(self)}, universe={self._universe})"


def make_uniform(size: int) -> ProbabilityVector:
    """Uniform vector: every weight equals 1/size."""
    if size < 1:
        raise ValueError("size must be at least 1")
    return ProbabilityVector(np.full(size, 1.0 / size))


def make_zipf(size: int, exponent: float) -> ProbabilityVector:
    """Power-law vector with weight_i proportional to (i+1)**-exponent."""
    if size < 1:
        raise ValueError("size must be at least 1")
    if exponent < 0.0:
        raise ValueError("exponent must be nonnegative")
    ranks = np.arange(1, size + 1, dtype=np.float64)
    return ProbabilityVector(np.power(ranks, -exponent, out=ranks))


def make_restricted_uniform(size: int, alpha: float) -> ProbabilityVector:
    """Uniform over the first floor(alpha*size) entries, zero elsewhere.

    Models a user who only ever touches an alpha-fraction of the slots; the
    squared norm is exactly 1/floor(alpha*size).
    """
    if size < 1:
        raise ValueError("size must be at least 1")
    if not 0.0 < alpha <= 1.0:
        raise ValueError("alpha must lie in (0, 1]")
    active = int(math.floor(alpha * size))
    if active < 1:
        raise ValueError("floor(alpha*size) must be at least 1")
    weights = np.zeros(size)
    weights[:active] = 1.0 / active
    return ProbabilityVector(weights)


def make_point_mass(size: int, index: int = 0) -> ProbabilityVector:
    """All mass on a single entry."""
    if size < 1:
        raise ValueError("size must be at least 1")
    if not 0 <= index < size:
        raise ValueError("index out of range")
    weights = np.zeros(size)
    weights[index] = 1.0
    return ProbabilityVector(weights)


def norm_sq(pv: ProbabilityVector) -> float:
    """Sum of squared weights; equals the collision probability when pv is
    the slot distribution.  Always in [1/len(pv), 1]."""
    w = pv.weights
    return float(np.dot(w, w))


def sample(pv: ProbabilityVector, seed: int, count: int) -> KeySequence:
    """Draw ``count`` i.i.d. indices from ``pv``, deterministically from ``seed``.

    Inverse-CDF rule: for each uniform double u in [0, 1), the draw is the
    smallest index i with u * cdf[-1] < cdf[i].
    """
    if count < 0:
        raise ValueError("count must be nonnegative")
    return KeySequence(sample_from_cdf(pv.cdf, seed, count, pv.guide), len(pv))


def sample_from_cdf(
    cdf: np.ndarray, seed, count: int, guide: np.ndarray | None = None
) -> np.ndarray:
    """Low-level inverse-CDF sampler over a precomputed cumulative array.

    For each of the first ``count`` doubles u of the stream for ``seed``,
    draws ``min(searchsorted(cdf, u * cdf[-1], "right"), U - 1)``: the
    smallest i with u * cdf[-1] < cdf[i], else the last i.  Given a 1-d
    sequence of seeds it returns a ``(len(seeds), count)`` block whose row r
    holds exactly the draws of ``seeds[r]`` alone: the stream rows are
    unchanged and the search is elementwise.  Pass ``guide_table(cdf)`` (or
    :attr:`ProbabilityVector.guide`) when sampling the same cdf repeatedly;
    without it each call builds one.  With K = len(guide) - 1 = 2**k
    buckets starting at g_0 <= .. <= g_K, the search finds that same index:

    * u lies in bucket j = floor(u * K), so j/K <= u < (j+1)/K.  For the
      double of a stream word w, u = (w >> 11) * 2**-53, and with k <= 20,
      j is the top k bits of w: floor((w >> 11) * 2**(k-53)) = w >> (64 - k).
    * For the premixed word z, w = z ^ (z >> 31) with z >> 31 < 2**33, so w
      keeps the top 31 bits of z and j = z >> (64 - k) too.  guide[j] is
      ~g_j < 0 where g_j < g_{j+1}, else g_j; only the words with a negative
      entry are finished into w and turned into u.
    * Rounded multiplication by cdf[-1] >= 0 and the clamped search are
      both monotone, so g_j <= draw(u) <= g_{j+1}.
    * Where g_j == g_{j+1} that is the draw.  Elsewhere, with
      t = u * cdf[-1], the draw is the first i in [g_j, g_{j+1}) with
      t < cdf[i], or g_{j+1} if there is none.  One forward step settles
      every draw whose answer is g_j (such as a window that runs into a
      zero-weight tail).  For the others cdf[g_j] <= t, and steps of
      halving powers of two move that index to the last one below g_{j+1}
      with cdf <= t; the draw is the index after it.

    The halving steps keep the cost logarithmic in the window where
    buckets span many cdf entries (U above the 2**20 bucket cap); a plain
    forward scan is linear there, and on 6400 draws from a 2**24-entry
    Zipf cdf it was slower than the binary search it replaces.
    """
    if guide is None:
        guide = guide_table(cdf)
    words = rng.premixed(seed, count)
    return _guided_search(cdf, guide, words.ravel()).reshape(words.shape)


def guide_table(cdf: np.ndarray) -> np.ndarray:
    """Guide table of a nondecreasing cdf: ``K + 1`` int32 bucket starts.

    ``K`` is a power of two fixed by ``U = cdf.size``: 4 * 2**ceil(log2 U)
    up to U = 2**16 and 2**ceil(log2 U) above, but at least 2**13 and at
    most 2**20.  Entry j is ``min(searchsorted(cdf, (j/K) * cdf[-1], "right"), U - 1)``:
    the draw of the uniform j/K, stored as ``~`` that (negative) where it is
    below entry j + 1.  Edges are searched a block at a time, each block
    only in the cdf slice between its first and last answers: the
    temporaries stay small and the searches stay in cache.
    """
    size = cdf.size
    buckets = 1 << (size - 1).bit_length()
    if size <= _GUIDE_FINE_UP_TO:
        buckets *= 4
    buckets = min(max(buckets, _GUIDE_MIN_BUCKETS), _GUIDE_MAX_BUCKETS)
    guide = np.empty(buckets + 1, dtype=np.int32)
    low = 0
    for start in range(0, buckets + 1, _GUIDE_BLOCK):
        stop = min(start + _GUIDE_BLOCK + 1, buckets + 1)  # one edge over: marks the last bucket
        edges = np.arange(start, stop) / buckets * cdf[-1]
        high = low + int(np.searchsorted(cdf[low:], edges[-1], side="right"))
        found = np.searchsorted(cdf[low:high], edges, side="right")
        found += low
        np.minimum(found, size - 1, out=guide[start:stop])
        head = guide[start : stop - 1]
        np.invert(head, out=head, where=head < guide[start + 1 : stop])
        low = high
    return guide


def _guided_search(cdf: np.ndarray, guide: np.ndarray, words: np.ndarray) -> np.ndarray:
    """The draws of a flat array of premixed words, as :func:`sample_from_cdf` sets out.

    Only the words whose bucket holds a cdf step are finished into doubles;
    they are gathered by index, and their results scattered back with ``put``.
    """
    k = (guide.size - 1).bit_length() - 1  # K = 2**k buckets
    bucket = np.right_shift(words, np.uint64(64 - k)).view(np.int64)
    entry = guide.take(bucket, mode="wrap")  # every bucket is below K: skip the bounds check
    wide = np.flatnonzero(entry < 0)
    idx = entry.astype(np.int64)
    if not wide.size:
        return idx
    draw = ~idx.take(wide)  # the bucket's start
    t = rng.unit_doubles(rng.finish(words.take(wide))) * cdf[-1]
    ahead = np.flatnonzero(cdf.take(draw) <= t)
    if ahead.size:
        last, t = draw.take(ahead), t.take(ahead)
        stop = guide.take(bucket.take(wide.take(ahead)) + 1).astype(np.int64)
        np.maximum(stop, ~stop, out=stop)  # the next bucket's start, marked or not
        step = 1 << (int((stop - last).max()) - 1).bit_length()
        probe = np.empty_like(last)
        while step > 1:
            step >>= 1
            np.add(last, step, out=probe)
            ok = cdf.take(probe, mode="clip") <= t
            # Past the window cdf > t, unless t rounded up to cdf[-1]
            # (possible only for a subnormal total).
            ok &= probe < stop
            np.copyto(last, probe, where=ok)
        draw.put(ahead, last + 1)
    idx.put(wide, draw)
    return idx
