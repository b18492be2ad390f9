"""Hash-function models and per-slot occupancy counts.

A :class:`HashModel` is a fixed map from a finite key universe {0..U-1}
onto slots {0..n-1}.  Two modes cover everything the analysis needs:
``identity`` (U = n, so experiments can parametrize directly by the slot
distribution) and ``fixed-table`` (an explicit U-entry lookup table for
genuine many-to-one hashing).  Where U <= 8m, :func:`distinct_counts` and the
identity hash's :func:`count_slots` share a sequence's one key histogram.  Their
counts, and the rows of :func:`block_slot_counts`, are read-only and skip the
check that :class:`SlotCounts` makes of counts from outside the package, as the
keys that the package draws itself skip the check of :class:`KeySequence`, and
:func:`slot_probabilities` normalises p unchecked: under the identity hash a
copy of q's weights, so p's bits may differ from q's.
"""

from __future__ import annotations

import itertools

import numpy as np

from . import rng
from .probability import KeySequence, ProbabilityVector, _check_integer, _int64_entries, _read_only

# Guardrail against accidental huge allocations; both U and n must stay under it.
MAX_SIZE = 2**24


def _check_size(value: int, what: str) -> int:
    value = _check_integer(value, what)
    if value < 1:
        raise ValueError(f"{what} must be positive")
    if value > MAX_SIZE:
        raise ValueError(f"{what} exceeds the maximum supported size 2**24")
    return value


class HashModel:
    """Immutable map from keys {0..universe-1} to slots {0..slots-1}."""

    __slots__ = ("_owner", "_table", "_universe", "_slots")

    def __init__(self, table: np.ndarray | None, universe: int, slots: int):
        # Use the classmethod constructors below rather than calling this directly.
        # They pass a table of their own: np.bincount reads it (see ProbabilityVector).
        self._owner = table
        self._table = None if table is None else _read_only(table)
        self._universe = universe
        self._slots = slots

    @classmethod
    def identity(cls, n: int) -> "HashModel":
        """Identity hash on a universe of exactly n keys (h(x) = x)."""
        n = _check_size(n, "slot count")
        return cls(None, n, n)

    @classmethod
    def from_table(cls, table, n: int) -> "HashModel":
        """Explicit lookup table: table[key] is the slot of ``key``."""
        n = _check_size(n, "slot count")
        raw = np.asarray(table)
        if raw.ndim != 1 or raw.size == 0:
            raise ValueError("table must be a nonempty 1-d sequence")
        _check_size(raw.size, "universe size")
        table = _int64_entries(raw, n, "table entries", "table entries must lie in [0, n)",
                               given=table)
        return cls(table, raw.size, n)

    @classmethod
    def random_table(cls, universe: int, n: int, seed: int) -> "HashModel":
        """Pseudo-random table: the slot of key u is stream output u mod n.

        Reproducible by construction — the table is
        ``stream_uint64(seed, universe) % n`` (modulo bias is below 2**-39
        for the permitted n <= 2**24), taken ``rng._CHUNK`` words at a time
        into the int64 table's uint64 view: no full-length temporary is made.
        A remainder is taken as w - (w // n) * n: numpy divides by a scalar in
        SIMD, but ``np.remainder`` takes one hardware divide per uint64 word.
        """
        universe = _check_size(universe, "universe size")
        n = _check_size(n, "slot count")
        table = np.empty(universe, dtype=np.int64)
        words = table.view(np.uint64)
        for start in range(0, universe, rng._CHUNK):
            stop = min(start + rng._CHUNK, universe)
            chunk = rng.stream_uint64(seed, stop - start, start)
            quotient = np.floor_divide(chunk, np.uint64(n))
            quotient *= np.uint64(n)
            np.subtract(chunk, quotient, out=words[start:stop])
        return cls(table, universe, n)

    @classmethod
    def from_file(cls, path, n: int) -> "HashModel":
        """Load a fixed table: one decimal slot index per line, line number = key.

        Only the first ``MAX_SIZE + 1`` lines are kept, and the rest of the
        file is only scanned for a non-blank line, so an oversized file is
        rejected before any of it is parsed.
        """
        try:
            with open(path, "r", encoding="ascii") as fh:
                lines = list(itertools.islice(fh, MAX_SIZE + 1))
                beyond = any(line.strip() for line in fh)
        except UnicodeDecodeError as exc:
            raise ValueError(f"table file {path!r} has a non-ASCII byte") from exc
        while lines and not lines[-1].strip():
            lines.pop()
        if beyond or len(lines) > MAX_SIZE:
            raise ValueError(f"table file {path!r} exceeds the maximum supported size 2**24")
        if not lines:
            raise ValueError(f"table file {path!r} is empty")
        non_integer = f"table file {path!r} has a non-integer line"
        if any("_" in line for line in lines):  # int() reads "1_0" as 10
            raise ValueError(non_integer)
        try:
            entries = [int(line.strip()) for line in lines]
        except ValueError as exc:
            raise ValueError(non_integer) from exc
        return cls.from_table(np.asarray(entries), n)  # an ndarray is not searched for bools

    @property
    def universe(self) -> int:
        return self._universe

    @property
    def slots(self) -> int:
        return self._slots

    @property
    def table(self) -> np.ndarray | None:
        return self._table

    def slots_of(self, keys: np.ndarray) -> np.ndarray:
        """Vectorized slot lookup for an int64 key array (bounds unchecked)."""
        if self._table is None:
            return keys
        return self._table.take(keys)

    def __repr__(self) -> str:
        mode = "identity" if self._table is None else "fixed-table"
        return f"HashModel(mode={mode!r}, universe={self._universe}, slots={self._slots})"


class SlotCounts:
    """Per-slot key counts k_i with their total m = sum(k)."""

    __slots__ = ("_counts", "_m")

    def __init__(self, counts):
        arr = np.asarray(counts)
        if arr.ndim != 1 or arr.size == 0:
            raise ValueError("counts must be a nonempty 1-d sequence")
        arr = _int64_entries(arr, 2**63, "counts", "counts must lie in [0, 2**63)",
                             "counts must be nonnegative", given=counts)
        if int(arr.max()) <= (2**63 - 1) // arr.size:  # no total can wrap
            m = int(arr.sum())
        else:
            m = int(arr.sum(dtype=object))  # exact Python integers
            if m >= 2**63:
                raise ValueError("count totals must lie in [0, 2**63)")
        arr.flags.writeable = False
        self._counts, self._m = arr, m

    @classmethod
    def _trusted(cls, counts: np.ndarray, m: int) -> "SlotCounts":
        """Wrap a read-only int64 count array the package computed, whose total ``m``
        (a Python int) the caller knows: no check, no sum and no copy, unlike the
        constructor, which checks counts from outside and keeps a read-only copy."""
        k = cls.__new__(cls)
        k._counts, k._m = counts, m
        return k

    @property
    def counts(self) -> np.ndarray:
        return self._counts

    @property
    def m(self) -> int:
        return self._m

    def __len__(self) -> int:
        return self._counts.size

    def __repr__(self) -> str:
        return f"SlotCounts(n={len(self)}, m={self._m})"


def _check_keys(x: KeySequence, h: HashModel) -> None:
    if x.universe > h.universe:
        # The sequence's declared universe may be smaller than the model's
        # (every key still maps fine) but never larger.
        if len(x) and int(x.keys.max()) >= h.universe:
            raise ValueError("key sequence contains keys outside the hash universe")


def slot_probabilities(q: ProbabilityVector, h: HashModel) -> ProbabilityVector:
    """Push the key distribution through the hash: p_i = sum of q over h^-1(i).

    The merged weights (a copy of q's under the identity hash) are divided by their
    sum unchecked; that sum need not be exactly 1.0, so p's bits may differ from q's."""
    if len(q) != h.universe:
        raise ValueError("distribution size must equal the hash universe size")
    merged = (q.weights.copy() if h.table is None  # new either way: _trusted divides in place
              else np.bincount(h._owner, weights=q._owner, minlength=h.slots))
    return ProbabilityVector._trusted(merged)


def count_slots(x: KeySequence, h: HashModel) -> SlotCounts:
    """k_i = number of keys of x (with multiplicity) hashing to slot i."""
    _check_keys(x, h)
    counts = x._key_histogram() if h.table is None and x.universe == h.universe else None
    if counts is None:
        counts = np.bincount(h.slots_of(x._owner), minlength=h.slots)
        counts.flags.writeable = False
    return SlotCounts._trusted(counts, len(x))


def block_slot_counts(keys: np.ndarray, h: HashModel) -> list[SlotCounts]:
    """:func:`count_slots` of each row of a (B, m) key block, from one bincount over
    slot + r*n; the rows are views of one read-only array (keys unchecked: the
    sampler's lie in the universe)."""
    slots = h.slots_of(keys) + np.arange(0, len(keys) * h.slots, h.slots)[:, None]
    counts = np.bincount(slots.ravel(), minlength=len(keys) * h.slots).reshape(-1, h.slots)
    counts.flags.writeable = False  # and so are its row views
    return [SlotCounts._trusted(row, keys.shape[1]) for row in counts]


def distinct_counts(x: KeySequence, h: HashModel) -> SlotCounts:
    """Like :func:`count_slots` but each distinct key value counts once.

    This is the actual chain length in storage: duplicate insertions of a
    key land on the same stored entry.
    """
    _check_keys(x, h)
    hist = x._key_histogram()
    uniq = np.unique(x.keys) if hist is None else hist.nonzero()[0]
    counts = np.bincount(h.slots_of(uniq), minlength=h.slots)
    counts.flags.writeable = False
    return SlotCounts._trusted(counts, len(uniq))
