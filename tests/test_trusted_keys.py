"""Differential gate for key sequences that wrap the sampler's rows unchecked.

AST trials wrap each row of a sampled block with ``KeySequence._trusted``,
which neither checks nor copies it.  Every count and search time taken from
such a sequence must equal, bit for bit, the one taken from the checked copy
that ``KeySequence(row, U)`` makes, on both routes of the key histogram:
U <= 8m (one bincount of the keys) and U > 8m (``np.unique``).
"""

import tempfile
from pathlib import Path

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from chainhash.hashing import HashModel, count_slots, distinct_counts
from chainhash.probability import (
    _BINCOUNT_UNIVERSE_PER_KEY,
    KeySequence,
    ProbabilityVector,
    make_uniform,
    make_zipf,
    sample_from_cdf,
)
from chainhash.search_time import average_search_time, search_time_upper


def hash_model(mode, universe, n, seed, table_dir):
    if mode == "identity":
        return HashModel.identity(universe)
    if mode == "random-table":
        return HashModel.random_table(universe, n, seed)
    table = HashModel.random_table(universe, n, seed).table
    path = Path(table_dir) / "table.txt"
    path.write_text("".join(f"{slot}\n" for slot in table.tolist()), encoding="ascii")
    return HashModel.from_file(path, n)


@settings(max_examples=60, deadline=None)
@given(
    mode=st.sampled_from(["identity", "random-table", "table-file"]),
    histogram=st.booleans(),
    m=st.integers(1, 300),
    n=st.integers(1, 64),
    spread=st.integers(1, 1000),
    zipf=st.booleans(),
    seeds=st.lists(st.integers(0, 2**64 - 1), min_size=1, max_size=4),
    access=st.lists(st.floats(0.0, 1.0), min_size=1, max_size=64),
)
def test_trusted_rows_count_and_search_like_checked_copies(
    mode, histogram, m, n, spread, zipf, seeds, access
):
    per_key = _BINCOUNT_UNIVERSE_PER_KEY * m
    if histogram:
        universe = 1 + (spread - 1) % per_key  # U <= 8m
    else:
        universe = per_key + spread  # U > 8m
    with tempfile.TemporaryDirectory() as table_dir:
        h = hash_model(mode, universe, n, seeds[0], table_dir)
    q = make_zipf(universe, 1.0) if zipf else make_uniform(universe)
    weights = (access * h.slots)[: h.slots]
    v = ProbabilityVector(weights) if sum(weights) > 0 else make_uniform(h.slots)
    block = sample_from_cdf(q.cdf, seeds, m, q.guide)
    for row in block:
        trusted, checked = KeySequence._trusted(row, universe), KeySequence(row, universe)
        assert not trusted.keys.flags.writeable
        assert np.shares_memory(trusted.keys, block)
        assert not np.shares_memory(checked.keys, block)
        assert (trusted._key_histogram() is not None) == (universe <= per_key)
        for count in (count_slots, distinct_counts):
            a, b = count(trusted, h), count(checked, h)
            assert a.m == b.m and np.array_equal(a.counts, b.counts)
        upper = search_time_upper(v, count_slots(trusted, h))
        assert upper == search_time_upper(v, count_slots(checked, h))
        assert average_search_time(v, trusted, h) == average_search_time(v, checked, h)
    assert block.flags.writeable  # the wrap made read-only views, not a read-only block
