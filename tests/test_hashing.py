import itertools
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from chainhash import experiments, hashing, rng
from chainhash.hashing import (
    MAX_SIZE,
    HashModel,
    SlotCounts,
    block_slot_counts,
    count_slots,
    distinct_counts,
    slot_probabilities,
)
from chainhash.probability import (
    KeySequence,
    ProbabilityVector,
    make_uniform,
    make_zipf,
    sample,
    sample_from_cdf,
)


class TestHashModel:
    def test_identity_basics(self):
        h = HashModel.identity(8)
        assert repr(h) == "HashModel(mode='identity', universe=8, slots=8)"
        assert h.table is None and h.universe == 8 and h.slots == 8
        assert np.array_equal(h.slots_of(np.array([0, 7, 7])), [0, 7, 7])

    def test_from_table(self):
        h = HashModel.from_table([0, 0, 1, 1], 2)
        assert repr(h) == "HashModel(mode='fixed-table', universe=4, slots=2)"
        assert h.universe == 4 and h.slots == 2
        assert np.array_equal(h.slots_of(np.array([2, 0])), [1, 0])

    def test_table_entries_validated(self):
        with pytest.raises(ValueError):
            HashModel.from_table([0, 2], 2)
        with pytest.raises(ValueError):
            HashModel.from_table([0, -1], 2)
        with pytest.raises(ValueError):
            HashModel.from_table([], 2)

    @pytest.mark.parametrize(
        "table",
        [[0, 1.5], [0.0, 0.99], np.array([0.0, np.nan]), np.array([False, True]), ["0", "1"]],
    )
    def test_non_integer_table_entries_rejected(self, table):
        # asarray(dtype=int64) would truncate 1.5 to 1 and 0.99 to 0.
        with pytest.raises(ValueError, match="integers"):
            HashModel.from_table(table, 2)

    def test_integral_float_table_entries_accepted(self):
        h = HashModel.from_table(np.array([0.0, 1.0, 1.0]), 2)
        assert h.table.dtype == np.int64 and h.table.tolist() == [0, 1, 1]

    def test_size_guardrails(self):
        with pytest.raises(ValueError):
            HashModel.identity(0)
        with pytest.raises(ValueError):
            HashModel.identity(MAX_SIZE + 1)
        with pytest.raises(ValueError):
            HashModel.random_table(MAX_SIZE + 1, 4, 0)

    @pytest.mark.parametrize("size", [4.5, 0.5, True, np.bool_(True), np.float64(2.25), "4"])
    def test_non_integer_sizes_rejected(self, size):
        # int() would truncate 4.5 to 4 slots and read True as 1.
        with pytest.raises(ValueError, match="slot count must be an integer"):
            HashModel.identity(size)
        with pytest.raises(ValueError, match="universe size must be an integer"):
            HashModel.random_table(size, 4, 0)
        with pytest.raises(ValueError, match="slot count must be an integer"):
            HashModel.from_table([0, 1], size)

    @pytest.mark.parametrize("size", [4, 4.0, np.int64(4), np.uint16(4)])
    def test_integer_sizes_accepted(self, size):
        assert HashModel.identity(size).slots == 4
        assert HashModel.random_table(size, size, 0).universe == 4

    def test_random_table_follows_documented_rule(self):
        h = HashModel.random_table(100, 7, seed=42)
        expected = (rng.stream_uint64(42, 100) % np.uint64(7)).astype(np.int64)
        assert np.array_equal(h.table, expected)
        again = HashModel.random_table(100, 7, seed=42)
        assert np.array_equal(h.table, again.table)

    @pytest.mark.parametrize(
        "universe", [1, rng._CHUNK - 1, rng._CHUNK, rng._CHUNK + 1, 3 * rng._CHUNK + 5]
    )
    @pytest.mark.parametrize("n", [1, 7, 64, 1000, MAX_SIZE - 3, MAX_SIZE])
    def test_chunked_random_table_equals_the_whole_stream_rule(self, universe, n):
        # The table is built a stream chunk at a time; it must equal the rule
        # applied to the whole stream at once, on and either side of a chunk edge.
        h = HashModel.random_table(universe, n, seed=2**64 - 3)
        expected = (rng.stream_uint64(2**64 - 3, universe) % np.uint64(n)).astype(np.int64)
        assert h.table.dtype == np.int64 and not h.table.flags.writeable
        assert np.array_equal(h.table, expected)

    @pytest.mark.parametrize(
        "build",
        [lambda t: HashModel.random_table(1000, 7, 3), lambda t: HashModel.from_table(t, 4),
         lambda t: HashModel.from_table(t.tolist(), 4)],
    )
    def test_table_is_read_only_and_owned(self, build):
        caller = np.array([0, 3, 1], dtype=np.int64)
        h = build(caller)
        with pytest.raises(ValueError, match="read-only"):
            h.table[0] = 1
        assert caller.flags.writeable and not np.shares_memory(h.table, caller)


class TestTableFile:
    def test_round_trip(self, tmp_path):
        path = tmp_path / "table.txt"
        path.write_text("0\n1\n1\n0\n")
        h = HashModel.from_file(path, 2)
        assert np.array_equal(h.table, [0, 1, 1, 0])
        assert h.universe == 4

    def test_trailing_blank_line_ok(self, tmp_path):
        path = tmp_path / "table.txt"
        path.write_text("1\n0\n\n")
        assert HashModel.from_file(path, 2).universe == 2

    def test_rejects_out_of_range_and_junk(self, tmp_path):
        bad = tmp_path / "bad.txt"
        bad.write_text("0\n3\n")
        with pytest.raises(ValueError):
            HashModel.from_file(bad, 2)
        junk = tmp_path / "junk.txt"
        junk.write_text("0\nx\n")
        with pytest.raises(ValueError):
            HashModel.from_file(junk, 2)
        empty = tmp_path / "empty.txt"
        empty.write_text("")
        with pytest.raises(ValueError):
            HashModel.from_file(empty, 2)

    @pytest.mark.parametrize("line", ["1_0", "_1", "1_", "0_0_1"])
    def test_digit_group_underscore_is_a_non_integer_line(self, tmp_path, line):
        # int() reads "1_0" as 10.
        path = str(tmp_path / "table.txt")
        with open(path, "w") as fh:
            fh.write(f"0\n{line}\n")
        message = f"^table file {re.escape(repr(path))} has a non-integer line$"
        with pytest.raises(ValueError, match=message):
            HashModel.from_file(path, 16)

    def test_sign_and_spaces_around_a_slot_are_read(self, tmp_path):
        path = tmp_path / "table.txt"
        path.write_text("+3\n 2 \n1\n")
        assert HashModel.from_file(path, 4).table.tolist() == [3, 2, 1]

    @pytest.mark.parametrize("data", [b"\xef\xbb\xbf0\n1\n", b"0\n1\xe9\n", b"0\n1\n\n\xff\n"])
    def test_non_ascii_byte_names_the_file(self, tmp_path, data):
        path = str(tmp_path / "table.txt")
        with open(path, "wb") as fh:
            fh.write(data)
        message = f"^table file {re.escape(repr(path))} has a non-ASCII byte$"
        with pytest.raises(ValueError, match=message):
            HashModel.from_file(path, 2)

    def test_oversized_file_rejected_before_parsing(self, tmp_path, monkeypatch):
        # With the cap at 4, the fifth entry already exceeds it, so the line
        # after it must never be parsed.
        monkeypatch.setattr(hashing, "MAX_SIZE", 4)
        path = tmp_path / "table.txt"
        path.write_text("0\n1\n0\n1\n0\nx\n")
        with pytest.raises(ValueError, match="exceeds"):
            HashModel.from_file(path, 2)

    @pytest.mark.parametrize("tail", ["", "\n", "\n\n\n"])
    def test_file_at_the_cap_accepted(self, tmp_path, monkeypatch, tail):
        monkeypatch.setattr(hashing, "MAX_SIZE", 4)
        path = tmp_path / "table.txt"
        path.write_text("0\n1\n0\n1" + tail)
        assert HashModel.from_file(path, 2).universe == 4

    def test_entry_after_blank_lines_past_the_cap_rejected(self, tmp_path, monkeypatch):
        monkeypatch.setattr(hashing, "MAX_SIZE", 4)
        path = tmp_path / "table.txt"
        path.write_text("0\n1\n0\n1\n\n\n1\n")
        with pytest.raises(ValueError):
            HashModel.from_file(path, 2)


class TestSlotProbabilities:
    def test_identity_passes_through(self):
        q = make_uniform(8)
        p = slot_probabilities(q, HashModel.identity(8))
        assert_allclose(p.weights, q.weights)

    def test_total_concentration(self):
        h = HashModel.from_table([0, 0, 0, 0], 2)
        p = slot_probabilities(make_uniform(4), h)
        assert_allclose(p.weights, [1.0, 0.0])

    def test_merge_sums(self):
        h = HashModel.from_table([0, 0, 1, 1], 2)
        q = ProbabilityVector([0.4, 0.1, 0.3, 0.2])
        assert_allclose(slot_probabilities(q, h).weights, [0.5, 0.5], rtol=1e-12)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            slot_probabilities(make_uniform(5), HashModel.identity(8))

    def test_reads_the_table_and_weights_without_copies(self):
        # np.bincount copies a read-only argument: 16 MiB for these two.
        h = HashModel.random_table(2**20, 64, 5)
        q = make_zipf(2**20, 1.0)
        tracemalloc.start()
        try:
            p = slot_probabilities(q, h)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2**20
        assert np.array_equal(p.weights, ProbabilityVector(np.bincount(
            h.table, weights=q.weights, minlength=64)).weights)

    def test_sums_to_one_on_random_tables(self):
        gen = np.random.default_rng(3)
        for _ in range(25):
            u, n = int(gen.integers(2, 100)), int(gen.integers(1, 20))
            h = HashModel.random_table(u, n, int(gen.integers(0, 2**32)))
            q = ProbabilityVector(gen.random(u))
            assert abs(slot_probabilities(q, h).weights.sum() - 1.0) <= 1e-12


class TestSlotCounts:
    def test_validation(self):
        k = SlotCounts([2, 0, 1])
        assert k.m == 3 and len(k) == 3
        with pytest.raises(ValueError):
            SlotCounts([1, -1])
        with pytest.raises(ValueError):
            SlotCounts([])

    @pytest.mark.parametrize(
        "counts", [[1.5, 2.5], [0.0, 0.99], np.array([1.0, np.inf]), np.array([True, False])]
    )
    def test_non_integer_counts_rejected(self, counts):
        # asarray(dtype=int64) would truncate 1.5 to 1 and 2.5 to 2.
        with pytest.raises(ValueError, match="counts must be integers"):
            SlotCounts(counts)

    def test_integral_float_counts_accepted(self):
        k = SlotCounts(np.array([2.0, 0.0, 1.0]))
        assert k.counts.dtype == np.int64 and k.counts.tolist() == [2, 0, 1] and k.m == 3

    @pytest.mark.parametrize("bad", [1e300, -1e300, 2.0**63, -(2.0**63), -1.0])
    def test_float_counts_outside_int64_rejected(self, bad):
        # Checked before the int64 cast: 1e300 has no int64 value and would warn there.
        message = "counts must be nonnegative" if bad < 0 else r"counts must lie in \[0, 2\*\*63\)"
        with pytest.raises(ValueError, match=message):
            SlotCounts(np.array([bad, 2.0]))

    def test_largest_float_below_2_63_accepted(self):
        top = np.nextafter(2.0**63, 0.0)
        k = SlotCounts(np.array([top, 0.0]))
        assert k.counts.tolist() == [2**63 - 1024, 0] and k.m == 2**63 - 1024

    @pytest.mark.parametrize(
        "counts",
        [np.array([2**62, 2**62]), np.array([2**62] * 4), np.array([2.0**62] * 2), np.array([2**63 - 1, 1])],
        ids=["wraps-negative", "wraps-to-zero", "float", "one-past"],
    )
    def test_totals_from_2_63_rejected(self, counts):
        # An int64 sum would wrap: to -2**63, to 0, to -2**63 and to -2**63.
        with pytest.raises(ValueError, match=r"count totals must lie in \[0, 2\*\*63\)"):
            SlotCounts(counts)

    def test_unsigned_counts_from_2_63_rejected(self):
        # The int64 cast would wrap 2**63 to -2**63 and report it as negative.
        with pytest.raises(ValueError, match=r"counts must lie in \[0, 2\*\*63\)"):
            SlotCounts(np.array([2**63], dtype=np.uint64))

    def test_largest_total_accepted(self):
        for counts in (np.array([2**62, 2**62 - 1]), np.array([2**63 - 1, 0], dtype=np.uint64)):
            assert SlotCounts(counts).m == 2**63 - 1

    def test_empty_sequence_gives_zero_counts(self):
        k = count_slots(KeySequence([], 4), HashModel.identity(4))
        assert k.m == 0 and np.all(k.counts == 0)

    def test_multiplicity_counted(self):
        k = count_slots(KeySequence([3, 3, 3], 4), HashModel.identity(4))
        assert k.counts.tolist() == [0, 0, 0, 3]

    def test_conservation_on_random_draws(self):
        h = HashModel.random_table(256, 16, 9)
        x = sample(make_uniform(256), 21, 1000)
        assert count_slots(x, h).m == 1000

    def test_distinct_counts_examples(self):
        h = HashModel.identity(4)
        assert distinct_counts(KeySequence([3, 3, 3], 4), h).counts.tolist() == [0, 0, 0, 1]
        x = KeySequence([0, 1, 2], 4)
        assert np.array_equal(distinct_counts(x, h).counts, count_slots(x, h).counts)

    def test_distinct_below_multiplicity(self):
        h = HashModel.random_table(8, 4, 5)
        x = sample(make_uniform(8), 2, 100)
        d, k = distinct_counts(x, h), count_slots(x, h)
        assert np.all(d.counts <= k.counts)

    def test_concat_composition(self):
        h = HashModel.random_table(64, 8, 11)
        a = sample(make_uniform(64), 31, 40)
        b = sample(make_uniform(64), 32, 60)
        both = KeySequence(np.concatenate([a.keys, b.keys]), 64)
        assert np.array_equal(
            count_slots(both, h).counts,
            count_slots(a, h).counts + count_slots(b, h).counts,
        )

    @pytest.mark.parametrize("hash_mode", ["identity", "table"])
    @pytest.mark.parametrize("universe", [1, 7, 100, 8 * 500, 8 * 500 + 1, 10**5])
    def test_distinct_counts_match_unique_route(self, hash_mode, universe):
        # 500 keys: universes up to 8 * 500 take the bincount route, larger ones np.unique.
        if hash_mode == "identity":
            h = HashModel.identity(universe)
        else:
            h = HashModel.random_table(universe, 13, 4)
        keys = sample(make_zipf(universe, 1.0), 8, 500).keys
        # The sequence may declare a smaller universe than the hash's.
        for declared in (universe, int(keys.max()) + 1, min(universe, 5)):
            x = KeySequence(keys % declared, declared)
            expected = np.bincount(h.slots_of(np.unique(x.keys)), minlength=h.slots)
            assert np.array_equal(distinct_counts(x, h).counts, expected)

    def test_out_of_range_keys_rejected(self):
        x = KeySequence([20], 32)
        with pytest.raises(ValueError):
            count_slots(x, HashModel.identity(16))
        with pytest.raises(ValueError):
            distinct_counts(x, HashModel.identity(16))


def _table_file_hash(tmp_path):
    path = tmp_path / "table.txt"
    path.write_text("".join(f"{(7 * u) % 5}\n" for u in range(23)))
    return HashModel.from_file(path, 5)


# Hashes the block count must agree with count_slots on; 16 slots do not divide
# the random table's universe of 100.
BLOCK_HASHES = {
    "identity": lambda tmp_path: HashModel.identity(16),
    "random-table": lambda tmp_path: HashModel.random_table(100, 16, 3),
    "table-file": _table_file_hash,
}


class TestSharedKeyHistogram:
    """Differential gate: count_slots and distinct_counts read one key histogram
    per sequence where U <= 8m, and agree with the plain bincount and np.unique routes."""

    @staticmethod
    def spy_bincount(monkeypatch):
        calls = []
        bincount = np.bincount

        def spy(arr, *args, **kwargs):
            calls.append((arr, kwargs.get("minlength")))
            return bincount(arr, *args, **kwargs)

        monkeypatch.setattr(np, "bincount", spy)
        return calls

    @pytest.mark.parametrize("name", sorted(BLOCK_HASHES))
    @pytest.mark.parametrize("offset", [-1, 0, 1])  # x.universe against h.universe
    @pytest.mark.parametrize("side", ["within", "above"])  # U against 8m
    def test_routes_agree(self, tmp_path, monkeypatch, name, offset, side):
        h = BLOCK_HASHES[name](tmp_path)
        universe = h.universe + offset
        m = -(-universe // 8) if side == "within" else (universe - 1) // 8
        keys = np.random.default_rng(universe + m).integers(0, min(universe, h.universe), m)
        x = KeySequence(keys, universe)
        calls = self.spy_bincount(monkeypatch)
        for _ in range(2):
            k, d = count_slots(x, h), distinct_counts(x, h)
            assert np.array_equal(k.counts, np.bincount(h.slots_of(keys), minlength=h.slots))
            assert np.array_equal(d.counts, np.bincount(h.slots_of(np.unique(keys)), minlength=h.slots))
        builds = sum(arr is x._owner and minlength == universe for arr, minlength in calls)
        if side == "within":
            assert universe <= 8 * m and builds == 1
            hist = x._key_histogram()
            assert not hist.flags.writeable and np.array_equal(hist, np.bincount(keys, minlength=universe))
            with pytest.raises(ValueError, match="read-only"):
                hist[0] = 1
            assert not k.counts.flags.writeable and not d.counts.flags.writeable
        else:
            assert universe > 8 * m and x._key_histogram() is None and x._histogram is None

    def test_out_of_range_keys_rejected_after_the_histogram(self):
        x = KeySequence([20, 1, 2, 3], 32)
        assert x._key_histogram() is not None
        for count in (count_slots, distinct_counts):
            with pytest.raises(ValueError, match="outside the hash universe"):
                count(x, HashModel.identity(16))


class TestBlockSlotCounts:
    """Differential gate: each row of block_slot_counts is count_slots of that row."""

    @pytest.mark.parametrize("name", sorted(BLOCK_HASHES))
    @pytest.mark.parametrize("rows", [1, 6])
    @pytest.mark.parametrize("m", [2, 37])
    def test_rows_equal_count_slots(self, tmp_path, name, rows, m):
        h = BLOCK_HASHES[name](tmp_path)
        q = make_zipf(h.universe, 1.0)
        keys = sample_from_cdf(q.cdf, [rng.trial_seed(5, t) for t in range(rows)], m)
        counts = block_slot_counts(keys, h)
        assert len(counts) == rows
        for row, k in zip(keys, counts):
            assert k.counts.dtype == np.int64 and k.m == m
            assert np.array_equal(k.counts, count_slots(KeySequence(row, h.universe), h).counts)

    @pytest.mark.parametrize("name", sorted(BLOCK_HASHES))
    def test_partial_last_block_rows_equal_count_slots(self, tmp_path, monkeypatch, name):
        # Blocks of 3 trials over 7 trials: the trial loop's last block has one row.
        h = BLOCK_HASHES[name](tmp_path)
        q, m, trials, base_seed = make_zipf(h.universe, 1.0), 40, 7, 2**63 + 9
        monkeypatch.setattr(experiments, "_BLOCK_DRAWS", 3 * m)
        blocks = []

        def measure(keys):
            blocks.append(block_slot_counts(keys, h))
            return [(0.0, 0.0, False)] * len(keys)

        experiments._run_trials(q.cdf, q.guide, m, trials, base_seed, measure)
        assert [len(b) for b in blocks] == [3, 3, 1]
        for t, k in enumerate(itertools.chain(*blocks)):
            keys = sample_from_cdf(q.cdf, rng.trial_seed(base_seed, t), m)
            assert np.array_equal(k.counts, count_slots(KeySequence(keys, h.universe), h).counts)


@st.composite
def key_blocks(draw):
    """A hash (identity or an arbitrary table), a (T, m) array of keys in its
    universe and a block row count, which may leave a ragged last block."""
    n = draw(st.integers(1, 12))
    if draw(st.booleans()):
        h = HashModel.identity(n)
    else:
        h = HashModel.from_table(draw(st.lists(st.integers(0, n - 1), min_size=1, max_size=40)), n)
    trials, m = draw(st.integers(1, 7)), draw(st.integers(0, 30))
    keys = draw(st.lists(st.integers(0, h.universe - 1), min_size=trials * m, max_size=trials * m))
    return h, np.array(keys, dtype=np.int64).reshape(trials, m), draw(st.integers(1, trials))


def assert_equals_checked(k, counts):
    """``k`` equals ``SlotCounts(counts)`` in counts bytes and in m, an int, and is read-only."""
    expected = SlotCounts(counts)
    assert k.counts.dtype == np.int64 and k.counts.tobytes() == expected.counts.tobytes()
    assert type(k.m) is int and k.m == expected.m
    assert not k.counts.flags.writeable


@settings(max_examples=200, deadline=None)
@given(case=key_blocks())
def test_property_block_rows_equal_count_slots(case):
    # Differential gate: the package's unchecked counts (block rows, count_slots,
    # distinct_counts) equal the checked SlotCounts of a plain bincount.
    h, keys, rows = case
    blocks = [block_slot_counts(keys[i : i + rows], h) for i in range(0, len(keys), rows)]
    assert sum(map(len, blocks)) == len(keys)
    for row, k in zip(keys, itertools.chain(*blocks)):
        x = KeySequence(row, h.universe)
        assert_equals_checked(k, np.bincount(h.slots_of(row), minlength=h.slots))
        assert_equals_checked(count_slots(x, h), np.bincount(h.slots_of(row), minlength=h.slots))
        distinct = np.bincount(h.slots_of(np.unique(row)), minlength=h.slots)
        assert_equals_checked(distinct_counts(x, h), distinct)


# Each array constructor, with the message it gives each kind of bad input (None: accepted).
KEY_RANGE = "key index out of range for universe size 10"
ARRAY_CONSTRUCTORS = {
    "keys": (lambda values: KeySequence(values, 10), dict(
        integral="keys must be integers", range=KEY_RANGE, negative=KEY_RANGE,
        shape="keys must be a 1-d sequence", empty=None)),
    "counts": (SlotCounts, dict(
        integral="counts must be integers", range="counts must lie in [0, 2**63)",
        negative="counts must be nonnegative", shape="counts must be a nonempty 1-d sequence",
        empty="counts must be a nonempty 1-d sequence")),
    "table": (lambda values: HashModel.from_table(values, 10), dict(
        integral="table entries must be integers", range="table entries must lie in [0, n)",
        negative="table entries must lie in [0, n)", shape="table must be a nonempty 1-d sequence",
        empty="table must be a nonempty 1-d sequence")),
}


@pytest.mark.parametrize("what", sorted(ARRAY_CONSTRUCTORS))
@pytest.mark.parametrize(
    "values, fault",
    [
        ([1.5, 2.0], "integral"), ([np.nan, 2.0], "integral"), ([1e300, 2.0], "range"),
        ([-1e300, 2.0], "negative"), ([-1.0, 2.0], "negative"),
        (np.array([2**63, 2], dtype=np.uint64), "range"), ([True, False], "integral"),
        ([2, True], "integral"), ([[1, 2]], "shape"), ([], "empty"),
        (np.array([2, -1]), "negative"),
    ],
    ids=["1.5", "nan", "1e300", "-1e300", "-1.0", "uint64-2**63", "bool", "bool-among-ints",
         "2-d", "empty", "-1"],
)
def test_array_constructors_name_each_bad_input(what, values, fault):
    make, messages = ARRAY_CONSTRUCTORS[what]
    if messages[fault] is None:
        assert len(make(values).keys) == 0
        return
    with pytest.raises(ValueError, match=f"^{re.escape(messages[fault])}$"):
        make(values)


@pytest.mark.parametrize("what", sorted(ARRAY_CONSTRUCTORS))
@pytest.mark.parametrize(
    "values, fault",
    [([2**64, 1], "range"), ([-(2**64), 1], "negative"), ([1, 2**70], "range")],
    ids=["2**64", "-2**64", "2**70"],
)
def test_integers_beyond_64_bits_get_the_range_message(what, values, fault):
    # np.asarray keeps them as Python ints in an object array: integers, out of range.
    make, messages = ARRAY_CONSTRUCTORS[what]
    assert np.asarray(values).dtype == object
    with pytest.raises(ValueError, match=f"^{re.escape(messages[fault])}$"):
        make(values)


class _NoIteration(np.ndarray):
    def __iter__(self):
        raise AssertionError("an array's entries were iterated in Python")


@pytest.mark.parametrize("what", sorted(ARRAY_CONSTRUCTORS))
def test_an_int64_array_is_not_searched_for_bools(what):
    # Only a sequence can hide a bool among ints; the trial loop passes int64 rows.
    make, _ = ARRAY_CONSTRUCTORS[what]
    entries = getattr(make(np.array([3, 1]).view(_NoIteration)), what)
    assert entries.tolist() == [3, 1]


@pytest.mark.parametrize("what", sorted(ARRAY_CONSTRUCTORS))
def test_object_arrays_of_small_ints_are_read_as_int64(what):
    make, _ = ARRAY_CONSTRUCTORS[what]
    entries = getattr(make(np.array([3, 1], dtype=object)), what)
    assert entries.dtype == np.int64 and entries.tolist() == [3, 1]
