import tracemalloc

import numpy as np
import pytest
from numpy.testing import assert_allclose

from chainhash import hashing, rng
from chainhash.hashing import (
    MAX_SIZE,
    HashModel,
    SlotCounts,
    count_slots,
    distinct_counts,
    slot_probabilities,
)
from chainhash.probability import KeySequence, ProbabilityVector, make_uniform, make_zipf, sample


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
