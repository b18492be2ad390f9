import math
import tracemalloc

import numpy as np
import pytest
from numpy.testing import assert_allclose

from chainhash.hashing import HashModel, SlotCounts, count_slots, distinct_counts
from chainhash.probability import (
    KeySequence,
    ProbabilityVector,
    make_point_mass,
    make_restricted_uniform,
    make_uniform,
    make_zipf,
    norm_sq,
    sample,
)


class TestConstructors:
    def test_uniform(self):
        assert_allclose(make_uniform(4).weights, 0.25, rtol=1e-15)
        assert_allclose(make_uniform(1).weights, [1.0])
        assert_allclose(norm_sq(make_uniform(10)), 0.1, rtol=1e-12)

    def test_uniform_rejects_size_zero(self):
        with pytest.raises(ValueError):
            make_uniform(0)

    def test_zipf_exponent_zero_is_uniform(self):
        assert_allclose(make_zipf(3, 0.0).weights, 1.0 / 3.0, rtol=1e-15)

    def test_zipf_two_elements(self):
        assert_allclose(make_zipf(2, 1.0).weights, [2.0 / 3.0, 1.0 / 3.0], rtol=1e-15)

    def test_zipf_normalized_and_decreasing(self):
        pv = make_zipf(100, 1.2)
        assert abs(pv.weights.sum() - 1.0) <= 1e-12
        assert np.all(np.diff(pv.weights) < 0)
        # Direct normalization as the oracle for the first weight.
        total = sum((i + 1) ** -1.2 for i in range(100))
        assert_allclose(pv.weights[0], 1.0 / total, rtol=1e-12)

    def test_zipf_rejects_bad_arguments(self):
        with pytest.raises(ValueError):
            make_zipf(0, 1.0)
        with pytest.raises(ValueError):
            make_zipf(4, -0.5)
        # Its weights skip the constructor's checks, so make_zipf names a NaN itself.
        with pytest.raises(ValueError, match="exponent must be nonnegative"):
            make_zipf(4, math.nan)

    def test_restricted_alpha_one_is_uniform(self):
        assert_allclose(make_restricted_uniform(10, 1.0).weights, 0.1, rtol=1e-15)

    def test_restricted_single_active_slot(self):
        pv = make_restricted_uniform(10, 0.1)
        assert pv.weights[0] == 1.0
        assert np.all(pv.weights[1:] == 0.0)

    def test_restricted_norm(self):
        # ||v|| = 1/sqrt(alpha * n) for alpha = 0.1, n = 100.
        pv = make_restricted_uniform(100, 0.1)
        assert_allclose(math.sqrt(norm_sq(pv)), 1.0 / math.sqrt(10.0), rtol=1e-12)
        assert np.all(pv.weights[10:] == 0.0)

    def test_restricted_rejects_empty_support(self):
        with pytest.raises(ValueError):
            make_restricted_uniform(10, 0.05)
        with pytest.raises(ValueError):
            make_restricted_uniform(10, 0.0)
        with pytest.raises(ValueError):
            make_restricted_uniform(10, 1.5)
        with pytest.raises(ValueError, match="^size must be at least 1$"):
            make_restricted_uniform(0, 0.5)

    def test_point_mass(self):
        pv = make_point_mass(4, 2)
        assert_allclose(pv.weights, [0.0, 0.0, 1.0, 0.0])
        with pytest.raises(ValueError):
            make_point_mass(4, 4)
        with pytest.raises(ValueError, match="^size must be at least 1$"):
            make_point_mass(0)

    def test_normalization_divides_once_by_exact_sum(self):
        pv = ProbabilityVector([2.0, 2.0, 6.0])
        assert_allclose(pv.weights, [0.2, 0.2, 0.6], rtol=1e-15)

    def test_invalid_weights_rejected(self):
        for bad in ([], [1.0, -0.1], [0.0, 0.0], [1.0, float("nan")], [1.0, float("inf")]):
            with pytest.raises(ValueError):
                ProbabilityVector(bad)

    @pytest.mark.parametrize(
        "weights, message",
        [([math.nan, -1.0], "must be finite"), ([-math.inf, 1.0], "must be finite"),
         ([1.0, math.inf], "must be finite"), ([1.0, math.nan], "must be finite"),
         ([-1.0, 2.0], "must be nonnegative"), ([0.0, 0.0, 0.0], "must have a positive sum")],
    )
    def test_first_failed_check_names_the_error(self, weights, message):
        with pytest.raises(ValueError, match=f"^weights {message}$"):
            ProbabilityVector(weights)

    @pytest.mark.parametrize("weights", [[1e308, 1e308], [1.7e308] * 3, [1e308] * 100])
    def test_overflowing_sum_rejected(self, weights):
        # The sum overflows to inf, which would store all-zero weights.
        with pytest.raises(ValueError, match="weights must have a finite sum"):
            ProbabilityVector(weights)

    def test_largest_finite_sum_kept(self):
        pv = ProbabilityVector([8e307, 8e307])
        assert pv.weights.tolist() == [0.5, 0.5] and norm_sq(pv) == 0.5

    def test_sum_invariant_on_random_vectors(self):
        gen = np.random.default_rng(42)
        for _ in range(50):
            pv = ProbabilityVector(gen.random(gen.integers(1, 40)))
            assert abs(pv.weights.sum() - 1.0) <= 1e-12
            assert np.all(pv.weights >= 0.0)

    def test_weights_are_immutable(self):
        pv = make_uniform(4)
        with pytest.raises(ValueError):
            pv.weights[0] = 0.5

    @pytest.mark.parametrize(
        "build",
        [lambda: ProbabilityVector([1.0, 3.0]), lambda: make_uniform(3), lambda: make_zipf(5, 1.0),
         lambda: make_restricted_uniform(10, 0.5), lambda: make_point_mass(4, 1)],
    )
    def test_every_builder_gives_read_only_weights(self, build):
        with pytest.raises(ValueError, match="read-only"):
            build().weights[0] = 0.5

    def test_zipf_peak_holds_one_full_size_array(self):
        # The ranks are raised to the power and normalised in place: one 8 MiB
        # array is the ranks and then the weights, no second.
        tracemalloc.start()
        try:
            make_zipf(2**20, 1.0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 8.5 * 2**20


class TestNormSq:
    def test_examples(self):
        assert_allclose(norm_sq(make_uniform(4)), 0.25, rtol=1e-15)
        assert norm_sq(make_point_mass(1)) == 1.0
        assert_allclose(norm_sq(ProbabilityVector([0.6, 0.2, 0.2])), 0.44, rtol=1e-15)

    def test_lower_bound_with_equality_iff_uniform(self):
        gen = np.random.default_rng(7)
        for _ in range(50):
            size = int(gen.integers(2, 30))
            pv = ProbabilityVector(gen.random(size) + 1e-3)
            assert norm_sq(pv) >= 1.0 / size - 1e-12
        assert abs(norm_sq(make_uniform(17)) - 1.0 / 17.0) <= 1e-12
        skewed = ProbabilityVector([2.0] + [1.0] * 16)
        assert norm_sq(skewed) > 1.0 / 17.0 + 1e-6


class TestKeySequence:
    def test_bounds_checked(self):
        with pytest.raises(ValueError):
            KeySequence([4], 4)
        with pytest.raises(ValueError):
            KeySequence([-1], 4)
        x = KeySequence([0, 3, 3], 4)
        assert len(x) == 3 and x.universe == 4

    def test_empty_allowed(self):
        assert len(KeySequence([], 4)) == 0

    # The range is checked in one reduction over the keys as uint64, where a
    # negative int64 wraps above 2**63; float keys are checked before their cast.
    @pytest.mark.parametrize(
        "keys",
        [[-1], [-(2**63)], [10], [2**63 - 1], np.array([2**64 - 1], dtype=np.uint64), [-1.0], [1e300],
         [0, 3, -2], [9, 10]],
    )
    def test_range_boundaries_rejected(self, keys):
        with pytest.raises(ValueError, match="^key index out of range for universe size 10$"):
            KeySequence(keys, 10)

    @pytest.mark.parametrize("keys", [[0], [9], [9, 0, 9], np.array([9], dtype=np.uint64), [9.0], []])
    def test_range_boundaries_accepted(self, keys):
        assert KeySequence(keys, 10).keys.tolist() == [int(key) for key in keys]

    def test_negative_keys_rejected_under_a_universe_beyond_int64(self):
        with pytest.raises(ValueError, match="out of range"):
            KeySequence([-1], 2**70)
        assert KeySequence([2**63 - 1], 2**70).keys.tolist() == [2**63 - 1]

    @pytest.mark.parametrize(
        "keys", [[1.7, 2.9], [0.0, 0.99], np.array([0.0, np.nan]), np.array([False, True])]
    )
    def test_non_integer_keys_rejected(self, keys):
        # asarray(dtype=int64) would truncate 1.7 to 1 and 2.9 to 2.
        with pytest.raises(ValueError, match="keys must be integers"):
            KeySequence(keys, 4)

    @pytest.mark.parametrize("universe", [4.7, 4.5, True, np.bool_(True), "4", None])
    def test_non_integer_universe_rejected(self, universe):
        with pytest.raises(ValueError, match="universe size must be an integer"):
            KeySequence([0], universe)

    @pytest.mark.parametrize("universe", [0, -1, 0.0])
    def test_universe_below_one_rejected(self, universe):
        with pytest.raises(ValueError, match="^universe size must be positive$"):
            KeySequence([], universe)

    @pytest.mark.parametrize("universe", [4, 4.0, np.int32(4), np.uint64(4)])
    def test_integer_universe_accepted(self, universe):
        x = KeySequence([1, 2, 3], universe)
        assert x.universe == 4 and type(x.universe) is int

    def test_integral_float_keys_accepted(self):
        x = KeySequence(np.array([1.0, 3.0]), 4)
        assert x.keys.dtype == np.int64 and x.keys.tolist() == [1, 3]

    def test_caller_array_stays_writeable(self):
        a = np.array([1, 2, 3])
        x = KeySequence(a, 8)
        a[0] = 0
        assert a.flags.writeable and not x.keys.flags.writeable
        assert not np.shares_memory(a, x.keys)  # a copy: the caller's write does not reach it
        assert x.keys.tolist() == [1, 2, 3]
        with pytest.raises(ValueError, match="read-only"):
            x.keys[0] = 1

    @pytest.mark.parametrize("keys", [np.array([1, 2, 3]), np.array([1.0, 2.0, 3.0])])
    def test_caller_write_cannot_skip_the_range_check(self, keys):
        x = KeySequence(keys, 4)
        keys[0] = 100
        h = HashModel.identity(4)
        assert count_slots(x, h).counts.tolist() == [0, 1, 1, 1]
        assert distinct_counts(x, h).counts.tolist() == [0, 1, 1, 1]


class TestSample:
    def test_point_mass_is_deterministic(self):
        x = sample(make_point_mass(4, 0), seed=99, count=5)
        assert x.keys.tolist() == [0, 0, 0, 0, 0]
        assert x.universe == 4

    def test_count_zero(self):
        assert len(sample(make_uniform(2), 42, 0)) == 0

    def test_uniform_frequencies(self):
        # 3-sigma binomial interval: sigma ~ 0.00043 at 1e6 draws.
        x = sample(make_uniform(4), seed=7, count=10**6)
        freq = np.bincount(x.keys, minlength=4) / 10**6
        assert np.all(np.abs(freq - 0.25) < 0.002)

    def test_reproducible_and_seed_sensitive(self):
        pv = make_zipf(16, 1.0)
        a = sample(pv, 5, 1000)
        b = sample(pv, 5, 1000)
        c = sample(pv, 6, 1000)
        assert np.array_equal(a.keys, b.keys)
        assert not np.array_equal(a.keys, c.keys)

    def test_zero_weight_slots_never_drawn(self):
        pv = ProbabilityVector([0.5, 0.0, 0.5])
        x = sample(pv, 11, 10**4)
        assert not np.any(x.keys == 1)

    def test_skewed_frequencies_track_weights(self):
        pv = make_zipf(8, 1.0)
        x = sample(pv, 3, 2 * 10**5)
        freq = np.bincount(x.keys, minlength=8) / len(x)
        assert np.all(np.abs(freq - pv.weights) < 0.004)

    def test_negative_count_rejected(self):
        with pytest.raises(ValueError):
            sample(make_uniform(2), 1, -1)

    def test_a_block_of_seeds_rejected(self):
        with pytest.raises(ValueError, match="seed must be a single integer"):
            sample(make_uniform(2), [1, 2], 3)

    def test_draws_are_held_once(self):
        # The sequence wraps the sampler's own 8 MiB of draws: tracemalloc read
        # 9.8 MiB (draws and one sampler pass), and 16.0 MiB with a checked copy.
        pv = make_uniform(64)
        pv.guide  # built outside the measured call
        tracemalloc.start()
        try:
            x = sample(pv, 1, 2**20)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(x) == 2**20
        assert peak < 10.5 * 2**20, peak / 2**20


def test_chi_square_uniform_16():
    # Goodness of fit must not reject at the 1e-6 level on >= 99 of 100 seeds.
    from scipy import stats

    rejects = 0
    for seed in range(100):
        x = sample(make_uniform(16), seed, 10**5)
        counts = np.bincount(x.keys, minlength=16)
        if stats.chisquare(counts).pvalue < 1e-6:
            rejects += 1
    assert rejects <= 1


@pytest.mark.parametrize("value, text", [
    (ProbabilityVector([1.0, 3.0]), "ProbabilityVector(size=2)"),
    (KeySequence([0, 2, 2], 5), "KeySequence(m=3, universe=5)"),
    (SlotCounts([1, 0, 4]), "SlotCounts(n=3, m=5)"),
])
def test_repr(value, text):
    assert repr(value) == text
