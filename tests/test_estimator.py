import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from chainhash.estimator import (
    CollisionEstimate,
    EstimatorUndefinedError,
    collision_pairs,
    empirical_collision_probability,
    relative_error,
)
from chainhash.hashing import HashModel, SlotCounts, count_slots
from chainhash.probability import KeySequence, make_uniform, make_zipf, sample
from oracle import brute_force_collision_pairs


@st.composite
def counts_summing_to(draw, totals):
    """Counts of 1 to 64 slots whose total is drawn from ``totals``."""
    m, n = draw(totals), draw(st.integers(1, 64))
    cuts = sorted(draw(st.lists(st.integers(0, m), min_size=n - 1, max_size=n - 1)))
    return np.diff([0, *cuts, m]).tolist()


class TestCollisionPairs:
    def test_examples(self):
        assert collision_pairs(SlotCounts([0, 0, 0, 3])) == 3
        assert collision_pairs(SlotCounts([1, 0, 1, 1])) == 0
        assert collision_pairs(SlotCounts([2, 2, 1])) == 2

    def test_exact_at_scale(self):
        # 10**4 keys in one slot: C(10**4, 2) pairs, exactly.
        assert collision_pairs(SlotCounts([10**4])) == 10**4 * (10**4 - 1) // 2

    # collision_pairs takes sum k^2 - m, which equals sum k(k-1).
    @settings(max_examples=200, deadline=None)
    @given(counts=st.lists(st.integers(0, 8), min_size=1, max_size=12))
    @example(counts=[0, 0, 0])
    @example(counts=[0])
    @example(counts=[5])
    @example(counts=[2])
    @example(counts=[1, 0, 1])
    def test_equals_brute_force(self, counts):
        n = len(counts)
        x = KeySequence(np.repeat(np.arange(n), counts), n)
        assert collision_pairs(SlotCounts(counts)) == brute_force_collision_pairs(x, HashModel.identity(n))


    # An int64 dot of the counts wraps once sum k^2 >= 2**63, which m > 3037000499 allows.
    @pytest.mark.parametrize("counts", [[3037000499], [3037000500], [3037000499, 1], [2**32, 0],
                                        [4500000000, 7], [2**62, 2**62 - 1]])
    def test_exact_on_both_sides_of_the_int64_dot(self, counts):
        assert collision_pairs(SlotCounts(counts)) == sum(k * (k - 1) // 2 for k in counts)

    @settings(max_examples=200, deadline=None)
    @given(counts=st.integers(1, 8).flatmap(
        lambda n: st.lists(st.integers(0, (2**63 - 1) // n), min_size=n, max_size=n)))
    def test_exact_on_large_counts(self, counts):
        assert collision_pairs(SlotCounts(counts)) == sum(k * (k - 1) // 2 for k in counts)

    # Random counts whose total m lies on either side of the guard m**2 < 2**63:
    # up to 3037000499 the int64 dot sums the squares, above it Python integers.
    @settings(max_examples=200, deadline=None)
    @given(counts=counts_summing_to(st.one_of(
        st.integers(0, 3037000499), st.integers(3037000500, 2**63 - 1))))
    def test_exact_on_both_sides_of_the_guard(self, counts):
        assert collision_pairs(SlotCounts(counts)) == sum(k * (k - 1) // 2 for k in counts)


class TestEmpiricalCollisionProbability:
    def test_large_counts_do_not_wrap(self):
        # Exact: 1 - 2 * 4500000000 * 7 / (m * (m - 1)) with m = 4500000007.
        assert empirical_collision_probability(SlotCounts([4500000000, 7])).empirical_cp == (
            9999999968888889e-16)
        est = empirical_collision_probability(SlotCounts([2**32, 0]))
        assert est.empirical_cp == 1.0 and est.collision_pairs == 2**31 * (2**32 - 1)

    def test_all_in_one_slot(self):
        est = empirical_collision_probability(SlotCounts([3, 0]))
        assert est.empirical_cp == 1.0 and est.collision_pairs == 3

    def test_no_collisions(self):
        est = empirical_collision_probability(SlotCounts([1, 1, 1]))
        assert est.empirical_cp == 0.0

    def test_direct_arithmetic(self):
        est = empirical_collision_probability(SlotCounts([2, 2, 1]))
        assert_allclose(est.empirical_cp, 0.2, rtol=1e-15)

    def test_m_below_two_rejected(self):
        for counts in ([0, 0], [1, 0]):
            with pytest.raises(EstimatorUndefinedError):
                empirical_collision_probability(SlotCounts(counts))
        # And it is a ValueError, as the CLI relies on.
        with pytest.raises(ValueError):
            empirical_collision_probability(SlotCounts([1]))

    def test_estimate_invariant(self):
        est = empirical_collision_probability(SlotCounts([4, 3, 0, 2]))
        assert est.empirical_cp == 2 * est.collision_pairs / (est.m * (est.m - 1))

    def test_range_on_random_counts(self):
        gen = np.random.default_rng(12)
        for _ in range(100):
            counts = gen.integers(0, 20, size=int(gen.integers(1, 30)))
            if counts.sum() < 2:
                continue
            est = empirical_collision_probability(SlotCounts(counts))
            assert 0.0 <= est.empirical_cp <= 1.0

    # The estimator builds its estimate unchecked; it must equal the one the
    # checked constructor builds from the exact figures, field types included,
    # at m = 2 and on both sides of collision_pairs' guard m**2 < 2**63.
    @settings(max_examples=200, deadline=None)
    @given(counts=counts_summing_to(st.one_of(
        st.just(2), st.integers(2, 3037000499), st.integers(3037000500, 2**63 - 1))))
    @example(counts=[2])
    @example(counts=[1, 0, 1])
    @example(counts=[2**63 - 2, 1])
    def test_unchecked_estimate_equals_the_checked_one(self, counts):
        m, pairs = sum(counts), sum(k * (k - 1) // 2 for k in counts)
        checked = CollisionEstimate(2 * pairs / (m * (m - 1)), m, pairs)
        est = empirical_collision_probability(SlotCounts(counts))
        assert type(est) is CollisionEstimate and est == checked and repr(est) == repr(checked)
        assert {k: type(v) for k, v in vars(est).items()} == {
            k: type(v) for k, v in vars(checked).items()}

    def test_validation_in_record_type(self):
        with pytest.raises(ValueError):
            CollisionEstimate(empirical_cp=1.2, m=3, collision_pairs=3)
        with pytest.raises(ValueError, match="^collision_pairs must be nonnegative$"):
            CollisionEstimate(empirical_cp=0.0, m=3, collision_pairs=-1)
        with pytest.raises(EstimatorUndefinedError):
            CollisionEstimate(empirical_cp=0.0, m=1, collision_pairs=0)


class TestBruteForceOracle:
    def test_edges(self):
        h = HashModel.identity(4)
        assert brute_force_collision_pairs(KeySequence([], 4), h) == 0
        # Equal keys in the sequence collide with themselves.
        assert brute_force_collision_pairs(KeySequence([1, 1], 4), h) == 1

    def test_matches_slot_count_route(self):
        gen = np.random.default_rng(2024)
        for _ in range(60):
            u = int(gen.integers(2, 64))
            n = int(gen.integers(1, 32))
            m = int(gen.integers(0, 120))
            h = HashModel.random_table(u, n, int(gen.integers(0, 2**32)))
            x = sample(make_zipf(u, float(gen.uniform(0, 1.5))), int(gen.integers(0, 2**32)), m)
            assert brute_force_collision_pairs(x, h) == collision_pairs(count_slots(x, h))


class TestRelativeError:
    def test_examples(self):
        est = empirical_collision_probability(SlotCounts([2, 2, 1]))  # cp = 0.2
        assert relative_error(est, 0.2) == 0.0
        zero = empirical_collision_probability(SlotCounts([1, 1]))
        assert relative_error(zero, 0.5) == 1.0
        point3 = CollisionEstimate(empirical_cp=0.3, m=5, collision_pairs=3)
        assert_allclose(relative_error(point3, 0.25), 0.2, rtol=1e-12)

    def test_rejects_nonpositive_norm(self):
        est = empirical_collision_probability(SlotCounts([2]))
        for bad in (0.0, -0.1):
            with pytest.raises(ValueError):
                relative_error(est, bad)


def test_permutation_invariance():
    gen = np.random.default_rng(33)
    h = HashModel.random_table(32, 8, 77)
    x = sample(make_uniform(32), 8, 200)
    shuffled = KeySequence(gen.permutation(x.keys), 32)
    assert (
        empirical_collision_probability(count_slots(x, h)).empirical_cp
        == empirical_collision_probability(count_slots(shuffled, h)).empirical_cp
    )
