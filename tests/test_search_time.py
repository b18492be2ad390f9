import math

import numpy as np
import pytest
from numpy.testing import assert_allclose

from chainhash.hashing import HashModel, count_slots
from chainhash.probability import (
    KeySequence,
    make_point_mass,
    make_restricted_uniform,
    make_uniform,
    norm_sq,
    sample,
)
from chainhash.search_time import (
    IntervalBound,
    SearchTimeBound,
    average_search_time,
    combined_query_bound,
    restricted_access_bound,
    search_time_bound_eps,
    search_time_bound_margin,
    search_time_upper,
)


class TestExactAndUpper:
    def test_empty_table(self):
        h = HashModel.identity(4)
        assert average_search_time(make_uniform(4), KeySequence([], 4), h) == 0.0

    def test_point_mass_access_reads_one_chain(self):
        h = HashModel.identity(4)
        x = KeySequence([3, 3, 3, 1], 4)
        assert average_search_time(make_point_mass(4, 3), x, h) == 1.0
        assert search_time_upper(make_point_mass(4, 3), count_slots(x, h)) == 3.0

    def test_duplicates_drive_the_gap(self):
        # Three copies of one key: one stored entry, three insertions.
        h = HashModel.identity(4)
        x = KeySequence([3, 3, 3], 4)
        v = make_uniform(4)
        assert_allclose(average_search_time(v, x, h), 0.25)
        assert_allclose(search_time_upper(v, count_slots(x, h)), 0.75)

    def test_uniform_access_gives_the_load_factor(self):
        h = HashModel.random_table(256, 8, 3)
        x = sample(make_uniform(256), 17, 80)
        assert_allclose(search_time_upper(make_uniform(8), count_slots(x, h)), 10.0, rtol=1e-12)

    def test_exact_never_exceeds_upper(self):
        gen = np.random.default_rng(23)
        for _ in range(50):
            u, n = int(gen.integers(4, 128)), int(gen.integers(1, 32))
            h = HashModel.random_table(u, n, int(gen.integers(0, 2**32)))
            x = sample(make_uniform(u), int(gen.integers(0, 2**32)), int(gen.integers(0, 200)))
            v = make_uniform(n)
            exact = average_search_time(v, x, h)
            upper = search_time_upper(v, count_slots(x, h))
            assert exact <= upper + 1e-12
            if len(np.unique(x.keys)) == len(x):
                assert_allclose(exact, upper, rtol=1e-12)

    def test_dimension_mismatch(self):
        h = HashModel.identity(4)
        with pytest.raises(ValueError):
            average_search_time(make_uniform(5), KeySequence([0], 4), h)
        with pytest.raises(ValueError):
            search_time_upper(make_uniform(5), count_slots(KeySequence([0], 4), h))


class TestMarginForm:
    def test_frozen_value_at_zero_margin(self):
        b = search_time_bound_margin(16.0, 100, 0.1, 0.1, 0.0)
        assert_allclose(b.value, 22.166010488516725, rtol=1e-12)
        assert_allclose(b.confidence, -1.0 / 9.0, rtol=1e-12)

    def test_uniform_patterns_scale_with_load(self):
        # v = p = uniform: n * ||v|| * ||p|| = 1, so the value is L*sqrt(...)+1.
        n, L, s = 100, 64.0, 2.0
        b = search_time_bound_margin(L, n, 1 / math.sqrt(n), 1 / math.sqrt(n), s)
        radicand = 1.0 + (3.0 + 6.0 * s) / math.sqrt(L) + 5.0 * s * s / L
        assert_allclose(b.value, L * math.sqrt(radicand) + 1.0, rtol=1e-12)

    def test_radicand_instance_below_linear_relaxation(self):
        # At L=100, s=2: sqrt(1 + 1.5 + 0.2) = 1.6432 < 1 + 4s/sqrt(L) = 1.8.
        radicand = 1.0 + (3.0 + 6.0 * 2.0) / 10.0 + 5.0 * 4.0 / 100.0
        assert_allclose(math.sqrt(radicand), 1.6431676725154983, rtol=1e-12)
        assert math.sqrt(radicand) < 1.8

    def test_preconditions(self):
        good = dict(L=16.0, n=100, v_norm=0.1, p_norm=0.1, s=1.0)
        for bad in (
            dict(good, L=9.0),
            dict(good, n=24),
            dict(good, v_norm=0.0),
            dict(good, v_norm=1.2),
            dict(good, p_norm=0.05),  # below 1/sqrt(100)
            dict(good, p_norm=1.5),
            dict(good, s=-0.1),
        ):
            with pytest.raises(ValueError):
                search_time_bound_margin(**bad)
        # Exact norm boundaries are allowed.
        search_time_bound_margin(16.0, 100, 1.0, 1.0 / math.sqrt(100), 0.0)


class TestEpsForm:
    def test_vacuous_limit(self):
        b = search_time_bound_eps(16.0, 100, 0.1, 0.1, 1e-12)
        assert_allclose(b.value, 16.0 * 100 * 0.1 * 0.1 + 1.0, rtol=1e-9)
        assert_allclose(b.confidence, -1.0 / 9.0, rtol=1e-6)

    def test_uniform_patterns(self):
        n, L, eps = 100, 64.0, 0.1
        b = search_time_bound_eps(L, n, 1 / math.sqrt(n), 1 / math.sqrt(n), eps)
        assert_allclose(b.value, L * 1.8 + 1.0, rtol=1e-12)

    def test_rejects_nonpositive_eps(self):
        with pytest.raises(ValueError):
            search_time_bound_eps(16.0, 100, 0.1, 0.1, 0.0)

    def test_margin_form_dominated_for_honest_margins(self):
        # With eps = s/(2*sqrt(L)) the two forms share a confidence, and for
        # s >= 1.5 the eps-form's linear factor dominates the radicand.
        gen = np.random.default_rng(31)
        for _ in range(100):
            L = float(gen.uniform(9.5, 10**5))
            s = float(gen.uniform(1.5, 80.0))
            eps = s / (2.0 * math.sqrt(L))
            margin = search_time_bound_margin(L, 100, 0.2, 0.3, s)
            eps_form = search_time_bound_eps(L, 100, 0.2, 0.3, eps)
            assert margin.value <= eps_form.value + 1e-9
            assert_allclose(margin.confidence, eps_form.confidence, rtol=1e-9)


class TestRestrictedAccess:
    def test_frozen_values(self):
        b = restricted_access_bound(5.0, 0.1, 0.05, 1000.0)
        assert_allclose(b.center, 15812.388300841897, rtol=1e-12)
        assert_allclose(b.halfwidth, 6324.555320336759, rtol=1e-12)
        assert_allclose(b.confidence, 0.9087944459734458, rtol=1e-12)
        big = restricted_access_bound(5.0, 0.1, 0.05, 10000.0)
        assert_allclose(big.center, 158114.88300841898, rtol=1e-12)
        assert_allclose(big.halfwidth, 63245.55320336759, rtol=1e-12)
        assert_allclose(big.confidence - 1.0, -1.54310487388489e-11, rtol=1e-4)

    def test_matches_eps_form_with_derived_norms(self):
        # ||v|| = 1/sqrt(alpha*n), ||p|| = c/sqrt(n) turns the eps form into
        # the center/halfwidth decomposition exactly.
        n, c, alpha, eps, L = 100, 5.0, 0.1, 0.05, 1000.0
        b = restricted_access_bound(c, alpha, eps, L)
        direct = search_time_bound_eps(
            L, n, 1.0 / math.sqrt(alpha * n), c / math.sqrt(n), eps
        )
        assert_allclose(b.center + b.halfwidth, direct.value, rtol=1e-12)
        assert_allclose(b.confidence, direct.confidence, rtol=1e-12)

    def test_halfwidth_is_finite_where_eight_times_the_base_overflows(self):
        # base = c*L/sqrt(alpha) = 1e308; base*8 alone would exceed the double range.
        b = restricted_access_bound(1.0, 1.0, 0.1, 1e308)
        assert b.halfwidth == 1e308 * 0.8
        assert math.isfinite(b.center) and math.isfinite(b.halfwidth)

    def test_alpha_one_minimizes_center(self):
        centers = [
            restricted_access_bound(5.0, a, 0.05, 1000.0).center for a in (0.1, 0.5, 1.0)
        ]
        assert centers[0] > centers[1] > centers[2]

    def test_preconditions(self):
        with pytest.raises(ValueError):
            restricted_access_bound(0.0, 0.1, 0.05, 1000.0)
        with pytest.raises(ValueError):
            restricted_access_bound(5.0, 0.0, 0.05, 1000.0)
        with pytest.raises(ValueError):
            restricted_access_bound(5.0, 1.1, 0.05, 1000.0)
        with pytest.raises(ValueError):
            restricted_access_bound(5.0, 0.1, 0.0, 1000.0)
        with pytest.raises(ValueError):
            restricted_access_bound(5.0, 0.1, 0.05, 9.0)


class TestCombinedQuery:
    def test_symmetric_case_matches_single_pattern_value(self):
        single = restricted_access_bound(5.0, 0.1, 0.05, 1000.0)
        both = combined_query_bound(5.0, 0.1, 0.1, 0.05, 1000.0)
        assert_allclose(both.value, single.center + single.halfwidth, rtol=1e-12)
        assert both.confidence < single.confidence

    def test_frozen_value(self):
        b = combined_query_bound(5.0, 0.1, 0.5, 0.05, 1000.0)
        assert_allclose(b.value, 22136.943621178655, rtol=1e-12)
        assert_allclose(b.confidence, 0.8175888919468916, rtol=1e-12)

    def test_worse_fraction_dominates(self):
        a = combined_query_bound(5.0, 0.1, 0.9, 0.05, 1000.0)
        b = combined_query_bound(5.0, 0.9, 0.1, 0.05, 1000.0)
        assert_allclose(a.value, b.value, rtol=1e-15)

    def test_preconditions(self):
        with pytest.raises(ValueError):
            combined_query_bound(5.0, 0.0, 0.5, 0.05, 1000.0)
        with pytest.raises(ValueError):
            combined_query_bound(5.0, 0.1, 0.5, 0.05, 8.0)


def test_bound_types_validate_and_stay_above_one():
    with pytest.raises(ValueError):
        SearchTimeBound(value=0.5, confidence=0.9)
    with pytest.raises(ValueError):
        IntervalBound(center=10.0, halfwidth=-1.0, confidence=0.9)
    with pytest.raises(ValueError, match="^confidence cannot exceed 1$"):
        SearchTimeBound(value=2.0, confidence=1.5)
    with pytest.raises(ValueError, match="^confidence cannot exceed 1$"):
        IntervalBound(center=10.0, halfwidth=1.0, confidence=1.5)
    gen = np.random.default_rng(44)
    for _ in range(100):
        L = float(gen.uniform(9.5, 10**4))
        n = int(gen.integers(25, 10**4))
        v_norm = float(gen.uniform(1e-3, 1.0))
        p_norm = float(gen.uniform(1.0 / math.sqrt(n), 1.0))
        s = float(gen.uniform(0.0, 20.0))
        eps = float(gen.uniform(1e-6, 0.5))
        assert search_time_bound_margin(L, n, v_norm, p_norm, s).value >= 1.0
        assert search_time_bound_eps(L, n, v_norm, p_norm, eps).value >= 1.0
