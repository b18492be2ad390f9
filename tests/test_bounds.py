"""Closed-form bound values frozen from an independent high-precision
evaluation of each formula (mpmath, 30 digits), plus the domain checks."""

import math
import sys

import numpy as np
import pytest
from numpy.testing import assert_allclose

from chainhash.bounds import (
    BoundParams,
    DeviationBound,
    exponent_form_bound,
    gaussian_tail_bound,
    load_factor_bound,
    params_from_load,
    polynomial_tail_bound,
    simplified_gaussian_bound,
)
from chainhash.experiments import resolve_collision_bound
from chainhash.search_time import search_time_bound_eps, search_time_bound_margin


class TestPolynomialTail:
    def test_frozen_values(self):
        b = polynomial_tail_bound(10**4, 1.0, 1.0)
        assert_allclose(b.error_bound, 0.03, rtol=1e-12)
        assert_allclose(b.confidence, 0.9999555555555556, rtol=1e-12)

    def test_lambda_zero_edge(self):
        b = polynomial_tail_bound(100, 2.0, 0.0)
        assert_allclose(b.confidence, 5.0 / 9.0, rtol=1e-12)
        assert_allclose(b.error_bound, 0.03, rtol=1e-12)

    def test_same_error_different_n(self):
        b = polynomial_tail_bound(100, 2.0, 2.0)
        assert_allclose(b.error_bound, 0.03, rtol=1e-12)
        assert_allclose(b.confidence, 0.9999555555555556, rtol=1e-12)

    def test_preconditions(self):
        with pytest.raises(ValueError):
            polynomial_tail_bound(1, 1.0, 1.0)
        with pytest.raises(ValueError):
            polynomial_tail_bound(100, 0.0, 1.0)
        with pytest.raises(ValueError):
            polynomial_tail_bound(100, 1.0, -0.1)


class TestGaussianTail:
    def test_zero_margin_is_vacuous(self):
        b = gaussian_tail_bound(100, 0.1, 1.0, 0.0)
        assert_allclose(b.error_bound, 0.3, rtol=1e-12)
        assert_allclose(b.confidence, -1.0 / 9.0, rtol=1e-12)
        assert b.vacuous and not b.underflow

    def test_frozen_value_at_canonical_margin(self):
        # s = 2 * n**(delta/2) = 20 here; error = 0.1 * (3 + 12 + 2).
        b = gaussian_tail_bound(100, 0.1, 1.0, 20.0)
        assert_allclose(b.error_bound, 1.7, rtol=1e-12)
        # Tail is ~4.13e-44: the confidence rounds to exactly 1.0 in doubles
        # without the tail term itself having underflowed.
        assert b.confidence == 1.0 and not b.underflow and not b.vacuous

    def test_frozen_value_small_n(self):
        b = gaussian_tail_bound(25, 0.3, 0.5, 2.0)
        assert_allclose(b.error_bound, 2.86996894379985, rtol=1e-12)
        assert_allclose(b.confidence, 0.591245065365064, rtol=1e-12)

    def test_preconditions_name_the_constraint(self):
        with pytest.raises(ValueError, match="n"):
            gaussian_tail_bound(24, 0.1, 1.0, 1.0)
        with pytest.raises(ValueError, match="epsilon"):
            gaussian_tail_bound(100, 1.0 / 3.0, 1.0, 1.0)
        with pytest.raises(ValueError, match="epsilon"):
            gaussian_tail_bound(100, 0.0, 1.0, 1.0)
        with pytest.raises(ValueError, match="delta"):
            gaussian_tail_bound(100, 0.1, 0.0, 1.0)
        with pytest.raises(ValueError, match="s"):
            gaussian_tail_bound(100, 0.1, 1.0, -1.0)
        # s**2 / n**delta is inf / inf: rejected rather than reported as NaN.
        with pytest.raises(ValueError, match="double range"):
            gaussian_tail_bound(30, 0.1, 1e10, 1e200)

    def test_monotonicity(self):
        grid = np.linspace(0.01, 0.33, 8)
        errors = [gaussian_tail_bound(100, e, 1.0, 2.0).error_bound for e in grid[:-1]]
        assert np.all(np.diff(errors) > 0)
        s_grid = np.linspace(0.0, 50.0, 8)
        errors = [gaussian_tail_bound(100, 0.1, 1.0, s).error_bound for s in s_grid]
        assert np.all(np.diff(errors) > 0)
        n_grid = [25, 50, 100, 1000, 10**4]
        errors = [gaussian_tail_bound(n, 0.1, 1.0, 2.0).error_bound for n in n_grid]
        assert np.all(np.diff(errors) < 0)
        d_grid = np.linspace(0.1, 3.0, 8)
        errors = [gaussian_tail_bound(100, 0.1, d, 2.0).error_bound for d in d_grid]
        assert np.all(np.diff(errors) < 0)


class TestSimplifiedGaussian:
    def test_frozen_values(self):
        b = simplified_gaussian_bound(100, 0.1, 1.0)
        assert_allclose(b.error_bound, 2.2, rtol=1e-12)
        assert b.confidence == 1.0 and not b.underflow
        small = simplified_gaussian_bound(25, 0.01, 0.5)
        assert_allclose(small.error_bound, 0.22, rtol=1e-12)
        assert_allclose(small.confidence, 0.992513392223238, rtol=1e-12)

    def test_dominates_exact_form_at_canonical_margin(self):
        gen = np.random.default_rng(8)
        for _ in range(50):
            n = int(gen.integers(25, 5000))
            eps = float(gen.uniform(0.001, 0.333))
            delta = float(gen.uniform(0.05, 2.0))
            s = 2.0 * n ** (delta / 2.0)
            exact = gaussian_tail_bound(n, eps, delta, s)
            simple = simplified_gaussian_bound(n, eps, delta)
            assert simple.error_bound >= exact.error_bound
            assert_allclose(simple.confidence, exact.confidence, rtol=1e-12)


class TestLoadFactor:
    def test_frozen_values(self):
        b = load_factor_bound(0.05, 1000.0)
        assert_allclose(b.error_bound, 1.1, rtol=1e-12)
        assert_allclose(b.confidence, 0.9087944459734458, rtol=1e-12)
        heavy = load_factor_bound(0.05, 10000.0)
        assert_allclose(heavy.confidence - 1.0, -1.54310487388489e-11, rtol=1e-4)
        loose = load_factor_bound(0.3, 12.0)
        assert_allclose(loose.error_bound, 6.6, rtol=1e-12)
        assert_allclose(loose.confidence, 0.6226716381722898, rtol=1e-12)

    def test_rejects_small_load(self):
        # Boundary case L = eps**-2 exactly, and clearly-too-small loads.
        with pytest.raises(ValueError, match=r"1/sqrt\(L\)"):
            load_factor_bound(0.1, 100.0)
        with pytest.raises(ValueError):
            load_factor_bound(0.05, 300.0)
        with pytest.raises(ValueError):
            load_factor_bound(0.4, 1000.0)

    def test_underflow_flagged(self):
        b = load_factor_bound(0.3, 10**5)
        assert b.confidence == 1.0 and b.underflow and not b.vacuous

    def test_confidence_increases_with_load(self):
        confs = [load_factor_bound(0.1, L).confidence for L in (150, 300, 600, 1200)]
        assert np.all(np.diff(confs) > 0)


class TestExponentForm:
    def test_frozen_values(self):
        b = exponent_form_bound(100, 2.0, 1.5)
        assert_allclose(b.error_bound, 0.044, rtol=1e-12)
        # Tail is (10/9)exp(-100) ~ 4.13e-44; rounds to confidence 1.0.
        assert b.confidence == 1.0 and not b.underflow
        mild = exponent_form_bound(100, 2.0, 0.75)
        assert_allclose(mild.confidence, 0.952967533751994, rtol=1e-12)

    def test_exponential_beats_polynomial_tail(self):
        exp_form = exponent_form_bound(10**4, 1.0, 1.0)
        poly = polynomial_tail_bound(10**4, 1.0, 1.0)
        assert_allclose(exp_form.error_bound, 0.044, rtol=1e-12)
        assert poly.error_bound < exp_form.error_bound  # 0.03 < 0.044
        assert exp_form.confidence > poly.confidence

    def test_boundary_rejected(self):
        with pytest.raises(ValueError):
            exponent_form_bound(100, math.log(3.0) / math.log(100.0), 1.0)
        exponent_form_bound(100, math.log(3.0) / math.log(100.0) + 1e-9, 1.0)
        with pytest.raises(ValueError):
            exponent_form_bound(100, 1.0, 0.5)
        with pytest.raises(ValueError):
            exponent_form_bound(24, 1.0, 1.0)


class TestParamsFromLoad:
    def test_round_numbers(self):
        p = params_from_load(100, 1000.0, 0.1)
        assert p.m == 100000
        assert_allclose(p.delta, 0.5, atol=1e-12)
        assert_allclose(p.beta, 1.0, rtol=1e-12)
        assert_allclose(p.lam, 1.0, rtol=1e-12)
        assert_allclose(p.m_exact, 100000.0)

    def test_desk_scale_instance(self):
        p = params_from_load(64, 100.0, 0.15)
        assert p.m == 6400
        assert_allclose(p.delta, 0.1949875002403854, rtol=1e-12)
        assert_allclose(p.beta, 0.9123218647220687, rtol=1e-12)
        assert_allclose(p.lam, 0.6949875002403854, rtol=1e-12)

    def test_boundary_rejected(self):
        # L*eps**2 = 1 exactly: delta would be zero.
        with pytest.raises(ValueError):
            params_from_load(100, 100.0, 0.1)
        with pytest.raises(ValueError):
            params_from_load(24, 1000.0, 0.1)

    def test_round_trips(self):
        gen = np.random.default_rng(14)
        for _ in range(50):
            n = int(gen.integers(25, 2000))
            eps = float(gen.uniform(0.05, 0.33))
            L = float(gen.uniform(1.5 / eps**2, 5000.0))
            p = params_from_load(n, L, eps)
            # m realizes eps**-2 * n**(1+delta) up to integer rounding.
            assert_allclose(eps**-2 * n ** (1.0 + p.delta), p.m_exact, rtol=1e-9)
            assert abs(p.m - p.m_exact) <= 0.5
            assert abs(p.m / n - L) <= 1.0 / n
            # The margin keeps the two tail forms consistent.
            assert_allclose(p.s, 2.0 * n ** (p.delta / 2.0), rtol=1e-9)
            assert_allclose(p.lam, 0.5 + p.delta, rtol=1e-12)


class TestDeviationBoundType:
    def test_validation(self):
        with pytest.raises(ValueError):
            DeviationBound(error_bound=-0.1, confidence=0.5, vacuous=False, underflow=False)
        with pytest.raises(ValueError):
            DeviationBound(error_bound=0.1, confidence=1.5, vacuous=False, underflow=False)

    def test_sanity_across_random_valid_inputs(self):
        gen = np.random.default_rng(6)
        for _ in range(100):
            n = int(gen.integers(25, 10**4))
            eps = float(gen.uniform(0.01, 0.33))
            delta = float(gen.uniform(0.05, 2.0))
            s = float(gen.uniform(0.0, 30.0))
            b = gaussian_tail_bound(n, eps, delta, s)
            assert b.error_bound >= 0.0 and b.confidence <= 1.0


class TestSlotCountRange:
    """n must be a double: n**x raises OverflowError for a larger int n."""

    CALLS = {
        "polynomial": lambda n: polynomial_tail_bound(n, 1.0, 0.5),
        "gaussian": lambda n: gaussian_tail_bound(n, 0.1, 0.5, 1.0),
        "simplified-gaussian": lambda n: simplified_gaussian_bound(n, 0.1, 1e-3),
        "exponent-form": lambda n: exponent_form_bound(n, 1.0, 0.75),
        "params": lambda n: params_from_load(n, 200.0, 0.1),
        "eps-form": lambda n: search_time_bound_eps(200.0, n, 0.1, 1.0, 0.1),
        "margin-form": lambda n: search_time_bound_margin(200.0, n, 0.1, 1.0, 1.0),
    }

    @pytest.mark.parametrize("name", sorted(CALLS))
    def test_n_above_the_double_range_rejected(self, name):
        with pytest.raises(ValueError, match=r"^n exceeds the double range"):
            self.CALLS[name](10**400)

    def test_largest_double_n_keeps_a_representable_tail(self):
        # n**0.5 is about 1.3e154, so the tail 4/(9*n**0.5) is tiny but not 0.
        n = int(sys.float_info.max)
        b = polynomial_tail_bound(n, 1.0, 0.5)
        assert not b.underflow and b.error_bound == 3.0 * sys.float_info.max**-0.5

    def test_config_bound_spec_rejects_n_by_name(self):
        spec = {"name": "polynomial", "beta": 1.0, "lambda": 1.0}
        with pytest.raises(ValueError, match=r"^n exceeds the double range"):
            resolve_collision_bound(spec, 10**400, 1000)
