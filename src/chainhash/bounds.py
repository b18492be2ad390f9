"""Closed-form deviation bounds for the collision-probability estimator.

Each function returns a :class:`DeviationBound`: a ceiling on the relative
error of the empirical collision probability, together with a lower bound
on the probability that the ceiling holds.  Two tail families are covered —
a polynomial tail and a sub-gaussian tail — plus convenience forms of the
gaussian one parametrized by load factor or by exponents.  ``gaussian_tail``
and ``check_n`` hold the gaussian family's failure term and its n > 24
domain, which the search-time forms share.

Preconditions are enforced strictly: the underlying inequalities are false
outside their hypotheses, so out-of-range inputs raise ``ValueError`` naming
the violated constraint instead of extrapolating.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

# Guard band for "strictly greater" precondition checks that sit on a float
# boundary (e.g. L*eps**2 == 1 up to rounding): inputs this close to the
# boundary are rejected so derived exponents stay meaningfully positive.
_BOUNDARY_TOL = 1e-9


@dataclass(frozen=True)
class DeviationBound:
    """A relative-error ceiling and the confidence that it holds.

    ``confidence`` may be negative (the bound is then vacuous — it carries
    no information); ``underflow`` marks confidences that rounded to exactly
    1.0 because the tail term underflowed double precision.
    """

    error_bound: float
    confidence: float
    vacuous: bool
    underflow: bool

    def __post_init__(self):
        if self.error_bound < 0.0:
            raise ValueError("error_bound must be nonnegative")
        if self.confidence > 1.0:
            raise ValueError("confidence cannot exceed 1")


@dataclass(frozen=True)
class BoundParams:
    """The parameter bundle (n, m, eps, delta, s, L) tying the forms together.

    ``m_exact`` is the real-valued key count eps**-2 * n**(1+delta) before
    rounding to the integer ``m``; ``beta`` and ``lam`` are the equivalent
    polynomial-form exponents (beta = -2*log(eps)/log(n), lam = 1/2 + delta),
    and ``s`` is the margin at which the gaussian form simplifies to 22*eps.
    """

    n: int
    m: int
    epsilon: float
    delta: float
    s: float
    L: float
    beta: float
    lam: float
    m_exact: float


def _finish(error_bound: float, tail: float) -> DeviationBound:
    confidence = 1.0 - tail
    return DeviationBound(
        error_bound=error_bound,
        confidence=confidence,
        vacuous=confidence <= 0.0,
        underflow=(tail == 0.0),
    )


def _pow(base: float, exponent: float) -> float:
    """base**exponent in floats (even for an int exponent), or +inf above the double
    range, where math.pow raises: a tail built from it is 0 and reads as underflow."""
    try:
        return math.pow(base, exponent)
    except OverflowError:
        return math.inf


def _require(cond: bool, message: str) -> None:
    if not cond:
        raise ValueError(message)


def check_n_range(n: int) -> None:
    """Reject an n above the double range, where an int n overflows n**x."""
    _require(n <= sys.float_info.max, "n exceeds the double range (about 1.8e308)")


def check_n(n: int) -> None:
    """Require n > 24, the domain of every gaussian form, within the double range."""
    _require(n > 24, "n must exceed 24")
    check_n_range(n)


def gaussian_tail(x: float) -> float:
    """(10/9)*exp(-x), the failure term of every gaussian form: x = s**2/4 at margin s."""
    return (10.0 / 9.0) * math.exp(-x)


def polynomial_tail_bound(n: int, beta: float, lam: float) -> DeviationBound:
    """Error 3/n**(beta/2) with confidence 1 - 4/(9*n**lam).

    Holds for key counts m = n**(1/2 + beta + lam); the tail decays only
    polynomially in n, which is what the gaussian family improves on.
    """
    _require(n >= 2, "n must be at least 2")
    check_n_range(n)
    _require(beta > 0.0, "beta must be positive")
    _require(lam >= 0.0, "lambda must be nonnegative")
    return _finish(3.0 * n ** (-beta / 2.0), 4.0 / (9.0 * _pow(n, lam)))


def gaussian_tail_bound(n: int, epsilon: float, delta: float, s: float) -> DeviationBound:
    """The main form: for m = eps**-2 * n**(1+delta) keys and margin s >= 0,

        error <= eps * (3 + 6s/n**(delta/2) + 5*s**2*eps/n**delta)

    with confidence 1 - (10/9) * exp(-s**2/4).
    """
    check_n(n)
    _require(0.0 < epsilon < 1.0 / 3.0, "epsilon must lie in (0, 1/3)")
    _require(delta > 0.0, "delta must be positive")
    _require(s >= 0.0, "s must be nonnegative")
    nd = _pow(n, delta)
    error = epsilon * (3.0 + 6.0 * s / math.sqrt(nd) + 5.0 * s * s * epsilon / nd)
    _require(not math.isnan(error), "s**2 and n**delta both exceed the double range")
    return _finish(error, gaussian_tail(s * s / 4.0))


def simplified_gaussian_bound(n: int, epsilon: float, delta: float) -> DeviationBound:
    """Gaussian form at the canonical margin s = 2*n**(delta/2).

    The error ceiling rounds up to a clean 22*eps (the exact value at that
    margin is eps*(15 + 20*eps) < 22*eps since eps < 1/3) and the confidence
    becomes 1 - (10/9)*exp(-n**delta).
    """
    check_n(n)
    _require(0.0 < epsilon < 1.0 / 3.0, "epsilon must lie in (0, 1/3)")
    _require(delta > 0.0, "delta must be positive")
    return _finish(22.0 * epsilon, gaussian_tail(_pow(n, delta)))


def load_factor_bound(epsilon: float, L: float) -> DeviationBound:
    """The gaussian family in terms of the load factor L = m/n alone:

        error <= 22*eps  with confidence 1 - (10/9) * exp(-L*eps**2),

    valid when 1/3 > eps > 1/sqrt(L) (so L > eps**-2 > 9).
    """
    _require(0.0 < epsilon < 1.0 / 3.0, "epsilon must lie in (0, 1/3)")
    _require(
        L * epsilon * epsilon > 1.0 + _BOUNDARY_TOL,
        "load factor too small: requires 1/3 > epsilon > 1/sqrt(L)",
    )
    return _finish(22.0 * epsilon, gaussian_tail(L * epsilon * epsilon))


def exponent_form_bound(n: int, beta: float, lam: float) -> DeviationBound:
    """Gaussian family in the polynomial form's (beta, lambda) coordinates:

        error <= (22/5) * n**(-beta/2)  with confidence
        1 - (10/9) * exp(-n**(lambda - 1/2)),

    for beta > log(3)/log(n) and lambda > 1/2 — same error shape as the
    polynomial bound, exponentially better tail.
    """
    check_n(n)
    _require(beta > math.log(3.0) / math.log(n), "beta must exceed log(3)/log(n)")
    _require(lam > 0.5, "lambda must exceed 1/2")
    return _finish((22.0 / 5.0) * n ** (-beta / 2.0), gaussian_tail(_pow(n, lam - 0.5)))


def params_from_load(n: int, L: float, epsilon: float) -> BoundParams:
    """Realize the parameter bundle from (n, load factor, eps).

    Inverts m = eps**-2 * n**(1+delta): delta = log(L*eps**2)/log(n), and
    m = round(L*n).  Requires L*eps**2 > 1 strictly so delta > 0.
    """
    check_n(n)
    _require(0.0 < epsilon < 1.0 / 3.0, "epsilon must lie in (0, 1/3)")
    _require(L > 0.0, "L must be positive")
    c = L * epsilon * epsilon
    _require(c > 1.0 + _BOUNDARY_TOL, "L*epsilon**2 must exceed 1 (delta must be positive)")
    m_exact = L * n
    _require(math.isfinite(m_exact), f"L*n must be finite, got {m_exact}")
    delta = math.log(c) / math.log(n)
    return BoundParams(
        n=int(n),
        m=int(round(m_exact)),
        epsilon=float(epsilon),
        delta=delta,
        s=2.0 * epsilon * math.sqrt(L),
        L=float(L),
        beta=-2.0 * math.log(epsilon) / math.log(n),
        lam=0.5 + delta,
        m_exact=m_exact,
    )
