"""Average search time under a user access pattern, and its tail bounds.

The cost of probing slot i is its chain length.  With distinct-key chain
lengths d_i and access pattern v, the average search time is sum(v_i*d_i);
replacing d_i by the multiplicity counts k_i gives the computable upper
proxy sum(v_i*k_i) (duplicate insertions are stored once, so d_i <= k_i).
The closed-form bounds control that proxy — and hence the true average —
in terms of load factor and the norms of v and p.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .bounds import check_n_range
from .hashing import HashModel, SlotCounts, distinct_counts
from .probability import KeySequence, ProbabilityVector

_NORM_TOL = 1e-9


@dataclass(frozen=True)
class SearchTimeBound:
    """A high-probability ceiling on the average search time."""

    value: float
    confidence: float

    def __post_init__(self):
        if self.value < 1.0:
            raise ValueError("bound value is always at least 1")
        if self.confidence > 1.0:
            raise ValueError("confidence cannot exceed 1")


@dataclass(frozen=True)
class IntervalBound:
    """A ceiling expressed as center +/- halfwidth, as in the worked examples."""

    center: float
    halfwidth: float
    confidence: float

    def __post_init__(self):
        if self.halfwidth < 0.0:
            raise ValueError("halfwidth must be nonnegative")
        if self.confidence > 1.0:
            raise ValueError("confidence cannot exceed 1")


def average_search_time(v: ProbabilityVector, x: KeySequence, h: HashModel) -> float:
    """Exact average search time: access-weighted distinct chain lengths."""
    if len(v) != h.slots:
        raise ValueError("access pattern size must equal the slot count")
    d = distinct_counts(x, h)
    return float(np.dot(v.weights, d.counts))


def search_time_upper(v: ProbabilityVector, k: SlotCounts) -> float:
    """The multiplicity proxy sum(v_i * k_i) >= average_search_time."""
    if len(v) != len(k):
        raise ValueError("access pattern size must equal the slot count")
    return float(np.dot(v.weights, k.counts))


def _check_shared(L: float, n: int) -> None:
    if n <= 24:
        raise ValueError("n must exceed 24")
    check_n_range(n)
    if L <= 9.0:
        raise ValueError("load factor L must exceed 9")


def _check_norms(n: int, v_norm: float, p_norm: float) -> None:
    if not 0.0 < v_norm <= 1.0 + _NORM_TOL:
        raise ValueError("v_norm must lie in (0, 1]")
    lo = 1.0 / math.sqrt(n)
    if not lo * (1.0 - _NORM_TOL) <= p_norm <= 1.0 + _NORM_TOL:
        raise ValueError("p_norm must lie in [1/sqrt(n), 1]")


def search_time_bound_margin(
    L: float, n: int, v_norm: float, p_norm: float, s: float
) -> SearchTimeBound:
    """Margin form of the search-time ceiling:

        L*n*||v||*||p|| * sqrt(1 + (3+6s)/sqrt(L) + 5*s**2/L) + 1

    with confidence 1 - (10/9)*exp(-s**2/4).
    """
    _check_shared(L, n)
    _check_norms(n, v_norm, p_norm)
    if s < 0.0:
        raise ValueError("s must be nonnegative")
    radicand = 1.0 + (3.0 + 6.0 * s) / math.sqrt(L) + 5.0 * s * s / L
    value = L * n * v_norm * p_norm * math.sqrt(radicand) + 1.0
    return SearchTimeBound(value, 1.0 - (10.0 / 9.0) * math.exp(-s * s / 4.0))


def search_time_bound_eps(
    L: float, n: int, v_norm: float, p_norm: float, epsilon: float
) -> SearchTimeBound:
    """Epsilon form (margin form at s = 2*eps*sqrt(L), with the radicand
    relaxed to the linear factor):

        L*n*||v||*||p|| * (1 + 8*eps) + 1

    with confidence 1 - (10/9)*exp(-L*eps**2).
    """
    _check_shared(L, n)
    _check_norms(n, v_norm, p_norm)
    if epsilon <= 0.0:
        raise ValueError("epsilon must be positive")
    value = L * n * v_norm * p_norm * (1.0 + 8.0 * epsilon) + 1.0
    return SearchTimeBound(value, 1.0 - (10.0 / 9.0) * math.exp(-L * epsilon * epsilon))


def restricted_access_bound(c: float, alpha: float, epsilon: float, L: float) -> IntervalBound:
    """Worked case: the user touches an alpha-fraction of slots uniformly
    (||v|| = 1/sqrt(alpha*n)) and the slot distribution satisfies
    n*||p||^2 <= c**2 (||p|| <= c/sqrt(n)).  The epsilon-form ceiling then
    reads (c*L/sqrt(alpha))*(1 + 8*eps) + 1, reported here as

        center = c*L/sqrt(alpha) + 1,  halfwidth = (c*L/sqrt(alpha))*8*eps

    with confidence 1 - (10/9)*exp(-L*eps**2).
    """
    if c <= 0.0:
        raise ValueError("c must be positive")
    if not 0.0 < alpha <= 1.0:
        raise ValueError("alpha must lie in (0, 1]")
    if epsilon <= 0.0:
        raise ValueError("epsilon must be positive")
    if L <= 9.0:
        raise ValueError("load factor L must exceed 9")
    base = c * L / math.sqrt(alpha)
    return IntervalBound(
        center=base + 1.0,
        halfwidth=base * 8.0 * epsilon,
        confidence=1.0 - (10.0 / 9.0) * math.exp(-L * epsilon * epsilon),
    )


def combined_query_bound(
    c: float, alpha1: float, alpha2: float, epsilon: float, L: float
) -> SearchTimeBound:
    """Two restricted access patterns queried together (e.g. a pair lookup):
    the worse of the two fractions dominates, and a union over the two tail
    events doubles the failure term:

        value = c*L/sqrt(min(alpha1, alpha2)) * (1 + 8*eps) + 1

    with confidence 1 - (20/9)*exp(-L*eps**2).
    """
    if c <= 0.0:
        raise ValueError("c must be positive")
    if not (0.0 < alpha1 <= 1.0 and 0.0 < alpha2 <= 1.0):
        raise ValueError("alpha1 and alpha2 must lie in (0, 1]")
    if epsilon <= 0.0:
        raise ValueError("epsilon must be positive")
    if L <= 9.0:
        raise ValueError("load factor L must exceed 9")
    value = c * L / math.sqrt(min(alpha1, alpha2)) * (1.0 + 8.0 * epsilon) + 1.0
    return SearchTimeBound(value, 1.0 - (20.0 / 9.0) * math.exp(-L * epsilon * epsilon))
