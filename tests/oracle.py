"""Test oracles: an O(m^2) brute-force pair count for the slot-count route, and
a Monte Carlo check that the collision estimator is unbiased."""

import math
from dataclasses import dataclass

from chainhash import experiments
from chainhash.estimator import empirical_collision_probability, relative_error
from chainhash.hashing import block_slot_counts, slot_probabilities
from chainhash.probability import norm_sq


def brute_force_collision_pairs(x, h) -> int:
    """Count index pairs j < j' whose keys hash to the same slot, one pair at a time.

    Each key's slot is read from ``h.table``, or is the key itself under the
    identity hash; repeated keys in ``x`` collide with themselves.
    """
    slots = [int(key) if h.table is None else int(h.table[key]) for key in x.keys]
    m = len(slots)
    total = 0
    for j in range(m):
        sj = slots[j]
        for jp in range(j + 1, m):
            if sj == slots[jp]:
                total += 1
    return total


@dataclass(frozen=True)
class UnbiasednessResult:
    """Sample mean of the estimator vs its analytic target ||p||^2."""

    sample_mean: float
    p_norm_sq: float
    z_score: float
    sample_std: float
    trials: int
    exact_match: bool


def unbiasedness_check(dist, h, m: int, trials: int, base_seed: int) -> UnbiasednessResult:
    """Monte Carlo check that E[empirical collision probability] = ||p||^2.

    Runs the experiment trial loop, keeping no records.  Returns the z-score
    of the sample mean; with zero sample variance (e.g. a point-mass
    distribution) the z-score is NaN and ``exact_match`` reports whether the
    constant value hit the target exactly.
    """
    if m < 2:
        raise ValueError("m must be at least 2")
    if trials < 100:
        raise ValueError("trials must be at least 100")
    p_norm_sq = norm_sq(slot_probabilities(dist, h))

    def measure(keys):
        for k in block_slot_counts(keys, h):
            est = empirical_collision_probability(k)
            yield est.empirical_cp, relative_error(est, p_norm_sq), False

    stats = experiments._run_trials(dist, m, trials, base_seed, measure, 0)[0]
    std = stats.sample_std
    return UnbiasednessResult(
        sample_mean=stats.mean,
        p_norm_sq=p_norm_sq,
        z_score=(stats.mean - p_norm_sq) / (std / math.sqrt(trials)) if std else math.nan,
        sample_std=std,
        trials=trials,
        exact_match=std == 0.0 and stats.mean == p_norm_sq,
    )
