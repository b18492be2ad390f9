"""Collision-probability estimation and search-time tail bounds for
hash tables with chaining, plus a seeded Monte Carlo validation harness."""

from .bounds import (
    BoundParams,
    DeviationBound,
    exponent_form_bound,
    gaussian_tail_bound,
    load_factor_bound,
    params_from_load,
    polynomial_tail_bound,
    simplified_gaussian_bound,
)
from .estimator import (
    CollisionEstimate,
    EstimatorUndefinedError,
    collision_pairs,
    empirical_collision_probability,
    relative_error,
)
from .experiments import (
    ExperimentConfig,
    ExperimentReport,
    PerturbationCheck,
    TrialRecord,
    run_ast_trials,
    run_collision_trials,
    run_experiment,
    slot_count_perturbation,
)
from .hashing import (
    HashModel,
    SlotCounts,
    count_slots,
    distinct_counts,
    slot_probabilities,
)
from .probability import (
    KeySequence,
    ProbabilityVector,
    make_point_mass,
    make_restricted_uniform,
    make_uniform,
    make_zipf,
    norm_sq,
    sample,
)
from .search_time import (
    IntervalBound,
    SearchTimeBound,
    average_search_time,
    combined_query_bound,
    restricted_access_bound,
    search_time_bound_eps,
    search_time_bound_margin,
    search_time_upper,
)

__version__ = "0.1.0"
