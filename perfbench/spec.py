"""Workloads and metric definitions of the chainhash Monte Carlo benchmark.

Every workload is one ``chainhash experiment`` config whose inputs derive
from a single seed: the seed is the config's ``base_seed`` and, where the
workload hashes through a random table, the table's seed too.  The trial
count of one invocation is fixed per workload, so the aggregates and the
CSV of an invocation at the default seed have fixed golden digests.
"""

from __future__ import annotations

DEFAULT_SEED = 108

# name -> (why, trials per invocation, config without seed-dependent fields)
WORKLOADS = {
    "mc-zipf-bigU": (
        "Zipf(1.0) keys over U=2^20 via a random table: 8 MiB cdf and table exceed L2, "
        "so sampler search, table gather and set-up dominate",
        400,
        {
            "kind": "collision",
            "n": 64,
            "m": 6400,
            "distribution": {"name": "zipf", "exponent": 1.0},
            "hash": {"mode": "random-table", "universe": 2**20},
            "bound": {"name": "load-factor", "epsilon": 0.15},
        },
    ),
    "mc-uniform-short": (
        "criterion-3 shape: many short uniform trials with CSV, so per-trial harness, "
        "records and report writing carry most weight and the sampler search is shallow",
        6000,
        {
            "kind": "collision",
            "n": 64,
            "m": 1024,
            "distribution": {"name": "uniform"},
            "hash": {"mode": "identity"},
            "bound": {"name": "load-factor", "epsilon": 0.3},
        },
    ),
    "mc-ast-restricted": (
        "criterion-6 config: the only workload through search_time and distinct_counts; "
        "the collision workloads bypass both, so they predict no change there",
        1000,
        {
            "kind": "ast",
            "n": 100,
            "m": 10000,
            "distribution": {"name": "uniform"},
            "hash": {"mode": "identity"},
            "access_pattern": {"name": "restricted", "alpha": 0.1},
            "bound": {"name": "eps-form", "epsilon": 0.15},
        },
    ),
}

# End-to-end metrics of an untraced run: name -> (unit, better, bound).
END_TO_END = {
    "trials_per_s": ("trials/s", "higher", 0.25),
    "setup_s": ("s", "lower", 0.25),
    "peak_rss_mb": ("MiB", "lower", 0.05),
}

# Per-layer metrics of a traced run: name -> (unit, better).  All "per_trial" and
# "per_draw" figures divide by the trials (or trials * m draws) of the run.
PER_LAYER = {
    "rng.stream_ns_per_draw": ("ns", "lower"),
    "probability.sample_ns_per_draw": ("ns", "lower"),
    "probability.search_ns_per_draw": ("ns", "lower"),
    "probability.keyseq_us_per_trial": ("us", "lower"),
    "hashing.count_slots_us_per_trial": ("us", "lower"),
    "hashing.distinct_counts_us_per_trial": ("us", "lower"),
    "estimator.estimate_us_per_trial": ("us", "lower"),
    "search_time.upper_us_per_trial": ("us", "lower"),
    "search_time.exact_self_us_per_trial": ("us", "lower"),
    "bounds.resolve_us": ("us", "lower"),
    "setup.hash_ms": ("ms", "lower"),
    "setup.dist_ms": ("ms", "lower"),
    "setup.slot_probs_ms": ("ms", "lower"),
    "setup.cdf_ms": ("ms", "lower"),
    "experiments.self_us_per_trial": ("us", "lower"),
    "experiments.trial_us.p50": ("us", "lower"),
    "experiments.trial_us.p99": ("us", "lower"),
    "experiments.trial_us.samples": ("count", "higher"),
    "experiments.report_write_ms": ("ms", "lower"),
    "experiments.records_kept": ("count", "higher"),
    "experiments.csv_bytes": ("bytes", "lower"),
    "cli.self_ms": ("ms", "lower"),
    "trace.overhead_pct": ("%", "lower"),
}


def config_for(workload: str, seed: int) -> dict:
    """The experiment config of ``workload`` with every input drawn from ``seed``."""
    _, trials, base = WORKLOADS[workload]
    cfg = {key: (dict(value) if isinstance(value, dict) else value) for key, value in base.items()}
    cfg["trials"] = trials
    cfg["base_seed"] = seed
    if cfg["hash"]["mode"] == "random-table":
        cfg["hash"]["seed"] = seed
    return cfg
