"""Seeded Monte Carlo harness for validating the closed-form bounds.

Every trial is a pure function of (config, trial index): trial t draws its
keys with the stream seed ``base_seed XOR (t * GOLDEN)``, so runs are
reproducible, trials could be executed in any order, and re-running a
single index reproduces its record.  Reports carry per-trial records (full
up to a cap, a seeded reservoir sample beyond it) plus streaming aggregates
that never depend on the cap.
"""

from __future__ import annotations

import csv
import json
import math
import sys
import time
from dataclasses import asdict, dataclass
from typing import Any, Mapping

import numpy as np

from . import rng, search_time
from .bounds import (
    DeviationBound,
    exponent_form_bound,
    gaussian_tail_bound,
    load_factor_bound,
    polynomial_tail_bound,
    simplified_gaussian_bound,
)
from .estimator import empirical_collision_probability, relative_error
from .hashing import MAX_SIZE, HashModel, count_slots, slot_probabilities
from .probability import (
    KeySequence,
    ProbabilityVector,
    make_point_mass,
    make_restricted_uniform,
    make_uniform,
    make_zipf,
    norm_sq,
    sample_from_cdf,
)

# Per-trial records are kept verbatim up to this many trials; past it the
# report holds a reservoir sample instead (aggregates always cover all trials).
RECORD_CAP = 10**6
RESERVOIR_SIZE = 10**4

# Trials are drawn in blocks of B = max(1, _BLOCK_DRAWS // m) with one stream
# and one sampler call per block, which shares the fixed cost of those calls
# (about 25 numpy calls) among the trials.  The rows are the per-trial draws,
# so no output moves.  Sampler time per trial (2-CPU Xeon, numpy 2.4): Zipf
# over 2**20 at m = 6400 took 261 us at B = 1, 194 at B = 5, 189 at B = 10 and
# 201 at B = 20; m = 10**4 over 100 outcomes 120, 92, 87 and 101 us at B = 1,
# 3, 6 and 13.  The ceiling is the 2 MiB L2 cache: the sampler holds about
# 30 bytes per draw (word, bucket, index, window end), so 2**16 draws fill it
# and 2**17 spill.  In benchmark runs 2**15 and 2**16 were level on the Zipf
# workload and 2**16 led on the other two.
_BLOCK_DRAWS = 2**16

# Stream tag for reservoir-replacement decisions, far outside any trial index,
# and how many of its doubles are drawn at a time.
_RESERVOIR_TAG = 0x7265736572766F69
_RESERVOIR_BLOCK = 2**16

CSV_HEADER = ("trial", "value", "rel_error", "violation")

# Spec keys beside the name, with their defaults; None marks a required key.
_DISTRIBUTIONS = {
    "uniform": {},
    "zipf": {"exponent": 1.0},
    "restricted": {"alpha": None},
    "pointmass": {"index": 0},
}
_HASH_MODES = {
    "identity": {},
    "random-table": {"universe": None, "seed": 0},
    "table-file": {"path": None},
}

DIST_NAMES = tuple(_DISTRIBUTIONS)
HASH_MODES = tuple(_HASH_MODES)

# Each bound name of a config kind, with its function and that function's
# parameter names in argument order.  A run supplies the parameters in
# _RUN_SUPPLIED; every other one is a required key of the bound spec.  The
# CLI's `bound` and `ast-bound` commands read the same table.
BOUNDS = {
    "collision": {
        "polynomial": (polynomial_tail_bound, ("n", "beta", "lambda")),
        "gaussian": (gaussian_tail_bound, ("n", "epsilon", "delta", "s")),
        "simplified-gaussian": (simplified_gaussian_bound, ("n", "epsilon", "delta")),
        "load-factor": (load_factor_bound, ("epsilon", "L")),
        "exponent-form": (exponent_form_bound, ("n", "beta", "lambda")),
    },
    "ast": {
        "margin-form": (search_time.search_time_bound_margin, ("L", "n", "v_norm", "p_norm", "s")),
        "eps-form": (search_time.search_time_bound_eps, ("L", "n", "v_norm", "p_norm", "epsilon")),
    },
}
_RUN_SUPPLIED = {"n", "L", "v_norm", "p_norm"}
_BOUND_SPECS = {
    kind: {
        name: dict.fromkeys(key for key in params if key not in _RUN_SUPPLIED)
        for name, (_, params) in table.items()
    }
    for kind, table in BOUNDS.items()
}


def _check_keys(data: Mapping[str, Any], required, allowed, what: str) -> None:
    """Reject a mapping with a key outside ``allowed`` or without one in ``required``."""
    unknown = set(data) - set(allowed)
    if unknown:
        raise ValueError(f"unknown {what} keys: {sorted(unknown)}")
    missing = set(required) - set(data)
    if missing:
        raise ValueError(f"missing {what} keys: {sorted(missing)}")


def _spec_fields(spec: Mapping[str, Any], tag: str, what: str, schema) -> tuple[str, dict]:
    """The name a spec gives under ``tag``, and its other keys with defaults filled in.

    A name outside ``schema``, a missing required key or a key the name does
    not take raises ValueError naming it.
    """
    name = spec.get(tag)
    if type(name) is not str or name not in schema:
        raise ValueError(f"unknown {what} {tag} {name!r}; expected one of {tuple(schema)}")
    given = {key: value for key, value in spec.items() if key != tag}
    keys = schema[name]
    required = [key for key, default in keys.items() if default is None]
    _check_keys(given, required, keys, f"{what} {name!r}")
    return name, {**keys, **given}


def distribution_from_spec(spec: Mapping[str, Any], size: int) -> ProbabilityVector:
    """Build a named distribution over ``size`` outcomes from a config mapping."""
    name, fields = _spec_fields(spec, "name", "distribution", _DISTRIBUTIONS)
    if name == "zipf":
        return make_zipf(size, _config_float(fields, "exponent"))
    if name == "restricted":
        return make_restricted_uniform(size, _config_float(fields, "alpha"))
    if name == "pointmass":
        return make_point_mass(size, _config_int(fields, "index"))
    return make_uniform(size)


def hash_from_spec(spec: Mapping[str, Any], n: int) -> HashModel:
    """Build a hash model from a config mapping (identity / random / file table)."""
    mode, fields = _spec_fields(spec, "mode", "hash", _HASH_MODES)
    if mode == "random-table":
        universe, seed = _config_int(fields, "universe"), _config_int(fields, "seed")
        return HashModel.random_table(universe, n, seed)
    if mode == "table-file":
        if type(fields["path"]) is not str:  # open() takes an int as a file descriptor
            raise ValueError(f"config key 'path' must be a string, got {fields['path']!r}")
        return HashModel.from_file(fields["path"], n)
    return HashModel.identity(n)


_CONFIG_KEYS = {
    "kind",
    "n",
    "m",
    "trials",
    "base_seed",
    "distribution",
    "hash",
    "bound",
    "access_pattern",
    "output",
    "csv",
}


def _config_int(data: Mapping[str, Any], key: str) -> int:
    """An integer config field; bools and fractional numbers are rejected, not truncated."""
    value = data[key]
    if isinstance(value, float) and value.is_integer():
        value = int(value)
    if type(value) is not int:  # bool is a subclass of int
        raise ValueError(f"config key {key!r} must be an integer, got {value!r}")
    return value


def _config_float(data: Mapping[str, Any], key: str) -> float:
    """A real config field: an int or a finite float; None, bools and strings are rejected."""
    value = data[key]
    if type(value) is int and abs(value) <= sys.float_info.max:  # bool is a subclass of int
        value = float(value)
    if type(value) is not float or not math.isfinite(value):
        raise ValueError(f"config key {key!r} must be a finite number, got {value!r}")
    return value


def _config_spec(data: Mapping[str, Any], key: str, optional: bool = False) -> dict | None:
    """A nested spec: a JSON object, copied; absent or null is None where ``optional``."""
    value = data.get(key)
    if value is None and optional:
        return None
    if not isinstance(value, dict):
        raise ValueError(f"config key {key!r} must be a JSON object, got {value!r}")
    return dict(value)


def _config_path(data: Mapping[str, Any], key: str) -> str | None:
    """An optional output path: a string, or absent or null for none."""
    value = data.get(key)
    if value is not None and type(value) is not str:  # open() takes an int as a file descriptor
        raise ValueError(f"config key {key!r} must be a string or null, got {value!r}")
    return value


@dataclass(frozen=True)
class ExperimentConfig:
    """Full description of one Monte Carlo run (also the JSON config schema)."""

    kind: str  # "collision" or "ast"
    n: int
    m: int
    trials: int
    base_seed: int
    distribution: Mapping[str, Any]
    hash_spec: Mapping[str, Any]
    bound: Mapping[str, Any]
    access_pattern: Mapping[str, Any] | None = None
    output: str | None = None
    csv_path: str | None = None

    def __post_init__(self):
        if self.kind not in ("collision", "ast"):
            raise ValueError("kind must be 'collision' or 'ast'")
        if self.trials < 1:
            raise ValueError("trials must be at least 1")
        if self.m < 2:
            raise ValueError("m must be at least 2")
        if self.m > MAX_SIZE:
            raise ValueError(f"m must be at most 2**24, the maximum key count, got {self.m}")
        if self.kind == "ast" and self.access_pattern is None:
            raise ValueError("ast experiments need an access_pattern spec")

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "ExperimentConfig":
        required = ("kind", "n", "m", "trials", "base_seed", "distribution", "hash", "bound")
        _check_keys(data, required, _CONFIG_KEYS, "config")
        return cls(
            kind=data["kind"],
            n=_config_int(data, "n"),
            m=_config_int(data, "m"),
            trials=_config_int(data, "trials"),
            base_seed=_config_int(data, "base_seed"),
            distribution=_config_spec(data, "distribution"),
            hash_spec=_config_spec(data, "hash"),
            bound=_config_spec(data, "bound"),
            access_pattern=_config_spec(data, "access_pattern", optional=True),
            output=_config_path(data, "output"),
            csv_path=_config_path(data, "csv"),
        )

    @classmethod
    def from_file(cls, path) -> "ExperimentConfig":
        with open(path, "r", encoding="utf-8") as fh:
            return cls.from_dict(json.load(fh))

    def to_dict(self) -> dict[str, Any]:
        return {
            "kind": self.kind,
            "n": self.n,
            "m": self.m,
            "trials": self.trials,
            "base_seed": self.base_seed,
            "distribution": dict(self.distribution),
            "hash": dict(self.hash_spec),
            "bound": dict(self.bound),
            "access_pattern": dict(self.access_pattern) if self.access_pattern else None,
            "output": self.output,
            "csv": self.csv_path,
        }


@dataclass(frozen=True)
class TrialRecord:
    """One Monte Carlo draw: its measured value and its violation verdict."""

    trial: int
    value: float
    violation: bool
    rel_error: float | None = None
    ast_exact: float | None = None


class _Welford:
    """Streaming mean / sample variance, one pass, numerically stable."""

    __slots__ = ("count", "mean", "_m2")

    def __init__(self):
        self.count = 0
        self.mean = 0.0
        self._m2 = 0.0

    def add(self, x: float) -> None:
        self.count += 1
        delta = x - self.mean
        self.mean += delta / self.count
        self._m2 += delta * (x - self.mean)

    @property
    def sample_std(self) -> float:
        if self.count < 2:
            return 0.0
        return math.sqrt(self._m2 / (self.count - 1))


@dataclass(frozen=True)
class ExperimentReport:
    """Per-trial records plus aggregates for one run.

    ``aggregates`` is a plain dict recomputable from the full trial stream;
    its canonical serialization (:meth:`aggregates_json`) is byte-identical
    across re-runs of the same config.  Wall-clock duration lives outside it.
    """

    config: ExperimentConfig
    bound: dict[str, Any]
    aggregates: dict[str, Any]
    records: tuple[TrialRecord, ...]
    duration_seconds: float

    def to_dict(self) -> dict[str, Any]:
        return {
            "config": self.config.to_dict(),
            "bound": dict(self.bound),
            "aggregates": dict(self.aggregates),
            "duration_seconds": self.duration_seconds,
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2, sort_keys=True)

    def aggregates_json(self) -> str:
        return json.dumps(self.aggregates, sort_keys=True, separators=(",", ":"))

    def write_json(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(self.to_json())
            fh.write("\n")

    def write_csv(self, path) -> None:
        with open(path, "w", encoding="utf-8", newline="") as fh:
            writer = csv.writer(fh, lineterminator="\n")
            writer.writerow(CSV_HEADER)
            for rec in self.records:
                rel = "" if rec.rel_error is None else repr(rec.rel_error)
                writer.writerow([rec.trial, repr(rec.value), rel, int(rec.violation)])


def resolve_collision_bound(spec: Mapping[str, Any], n: int, m: int) -> DeviationBound:
    """Evaluate the configured deviation bound (validates its preconditions)."""
    return _resolve_bound(spec, "collision", "collision bound", n=n, L=m / n)


def resolve_ast_bound(
    spec: Mapping[str, Any], L: float, n: int, v_norm: float, p_norm: float
) -> search_time.SearchTimeBound:
    """Evaluate the configured search-time bound from measured norms."""
    return _resolve_bound(spec, "ast", "search-time bound", L=L, n=n, v_norm=v_norm, p_norm=p_norm)


def _resolve_bound(spec: Mapping[str, Any], kind: str, what: str, **supplied):
    """Call the ``BOUNDS[kind]`` function the spec names; its real keys fill the rest."""
    name, fields = _spec_fields(spec, "name", what, _BOUND_SPECS[kind])
    fn, params = BOUNDS[kind][name]
    args = [supplied[key] if key in supplied else _config_float(fields, key) for key in params]
    return fn(*args)


def _kept_trials(trials: int, base_seed: int, record_cap: int, reservoir_size: int):
    """The trials whose records a run keeps, in trial order.

    Up to ``record_cap`` trials a run keeps them all.  Past it, it keeps the
    reservoir sample of Vitter's Algorithm R: trials 0..size-1 fill the slots,
    and trial t >= size takes slot ``int(u_t * (t + 1))`` when that is below
    the size, where u_t is double t of the stream seeded with
    ``trial_seed(base_seed, _RESERVOIR_TAG)``; a later trial overwrites an
    earlier one.  The doubles are drawn ``_RESERVOIR_BLOCK`` at a time.
    """
    if trials <= record_cap:
        return range(trials)
    slots = np.arange(min(trials, reservoir_size))
    seed = rng.trial_seed(base_seed, _RESERVOIR_TAG)
    for start in range(slots.size, trials, _RESERVOIR_BLOCK):
        t = np.arange(start, min(start + _RESERVOIR_BLOCK, trials))
        j = (rng.stream_doubles(seed, t.size, offset=start) * (t + 1)).astype(np.int64)
        hit = j < slots.size
        np.maximum.at(slots, j[hit], t[hit])  # the last writer has the largest t
    return np.sort(slots).tolist()


def _run_trials(
    q: ProbabilityVector, m: int, trials: int, base_seed: int, measure, kept, aux_field: str
):
    """Draw and measure every trial; returns (value stats, aux stats, violations, records).

    Trial t samples m keys from ``q`` with the seed ``trial_seed(base_seed, t)``
    and passes them to ``measure``, which returns (value, aux, violation).  The
    trials in ``kept`` (in trial order) leave a record with the aux figure in
    its field ``aux_field``.  Consecutive trials are sampled a block at a
    time (see ``_BLOCK_DRAWS``) and then measured one by one, in trial order.
    """
    cdf, guide = q.cdf, q.guide
    block = max(1, _BLOCK_DRAWS // m)
    stats, aux_stats = _Welford(), _Welford()
    violations = 0
    records = []
    kept = iter(kept)
    keep = next(kept, None)
    for start in range(0, trials, block):
        seeds = [rng.trial_seed(base_seed, t) for t in range(start, min(start + block, trials))]
        for t, keys in enumerate(sample_from_cdf(cdf, seeds, m, guide), start):
            value, aux, violation = measure(KeySequence(keys, len(q)))
            violations += violation
            stats.add(value)
            aux_stats.add(aux)
            if t == keep:
                records.append(TrialRecord(t, value, violation, **{aux_field: aux}))
                keep = next(kept, None)
    return stats, aux_stats, violations, tuple(records)


def _collision_measure(h: HashModel, p_norm_sq: float, ceiling: float):
    """The empirical collision probability, its relative error, and error > ceiling."""

    def measure(x: KeySequence):
        est = empirical_collision_probability(count_slots(x, h))
        rel = relative_error(est, p_norm_sq)
        return est.empirical_cp, rel, rel > ceiling

    return measure


def run_collision_trials(
    cfg: ExperimentConfig,
    record_cap: int = RECORD_CAP,
    reservoir_size: int = RESERVOIR_SIZE,
) -> ExperimentReport:
    """Measure how often the relative error exceeds the configured bound.

    Each trial samples m keys, hashes them, computes the empirical collision
    probability and its relative error against ||p||^2, and flags a violation
    when the error exceeds the bound.  No judgment is applied here — the
    report just states the observed violation frequency.
    """
    if cfg.kind != "collision":
        raise ValueError("config kind must be 'collision'")
    start = time.perf_counter()
    h = hash_from_spec(cfg.hash_spec, cfg.n)
    q = distribution_from_spec(cfg.distribution, h.universe)
    p_norm_sq = norm_sq(slot_probabilities(q, h))
    bound = resolve_collision_bound(cfg.bound, cfg.n, cfg.m)

    kept = _kept_trials(cfg.trials, cfg.base_seed, record_cap, reservoir_size)
    measure = _collision_measure(h, p_norm_sq, bound.error_bound)
    stats, _, violations, records = _run_trials(
        q, cfg.m, cfg.trials, cfg.base_seed, measure, kept, "rel_error"
    )
    aggregates = {
        "trials": cfg.trials,
        "mean": stats.mean,
        "sample_std": stats.sample_std,
        "violations": violations,
        "violation_frequency": violations / cfg.trials,
        "p_norm_sq": p_norm_sq,
    }
    return ExperimentReport(
        config=cfg,
        bound={"kind": "deviation", **asdict(bound)},
        aggregates=aggregates,
        records=records,
        duration_seconds=time.perf_counter() - start,
    )


def run_ast_trials(
    cfg: ExperimentConfig,
    record_cap: int = RECORD_CAP,
    reservoir_size: int = RESERVOIR_SIZE,
) -> ExperimentReport:
    """Measure how often the search-time proxy exceeds the configured bound.

    Per trial both search-time variants are computed: the multiplicity proxy
    (tested against the bound, one-sided) and the exact distinct-key average
    (recorded for comparison).
    """
    if cfg.kind != "ast":
        raise ValueError("config kind must be 'ast'")
    start = time.perf_counter()
    h = hash_from_spec(cfg.hash_spec, cfg.n)
    q = distribution_from_spec(cfg.distribution, h.universe)
    v = distribution_from_spec(cfg.access_pattern, h.slots)
    p = slot_probabilities(q, h)
    L = cfg.m / h.slots
    bound = resolve_ast_bound(
        cfg.bound, L, h.slots, math.sqrt(norm_sq(v)), math.sqrt(norm_sq(p))
    )

    def measure(x: KeySequence):
        upper = search_time.search_time_upper(v, count_slots(x, h))
        return upper, search_time.average_search_time(v, x, h), upper > bound.value

    kept = _kept_trials(cfg.trials, cfg.base_seed, record_cap, reservoir_size)
    upper_stats, exact_stats, violations, records = _run_trials(
        q, cfg.m, cfg.trials, cfg.base_seed, measure, kept, "ast_exact"
    )
    aggregates = {
        "trials": cfg.trials,
        "mean": upper_stats.mean,
        "sample_std": upper_stats.sample_std,
        "exact_mean": exact_stats.mean,
        "violations": violations,
        "violation_frequency": violations / cfg.trials,
    }
    return ExperimentReport(
        config=cfg,
        bound={"kind": "search-time", **asdict(bound)},
        aggregates=aggregates,
        records=records,
        duration_seconds=time.perf_counter() - start,
    )


def run_experiment(
    cfg: ExperimentConfig,
    record_cap: int = RECORD_CAP,
    reservoir_size: int = RESERVOIR_SIZE,
) -> ExperimentReport:
    """Dispatch on config kind and honor its output/csv paths."""
    if cfg.kind == "collision":
        report = run_collision_trials(cfg, record_cap, reservoir_size)
    else:
        report = run_ast_trials(cfg, record_cap, reservoir_size)
    if cfg.output:
        report.write_json(cfg.output)
    if cfg.csv_path:
        report.write_csv(cfg.csv_path)
    return report


@dataclass(frozen=True)
class PerturbationCheck:
    """Result of the slot-count stability check for one sequence pair."""

    lhs: int
    rhs: int
    holds: bool


def slot_count_perturbation(x: KeySequence, y: KeySequence, h: HashModel) -> PerturbationCheck:
    """Changing keys moves little mass between slots: compare

        lhs = sum_i |k_i(x) - k_i(y)|   vs   rhs = 2 * #{j : x_j != y_j}.

    ``holds`` (lhs <= rhs) is a theorem; a False anywhere is a bug.
    """
    if len(x) != len(y):
        raise ValueError("sequences must have equal length")
    kx = count_slots(x, h).counts
    ky = count_slots(y, h).counts
    lhs = int(abs(kx - ky).sum())
    rhs = 2 * int((x.keys != y.keys).sum())
    return PerturbationCheck(lhs=lhs, rhs=rhs, holds=lhs <= rhs)


@dataclass(frozen=True)
class UnbiasednessResult:
    """Sample mean of the estimator vs its analytic target ||p||^2."""

    sample_mean: float
    p_norm_sq: float
    z_score: float
    sample_std: float
    trials: int
    exact_match: bool


def unbiasedness_check(
    dist: ProbabilityVector, h: HashModel, m: int, trials: int, base_seed: int
) -> UnbiasednessResult:
    """Monte Carlo check that E[empirical collision probability] = ||p||^2.

    Returns the z-score of the sample mean; with zero sample variance
    (e.g. a point-mass distribution) the z-score is NaN and ``exact_match``
    reports whether the constant value hit the target exactly.
    """
    if m < 2:
        raise ValueError("m must be at least 2")
    if trials < 100:
        raise ValueError("trials must be at least 100")
    p_norm_sq = norm_sq(slot_probabilities(dist, h))
    measure = _collision_measure(h, p_norm_sq, math.inf)
    stats = _run_trials(dist, m, trials, base_seed, measure, (), "rel_error")[0]
    std = stats.sample_std
    return UnbiasednessResult(
        sample_mean=stats.mean,
        p_norm_sq=p_norm_sq,
        z_score=(stats.mean - p_norm_sq) / (std / math.sqrt(trials)) if std else math.nan,
        sample_std=std,
        trials=trials,
        exact_match=std == 0.0 and stats.mean == p_norm_sq,
    )
