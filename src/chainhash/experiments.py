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
import time
from dataclasses import dataclass
from typing import Any, Mapping

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
from .hashing import HashModel, count_slots, slot_probabilities
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

# Stream tag for reservoir-replacement decisions, far outside any trial index.
_RESERVOIR_TAG = 0x7265736572766F69

CSV_HEADER = ("trial", "value", "rel_error", "violation")

DIST_NAMES = ("uniform", "zipf", "restricted", "pointmass")
HASH_MODES = ("identity", "random-table", "table-file")


def distribution_from_spec(spec: Mapping[str, Any], size: int) -> ProbabilityVector:
    """Build a named distribution over ``size`` outcomes from a config mapping."""
    name = spec.get("name")
    if name == "uniform":
        return make_uniform(size)
    if name == "zipf":
        return make_zipf(size, float(spec.get("exponent", 1.0)))
    if name == "restricted":
        return make_restricted_uniform(size, float(spec["alpha"]))
    if name == "pointmass":
        return make_point_mass(size, int(spec.get("index", 0)))
    raise ValueError(f"unknown distribution name {name!r}; expected one of {DIST_NAMES}")


def hash_from_spec(spec: Mapping[str, Any], n: int) -> HashModel:
    """Build a hash model from a config mapping (identity / random / file table)."""
    mode = spec.get("mode")
    if mode == "identity":
        return HashModel.identity(n)
    if mode == "random-table":
        return HashModel.random_table(int(spec["universe"]), n, int(spec.get("seed", 0)))
    if mode == "table-file":
        return HashModel.from_file(spec["path"], n)
    raise ValueError(f"unknown hash mode {mode!r}; expected one of {HASH_MODES}")


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
        if self.kind == "ast" and self.access_pattern is None:
            raise ValueError("ast experiments need an access_pattern spec")

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "ExperimentConfig":
        unknown = set(data) - _CONFIG_KEYS
        if unknown:
            raise ValueError(f"unknown config keys: {sorted(unknown)}")
        missing = {"kind", "n", "m", "trials", "base_seed", "distribution", "hash", "bound"} - set(
            data
        )
        if missing:
            raise ValueError(f"missing config keys: {sorted(missing)}")
        return cls(
            kind=data["kind"],
            n=_config_int(data, "n"),
            m=_config_int(data, "m"),
            trials=_config_int(data, "trials"),
            base_seed=_config_int(data, "base_seed"),
            distribution=dict(data["distribution"]),
            hash_spec=dict(data["hash"]),
            bound=dict(data["bound"]),
            access_pattern=(
                dict(data["access_pattern"]) if data.get("access_pattern") is not None else None
            ),
            output=data.get("output"),
            csv_path=data.get("csv"),
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


class _Reservoir:
    """Classic reservoir sample, driven by its own deterministic stream."""

    __slots__ = ("capacity", "seed", "items", "seen")

    def __init__(self, capacity: int, seed: int):
        self.capacity = capacity
        self.seed = seed
        self.items: list[TrialRecord] = []
        self.seen = 0

    def offer(self, record: TrialRecord) -> None:
        t = self.seen
        self.seen += 1
        if len(self.items) < self.capacity:
            self.items.append(record)
            return
        u = float(rng.stream_doubles(self.seed, 1, offset=t)[0])
        j = int(u * (t + 1))
        if j < self.capacity:
            self.items[j] = record


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
    name = spec.get("name")
    if name == "load-factor":
        return load_factor_bound(float(spec["epsilon"]), m / n)
    if name == "gaussian":
        return gaussian_tail_bound(n, float(spec["epsilon"]), float(spec["delta"]), float(spec["s"]))
    if name == "simplified-gaussian":
        return simplified_gaussian_bound(n, float(spec["epsilon"]), float(spec["delta"]))
    if name == "polynomial":
        return polynomial_tail_bound(n, float(spec["beta"]), float(spec["lambda"]))
    if name == "exponent-form":
        return exponent_form_bound(n, float(spec["beta"]), float(spec["lambda"]))
    raise ValueError(f"unknown collision bound name {name!r}")


def resolve_ast_bound(
    spec: Mapping[str, Any], L: float, n: int, v_norm: float, p_norm: float
) -> search_time.SearchTimeBound:
    """Evaluate the configured search-time bound from measured norms."""
    name = spec.get("name")
    if name == "eps-form":
        return search_time.search_time_bound_eps(L, n, v_norm, p_norm, float(spec["epsilon"]))
    if name == "margin-form":
        return search_time.search_time_bound_margin(L, n, v_norm, p_norm, float(spec["s"]))
    raise ValueError(f"unknown search-time bound name {name!r}")


def _record_sink(trials: int, base_seed: int, record_cap: int, reservoir_size: int):
    if trials <= record_cap:
        records: list[TrialRecord] = []
        return records, records.append
    reservoir = _Reservoir(reservoir_size, rng.trial_seed(base_seed, _RESERVOIR_TAG))
    return reservoir.items, reservoir.offer


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
    p = slot_probabilities(q, h)
    p_norm_sq = norm_sq(p)
    bound = resolve_collision_bound(cfg.bound, cfg.n, cfg.m)

    cdf, guide = q.cdf, q.guide
    records, emit = _record_sink(cfg.trials, cfg.base_seed, record_cap, reservoir_size)
    stats = _Welford()
    violations = 0
    for t in range(cfg.trials):
        keys = sample_from_cdf(cdf, rng.trial_seed(cfg.base_seed, t), cfg.m, guide)
        est = empirical_collision_probability(count_slots(KeySequence(keys, len(q)), h))
        rel = relative_error(est, p_norm_sq)
        violation = rel > bound.error_bound
        violations += violation
        stats.add(est.empirical_cp)
        emit(TrialRecord(trial=t, value=est.empirical_cp, violation=violation, rel_error=rel))
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
        bound={
            "kind": "deviation",
            "error_bound": bound.error_bound,
            "confidence": bound.confidence,
            "vacuous": bound.vacuous,
            "underflow": bound.underflow,
        },
        aggregates=aggregates,
        records=tuple(sorted(records, key=lambda r: r.trial)),
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

    cdf, guide = q.cdf, q.guide
    records, emit = _record_sink(cfg.trials, cfg.base_seed, record_cap, reservoir_size)
    upper_stats = _Welford()
    exact_stats = _Welford()
    violations = 0
    for t in range(cfg.trials):
        keys = sample_from_cdf(cdf, rng.trial_seed(cfg.base_seed, t), cfg.m, guide)
        x = KeySequence(keys, len(q))
        upper = search_time.search_time_upper(v, count_slots(x, h))
        exact = search_time.average_search_time(v, x, h)
        violation = upper > bound.value
        violations += violation
        upper_stats.add(upper)
        exact_stats.add(exact)
        emit(
            TrialRecord(
                trial=t,
                value=upper,
                violation=violation,
                ast_exact=exact,
            )
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
        bound={"kind": "search-time", "value": bound.value, "confidence": bound.confidence},
        aggregates=aggregates,
        records=tuple(sorted(records, key=lambda r: r.trial)),
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
    p = slot_probabilities(dist, h)
    p_norm_sq = norm_sq(p)
    cdf, guide = dist.cdf, dist.guide
    stats = _Welford()
    for t in range(trials):
        keys = sample_from_cdf(cdf, rng.trial_seed(base_seed, t), m, guide)
        est = empirical_collision_probability(count_slots(KeySequence(keys, len(dist)), h))
        stats.add(est.empirical_cp)
    std = stats.sample_std
    if std == 0.0:
        return UnbiasednessResult(
            sample_mean=stats.mean,
            p_norm_sq=p_norm_sq,
            z_score=math.nan,
            sample_std=0.0,
            trials=trials,
            exact_match=stats.mean == p_norm_sq,
        )
    z = (stats.mean - p_norm_sq) / (std / math.sqrt(trials))
    return UnbiasednessResult(
        sample_mean=stats.mean,
        p_norm_sq=p_norm_sq,
        z_score=z,
        sample_std=std,
        trials=trials,
        exact_match=False,
    )
