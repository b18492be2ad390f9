"""Seeded Monte Carlo harness for validating the closed-form bounds.

Every trial is a pure function of (config, trial index): trial t draws its
keys with the stream seed ``base_seed XOR (t * GOLDEN)``, so runs are
reproducible, trials could be executed in any order, and re-running a
single index reproduces its record.  Reports carry the rows of the first
``RECORD_CAP`` trials (records are built from them on first read) plus
streaming aggregates that never depend on the cap.

Collision and AST runs share one run path, ``_run``: set-up, trial loop,
record cap, shared aggregates and report.  Each kind supplies only its
bound, its per-block ``measure`` and its extra aggregates.
"""

from __future__ import annotations

import errno
import json
import math
import os
import sys
import time
from dataclasses import asdict, dataclass
from functools import cached_property
from typing import Any, Mapping

from . import hashing, probability, rng, search_time
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
    _BLOCK_DRAWS,
    KeySequence,
    _check_integer,
    ProbabilityVector,
    guide_table,
    make_point_mass,
    make_restricted_uniform,
    make_uniform,
    make_zipf,
    norm_sq,
    sample_from_cdf,
)

# A run keeps the rows of its first RECORD_CAP trials, which are as fair a
# sample as any, since trials are i.i.d. pure functions of their own seeds
# (aggregates always cover all trials).
RECORD_CAP = 10**6

# Trials are drawn in blocks of B = max(1, _BLOCK_DRAWS // m) with one stream
# and one sampler call per block, which shares the fixed cost of those calls
# (about 25 numpy calls) among the trials.  The rows are the per-trial draws,
# so no output moves.  Sampler time per trial (2-CPU Xeon, numpy 2.4): Zipf
# over 2**20 at m = 6400 took 261 us at B = 1, 194 at B = 5, 189 at B = 10 and
# 201 at B = 20; m = 10**4 over 100 outcomes 120, 92, 87 and 101 us at B = 1,
# 3, 6 and 13.  The ceiling is the cache: see probability._BLOCK_DRAWS.

CSV_HEADER = ("trial", "value", "rel_error", "violation")
_CSV_BLOCK_ROWS = 2**16  # rows per CSV write: all 10**6 rows at once peaked at 197 MiB

# Each bound name of a config kind, with its function and that function's
# parameter names in argument order.  The CLI's `bound` and `ast-bound`
# commands read the same table.
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

# Every spec kind: each name, with its builder and the builder's parameter
# names in argument order.  The caller of _from_spec supplies some of them
# (the size, the slot count, measured norms); every other one is a spec key,
# required unless _SPEC_DEFAULTS holds it.
SPECS = {
    "distribution": {
        "uniform": (make_uniform, ("size",)),
        "zipf": (make_zipf, ("size", "exponent")),
        "restricted": (make_restricted_uniform, ("size", "alpha")),
        "pointmass": (make_point_mass, ("size", "index")),
    },
    "hash": {
        "identity": (HashModel.identity, ("n",)),
        "random-table": (HashModel.random_table, ("universe", "n", "seed")),
        "table-file": (HashModel.from_file, ("path", "n")),
    },
    **BOUNDS,
}
_SPEC_DEFAULTS = {"exponent": 1.0, "index": 0, "seed": 0}


def _check_keys(data: Mapping[str, Any], required, allowed, what: str) -> None:
    """Reject a mapping with a key outside ``allowed`` or without one in ``required``."""
    unknown = set(data) - set(allowed)
    if unknown:
        raise ValueError(f"unknown {what} keys: {sorted(unknown)}")
    missing = set(required) - set(data)
    if missing:
        raise ValueError(f"missing {what} keys: {sorted(missing)}")


def _from_spec(spec: Mapping[str, Any], kind: str, tag: str, what: str, **supplied):
    """Call the ``SPECS[kind]`` builder that the spec names under ``tag``.

    ``supplied`` gives some of its parameters; the spec's keys, with
    ``_SPEC_DEFAULTS`` filled in, give the rest.  A name outside the table,
    a key the name does not take, a missing required key or a value of the
    wrong type raises ValueError naming it.
    """
    table = SPECS[kind]
    name = spec.get(tag)
    if type(name) is not str or name not in table:
        raise ValueError(f"unknown {what} {tag} {name!r}; expected one of {tuple(table)}")
    fn, params = table[name]
    given = {key: value for key, value in spec.items() if key != tag}
    keys = [key for key in params if key not in supplied]
    required = [key for key in keys if key not in _SPEC_DEFAULTS]
    _check_keys(given, required, keys, f"{what} {name!r}")
    fields = {**_SPEC_DEFAULTS, **given}
    for key in keys:
        fields[key] = _SPEC_READERS.get(key, _config_float)(fields[key], key)
    return fn(*[supplied[key] if key in supplied else fields[key] for key in params])


def distribution_from_spec(spec: Mapping[str, Any], size: int) -> ProbabilityVector:
    """Build a named distribution over ``size`` outcomes from a config mapping."""
    return _from_spec(spec, "distribution", "name", "distribution", size=size)


def hash_from_spec(spec: Mapping[str, Any], n: int) -> HashModel:
    """Build a hash model from a config mapping (identity / random / file table)."""
    return _from_spec(spec, "hash", "mode", "hash", n=n)


def _config_int(value: Any, key: str) -> int:
    """An integer config field; bools and fractional numbers are rejected, not truncated."""
    return _check_integer(value, f"config key {key!r}")


def check_seed(seed: int, what: str) -> int:
    """``seed`` if it lies in [0, 2**64); the stream would reduce any other mod 2**64."""
    if not 0 <= seed < 2**64:
        raise ValueError(f"{what} must lie in [0, 2**64), got {seed}")
    return seed


def _config_seed(value: Any, key: str) -> int:
    """A seed config field: an integer in [0, 2**64)."""
    return check_seed(_config_int(value, key), f"config key {key!r}")


def _config_float(value: Any, key: str) -> float:
    """A real config field: an int or a finite float; None, bools and strings are rejected."""
    if type(value) is int and abs(value) <= sys.float_info.max:  # bool is a subclass of int
        value = float(value)
    if type(value) is not float or not math.isfinite(value):
        raise ValueError(f"config key {key!r} must be a finite number, got {value!r}")
    return value


def _config_spec(value: Any, key: str, optional: bool = False) -> dict | None:
    """A nested spec: a JSON object, copied; absent, null or {} is None where ``optional``."""
    if optional and value in (None, {}):
        return None
    if not isinstance(value, dict):
        raise ValueError(f"config key {key!r} must be a JSON object, got {value!r}")
    return dict(value)


def _config_str(value: Any, key: str) -> str:
    """A string config field (open() would take an int as a file descriptor)."""
    if type(value) is not str:
        raise ValueError(f"config key {key!r} must be a string, got {value!r}")
    return value


def _config_path(value: Any, key: str) -> str | None:
    """An optional output path: a nonempty string, or absent or null for none
    (open() would take an int as a file descriptor, and "" names no file)."""
    if value is not None and (type(value) is not str or not value):
        raise ValueError(f"config key {key!r} must be a nonempty string or null, got {value!r}")
    return value


# The reader of each spec key that is not a finite real.
_SPEC_READERS = dict(universe=_config_int, seed=_config_seed, index=_config_int, path=_config_str)

# Each config key, with its ExperimentConfig field and its reader, in the
# order the config reads them and to_dict writes them.  The first eight are required.
_CONFIG_FIELDS = {
    "kind": ("kind", lambda value, key: value),
    "n": ("n", _config_int),
    "m": ("m", _config_int),
    "trials": ("trials", _config_int),
    "base_seed": ("base_seed", _config_seed),
    "distribution": ("distribution", _config_spec),
    "hash": ("hash_spec", _config_spec),
    "bound": ("bound", _config_spec),
    "access_pattern": ("access_pattern", lambda v, key: _config_spec(v, key, optional=True)),
    "output": ("output", _config_path),
    "csv": ("csv_path", _config_path),
}


def _unique_keys(pairs: list[tuple[str, Any]]) -> dict[str, Any]:
    """A JSON object's pairs as a dict; a repeated key, which json would let the
    last value win, raises ValueError naming it."""
    data = {}
    for key, value in pairs:
        if key in data:
            raise ValueError(f"config key {key!r} appears more than once")
        data[key] = value
    return data


@dataclass(frozen=True)
class ExperimentConfig:
    """Full description of one Monte Carlo run (also the JSON config schema).

    However it is built, each field goes through its ``_CONFIG_FIELDS`` reader."""

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
        for key, (field, read) in _CONFIG_FIELDS.items():
            object.__setattr__(self, field, read(getattr(self, field), key))
        if self.kind not in ("collision", "ast"):
            raise ValueError("kind must be 'collision' or 'ast'")
        if self.trials < 1:
            raise ValueError("trials must be at least 1")
        if self.m < 2:
            raise ValueError("m must be at least 2")
        if self.m > MAX_SIZE:
            raise ValueError(f"m must be at most 2**24, the maximum key count, got {self.m}")
        if (self.kind == "ast") != (self.access_pattern is not None):
            need = "need" if self.kind == "ast" else "take no"
            raise ValueError(f"{self.kind} experiments {need} config key 'access_pattern'")

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "ExperimentConfig":
        if not isinstance(data, Mapping):
            raise ValueError(f"config must be a JSON object, got {type(data).__name__}")
        _check_keys(data, list(_CONFIG_FIELDS)[:8], _CONFIG_FIELDS, "config")
        return cls(**{field: data.get(key) for key, (field, _) in _CONFIG_FIELDS.items()})

    @classmethod
    def from_file(cls, path) -> "ExperimentConfig":
        with open(path, "r", encoding="utf-8") as fh:
            return cls.from_dict(json.load(fh, object_pairs_hook=_unique_keys))

    def to_dict(self) -> dict[str, Any]:
        values = {key: getattr(self, field) for key, (field, _) in _CONFIG_FIELDS.items()}
        return {key: dict(v) if isinstance(v, Mapping) else v for key, v in values.items()}


@dataclass(frozen=True, slots=True)
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
    """The kept trials' (value, aux, violation) rows plus aggregates for one run.

    ``aggregates`` is a plain dict recomputable from the full trial stream;
    its canonical serialization (:meth:`aggregates_json`) is byte-identical
    across re-runs of the same config.  Wall-clock duration lives outside it.
    """

    config: ExperimentConfig
    bound: dict[str, Any]
    aggregates: dict[str, Any]
    rows: list[tuple[float, float, bool]]
    duration_seconds: float

    @cached_property
    def records(self) -> tuple[TrialRecord, ...]:
        """The kept trials' records, built on first read."""
        aux = "rel_error" if self.config.kind == "collision" else "ast_exact"
        return tuple(TrialRecord(t, v, bad, **{aux: a}) for t, (v, a, bad) in enumerate(self.rows))

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
        # No field holds a comma, quote or newline: these are csv.writer's bytes.
        with open(path, "w", encoding="utf-8", newline="") as fh:
            fh.write(",".join(CSV_HEADER) + "\n")
            for start in range(0, len(self.rows), _CSV_BLOCK_ROWS):
                block = enumerate(self.rows[start : start + _CSV_BLOCK_ROWS], start)
                if self.config.kind == "collision":
                    fh.write("".join(["%d,%r,%r,%d\n" % (t, *row) for t, row in block]))
                else:
                    fh.write("".join(["%d,%r,,%d\n" % (t, v, bad) for t, (v, _, bad) in block]))


def resolve_collision_bound(spec: Mapping[str, Any], n: int, m: int) -> DeviationBound:
    """Evaluate the configured deviation bound (validates its preconditions)."""
    return _from_spec(spec, "collision", "name", "collision bound", n=n, L=m / n)


def resolve_ast_bound(
    spec: Mapping[str, Any], L: float, n: int, v_norm: float, p_norm: float
) -> search_time.SearchTimeBound:
    """Evaluate the configured search-time bound from measured norms."""
    return _from_spec(
        spec, "ast", "name", "search-time bound", L=L, n=n, v_norm=v_norm, p_norm=p_norm
    )


def _run_trials(cdf, guide, m: int, trials: int, base_seed: int, measure):
    """Draw and measure every trial; returns (value stats, violations, rows).

    Trial t samples m keys from ``cdf`` (through ``guide``, its :func:`guide_table`)
    with the seed ``trial_seed(base_seed, t)``.  Consecutive trials are sampled
    a block at a time (see ``_BLOCK_DRAWS``), one key row per trial, and
    ``measure`` takes the block and yields each row's (value, aux, violation)
    in trial order; ``rows`` lists those of the first ``RECORD_CAP`` trials.
    A kind that aggregates its aux figure does so in its ``measure``.
    """
    block = max(1, _BLOCK_DRAWS // m)
    stats, violations, rows = _Welford(), 0, []
    for start in range(0, trials, block):
        seeds = [rng.trial_seed(base_seed, t) for t in range(start, min(start + block, trials))]
        # `keys` holds each block until the next is drawn: freeing it first churns the heap.
        keys = sample_from_cdf(cdf, seeds, m, guide)
        measured = list(measure(keys))
        for value, _, violation in measured:
            violations += violation
            stats.add(value)
        rows += measured[: max(0, RECORD_CAP - start)]
    return stats, violations, rows


# Every aggregate, in the order the CLI prints them; each kind reports a subset.
_AGGREGATES = "trials mean sample_std exact_mean violations violation_frequency p_norm_sq".split()


def _run(cfg: ExperimentConfig, kind: str, setup) -> ExperimentReport:
    """Run the trials of a ``kind`` config and report them.

    ``setup(h, q)`` returns what belongs to the kind: its bound's label and
    value, its ``measure`` (see :func:`_run_trials`) and a callable that gives
    its extra aggregates once every trial has run.  None of these may hold
    ``q``: the trials read only its cdf, so its weights (8 bytes per key) are
    freed before the guide is built.
    """
    if cfg.kind != kind:
        raise ValueError(f"config kind must be {kind!r}")
    start = time.perf_counter()
    h = hash_from_spec(cfg.hash_spec, cfg.n)
    q = distribution_from_spec(cfg.distribution, h.universe)
    label, bound, measure, extra = setup(h, q)
    cdf = q.cdf
    del q  # frees the weights, so that the guide does not raise set-up's peak
    guide = guide_table(cdf)
    stats, violations, rows = _run_trials(cdf, guide, cfg.m, cfg.trials, cfg.base_seed, measure)
    values = dict(trials=cfg.trials, mean=stats.mean, sample_std=stats.sample_std,
                  violations=violations, violation_frequency=violations / cfg.trials, **extra())
    aggregates = {key: values[key] for key in _AGGREGATES if key in values}
    bound = {"kind": label, **asdict(bound)}
    return ExperimentReport(cfg, bound, aggregates, rows, time.perf_counter() - start)


def run_collision_trials(cfg: ExperimentConfig) -> ExperimentReport:
    """Measure how often the relative error exceeds the configured bound.

    Each trial samples m keys, hashes them, computes the empirical collision
    probability and its relative error against ||p||^2, and flags a violation
    when the error exceeds the bound.  No judgment is applied here — the
    report just states the observed violation frequency.
    """

    def setup(h, q):
        p_norm_sq = norm_sq(slot_probabilities(q, h))
        bound = resolve_collision_bound(cfg.bound, cfg.n, cfg.m)
        # Rows per slot count, so that a count holds at most about _BLOCK_DRAWS slots.
        rows = max(1, _BLOCK_DRAWS // h.slots)

        def measure(keys):
            # The per-row estimator calls stay: a traced benchmark run replays their values.
            for i in range(0, len(keys), rows):
                for k in hashing.block_slot_counts(keys[i : i + rows], h):
                    est = empirical_collision_probability(k)
                    rel = relative_error(est, p_norm_sq)
                    yield est.empirical_cp, rel, rel > bound.error_bound

        return "deviation", bound, measure, lambda: {"p_norm_sq": p_norm_sq}

    return _run(cfg, "collision", setup)


def run_ast_trials(cfg: ExperimentConfig) -> ExperimentReport:
    """Measure how often the search-time proxy exceeds the configured bound.

    Per trial both search-time variants are computed: the multiplicity proxy
    (tested against the bound, one-sided) and the exact distinct-key average
    (recorded for comparison, and averaged as ``exact_mean``).
    """

    def setup(h, q):
        v = distribution_from_spec(cfg.access_pattern, h.slots)
        p = slot_probabilities(q, h)
        norms = math.sqrt(norm_sq(v)), math.sqrt(norm_sq(p))
        bound = resolve_ast_bound(cfg.bound, cfg.m / h.slots, h.slots, *norms)
        exact = _Welford()

        def measure(keys):
            for row in keys:
                x = probability.KeySequence._trusted(row, h.universe)
                upper = search_time.search_time_upper(v, count_slots(x, h))
                ast = search_time.average_search_time(v, x, h)
                exact.add(ast)
                yield upper, ast, upper > bound.value

        return "search-time", bound, measure, lambda: {"exact_mean": exact.mean}

    return _run(cfg, "ast", setup)


def run_experiment(cfg: ExperimentConfig) -> ExperimentReport:
    """Dispatch on config kind and honor its output/csv paths; a path that is a
    directory, or whose directory is missing, or output and csv naming one
    file, fails before the first trial and opens no file."""
    for path in filter(None, (cfg.output, cfg.csv_path)):
        if os.path.isdir(path):
            raise IsADirectoryError(errno.EISDIR, os.strerror(errno.EISDIR), path)
        if not os.path.isdir(os.path.dirname(path) or "."):
            raise FileNotFoundError(errno.ENOENT, os.strerror(errno.ENOENT), path)
    if cfg.output and cfg.csv_path:
        if os.path.realpath(cfg.output) == os.path.realpath(cfg.csv_path):
            raise ValueError(f"config keys 'output' and 'csv' name the same file {cfg.csv_path!r}")
    report = (run_collision_trials if cfg.kind == "collision" else run_ast_trials)(cfg)
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
