import csv
import dataclasses
import json
import math
import tracemalloc

import numpy as np
import pytest
from numpy.testing import assert_allclose

from chainhash import experiments, hashing, rng, search_time
from chainhash.estimator import empirical_collision_probability, relative_error
from chainhash.experiments import (
    CSV_HEADER,
    ExperimentConfig,
    PerturbationCheck,
    TrialRecord,
    distribution_from_spec,
    hash_from_spec,
    resolve_ast_bound,
    resolve_collision_bound,
    run_ast_trials,
    run_collision_trials,
    run_experiment,
    slot_count_perturbation,
)
from chainhash.hashing import HashModel, SlotCounts, count_slots, slot_probabilities
from chainhash.probability import (
    KeySequence,
    ProbabilityVector,
    make_uniform,
    norm_sq,
    sample,
    sample_from_cdf,
)
from oracle import unbiasedness_check


def collision_config(**overrides):
    base = {
        "kind": "collision",
        "n": 64,
        "m": 640,
        "trials": 50,
        "base_seed": 123,
        "distribution": {"name": "uniform"},
        "hash": {"mode": "identity"},
        "bound": {"name": "load-factor", "epsilon": 0.33},
    }
    base.update(overrides)
    return ExperimentConfig.from_dict(base)


def ast_config(**overrides):
    base = {
        "kind": "ast",
        "n": 100,
        "m": 2000,
        "trials": 40,
        "base_seed": 9,
        "distribution": {"name": "uniform"},
        "hash": {"mode": "identity"},
        "bound": {"name": "eps-form", "epsilon": 0.15},
        "access_pattern": {"name": "restricted", "alpha": 0.1},
    }
    base.update(overrides)
    return ExperimentConfig.from_dict(base)


class TestConfig:
    def test_round_trip(self):
        cfg = collision_config(output="r.json", csv="r.csv")
        assert ExperimentConfig.from_dict(cfg.to_dict()) == cfg

    def test_unknown_and_missing_keys_rejected(self):
        with pytest.raises(ValueError, match="unknown"):
            ExperimentConfig.from_dict({**collision_config().to_dict(), "bogus": 1})
        with pytest.raises(ValueError, match="missing"):
            ExperimentConfig.from_dict({"kind": "collision"})

    @pytest.mark.parametrize("key", ["n", "m", "trials", "base_seed"])
    @pytest.mark.parametrize("value", [64.7, True, float("nan"), "64", None])
    def test_integer_fields_reject_fractions_bools_and_non_numbers(self, key, value):
        # int() would truncate 64.7 to 64 and read true as 1.
        with pytest.raises(ValueError, match=key):
            collision_config(**{key: value})
        # The constructor and dataclasses.replace read the fields the same way.
        fields = {**vars(collision_config()), key: value}
        with pytest.raises(ValueError, match=f"config key {key!r}"):
            ExperimentConfig(**fields)
        with pytest.raises(ValueError, match=f"config key {key!r}"):
            dataclasses.replace(collision_config(), **{key: value})

    def test_integral_floats_accepted_as_integers(self):
        cfg = collision_config(n=64.0, m=640.0, trials=50.0, base_seed=123.0)
        assert cfg == collision_config()
        assert all(type(v) is int for v in (cfg.n, cfg.m, cfg.trials, cfg.base_seed))
        fields = {**vars(collision_config()), "m": 640.0}
        for built in (ExperimentConfig(**fields), dataclasses.replace(cfg, m=640.0)):
            assert built == collision_config() and type(built.m) is int

    def test_key_count_capped(self):
        assert collision_config(m=2**24).m == 2**24
        with pytest.raises(ValueError, match=r"m must be at most 2\*\*24"):
            collision_config(m=2**24 + 1)
        with pytest.raises(ValueError, match=r"m must be at most 2\*\*24"):
            ast_config(m=10**11)

    def test_validation(self):
        with pytest.raises(ValueError):
            collision_config(trials=0)
        with pytest.raises(ValueError):
            collision_config(m=1)
        with pytest.raises(ValueError):
            ast_config(access_pattern=None)
        with pytest.raises(ValueError, match="access_pattern"):
            ast_config(access_pattern={})
        with pytest.raises(ValueError):
            collision_config(kind="nonsense")

    def test_empty_access_pattern_is_none(self):
        cfg = collision_config(access_pattern={})
        assert cfg.access_pattern is None and cfg.to_dict()["access_pattern"] is None

    @pytest.mark.parametrize(
        "pattern", [{"name": "bogus", "zzz": 1}, {"name": "uniform"}, {"zzz": 1}]
    )
    def test_collision_rejects_an_access_pattern(self, pattern):
        with pytest.raises(ValueError, match="'access_pattern'"):
            collision_config(access_pattern=pattern)
        with pytest.raises(ValueError, match="'access_pattern'"):
            ExperimentConfig(**{**vars(collision_config()), "access_pattern": pattern})
        with pytest.raises(ValueError, match="'access_pattern'"):
            dataclasses.replace(collision_config(), access_pattern=pattern)

    def test_collision_takes_an_absent_or_null_access_pattern(self):
        data = collision_config().to_dict()
        del data["access_pattern"]
        for cfg in (ExperimentConfig.from_dict(data), collision_config(access_pattern=None)):
            assert cfg.access_pattern is None and cfg == collision_config()

    def test_from_file(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(collision_config().to_dict()))
        assert ExperimentConfig.from_file(path) == collision_config()

    def test_spec_factories_reject_unknown_names(self):
        with pytest.raises(ValueError):
            distribution_from_spec({"name": "gauss"}, 8)
        with pytest.raises(ValueError):
            hash_from_spec({"mode": "open-addressing"}, 8)


class TestSpecBoundary:
    """Nested specs are checked where they are built: no key is guessed or truncated."""

    @pytest.mark.parametrize(
        "spec, named",
        [
            ({"mode": "random-table"}, "universe"),
            ({"mode": "random-table", "universe": 1000.7}, "universe"),
            ({"mode": "random-table", "universe": "1000"}, "universe"),
            ({"mode": "random-table", "universe": 1000, "seed": True}, "seed"),
            ({"mode": "random-table", "universe": 1000, "seed": 1.5}, "seed"),
            ({"mode": "random-table", "universe": 1000, "path": "t.txt"}, "path"),
            ({"mode": "identity", "universe": 1000}, "universe"),
            ({"mode": "table-file"}, "path"),
            ({"mode": "table-file", "path": "t.txt", "seed": 1}, "seed"),
        ],
    )
    def test_hash_spec_rejected(self, spec, named):
        with pytest.raises(ValueError, match=repr(named)):
            hash_from_spec(spec, 8)

    @pytest.mark.parametrize(
        "spec, named",
        [
            ({"name": "zipf", "exponnt": 3.0}, "exponnt"),
            ({"name": "uniform", "alpha": 0.1}, "alpha"),
            ({"name": "restricted"}, "alpha"),
            ({"name": "restricted", "alpha": 0.1, "index": 2}, "index"),
            ({"name": "pointmass", "index": 2.5}, "index"),
            ({"name": "pointmass", "index": False}, "index"),
        ],
    )
    def test_distribution_spec_rejected(self, spec, named):
        with pytest.raises(ValueError, match=repr(named)):
            distribution_from_spec(spec, 8)

    @pytest.mark.parametrize(
        "spec, named",
        [
            ({"name": "load-factor"}, "epsilon"),
            ({"name": "load-factor", "epsilon": 0.15, "delta": 0.1}, "delta"),
            ({"name": "gaussian", "epsilon": 0.15, "delta": 0.1}, "s"),
            ({"name": "polynomial", "beta": 1.0, "lam": 1.0}, "lam"),
        ],
    )
    def test_collision_bound_spec_rejected(self, spec, named):
        with pytest.raises(ValueError, match=repr(named)):
            resolve_collision_bound(spec, 64, 6400)

    def test_collision_bound_spec_with_a_power_above_the_double_range(self):
        bound = resolve_collision_bound({"name": "polynomial", "beta": 1, "lambda": 1e10}, 64, 6400)
        assert bound.underflow and bound.confidence == 1.0

    @pytest.mark.parametrize(
        "spec, named",
        [
            ({"name": "eps-form"}, "epsilon"),
            ({"name": "eps-form", "epsilon": 0.15, "s": 2.0}, "s"),
            ({"name": "margin-form"}, "s"),
            ({"name": "margin-form", "epsilon": 0.15}, "epsilon"),
        ],
    )
    def test_ast_bound_spec_rejected(self, spec, named):
        with pytest.raises(ValueError, match=repr(named)):
            resolve_ast_bound(spec, 100.0, 100, 0.3, 0.1)

    @pytest.mark.parametrize("value", [None, True, False, "0.3", float("nan"), float("inf")])
    @pytest.mark.parametrize(
        "build, spec, key",
        [
            (distribution_from_spec, {"name": "zipf"}, "exponent"),
            (distribution_from_spec, {"name": "restricted"}, "alpha"),
            (resolve_collision_bound, {"name": "load-factor"}, "epsilon"),
            (resolve_collision_bound, {"name": "gaussian", "epsilon": 0.15, "s": 1.0}, "delta"),
            (resolve_collision_bound, {"name": "gaussian", "epsilon": 0.15, "delta": 0.1}, "s"),
            (resolve_collision_bound, {"name": "polynomial", "lambda": 1.0}, "beta"),
            (resolve_collision_bound, {"name": "exponent-form", "beta": 1.0}, "lambda"),
            (resolve_ast_bound, {"name": "eps-form"}, "epsilon"),
            (resolve_ast_bound, {"name": "margin-form"}, "s"),
        ],
    )
    def test_real_keys_reject_non_numbers(self, build, spec, key, value):
        # float() would read true as 1.0, parse "0.3" and fail on null with a TypeError.
        args = {
            distribution_from_spec: (8,),
            resolve_collision_bound: (64, 6400),
            resolve_ast_bound: (100.0, 100, 0.3, 0.1),
        }[build]
        with pytest.raises(ValueError, match=repr(key)):
            build({**spec, key: value}, *args)

    def test_integer_real_keys_read_as_floats(self):
        assert np.array_equal(
            distribution_from_spec({"name": "zipf", "exponent": 2}, 8).weights,
            distribution_from_spec({"name": "zipf", "exponent": 2.0}, 8).weights,
        )
        assert resolve_collision_bound(
            {"name": "polynomial", "beta": 1, "lambda": 0}, 64, 6400
        ) == resolve_collision_bound({"name": "polynomial", "beta": 1.0, "lambda": 0.0}, 64, 6400)

    @pytest.mark.parametrize("path", [5, None, 1.5, True, ["t.txt"]])
    def test_table_file_path_must_be_a_string(self, path):
        # open(5) would read from file descriptor 5.
        with pytest.raises(ValueError, match="'path'"):
            hash_from_spec({"mode": "table-file", "path": path}, 8)

    def test_integral_floats_accepted_as_integers(self):
        a = hash_from_spec({"mode": "random-table", "universe": 1000.0, "seed": 3.0}, 8)
        b = hash_from_spec({"mode": "random-table", "universe": 1000, "seed": 3}, 8)
        assert a.universe == 1000 and np.array_equal(a.table, b.table)
        q = distribution_from_spec({"name": "pointmass", "index": 2.0}, 8)
        assert q.weights[2] == 1.0

    def test_optional_keys_keep_their_defaults(self):
        h = hash_from_spec({"mode": "random-table", "universe": 100}, 8)
        assert np.array_equal(h.table, HashModel.random_table(100, 8, 0).table)
        assert np.array_equal(
            distribution_from_spec({"name": "zipf"}, 8).weights,
            distribution_from_spec({"name": "zipf", "exponent": 1.0}, 8).weights,
        )
        assert distribution_from_spec({"name": "pointmass"}, 8).weights[0] == 1.0


# Each spec kind: the key that names its entry, the arguments its builder
# supplies itself, and the builder.
SPEC_BUILDERS = {
    "distribution": ("name", {"size"}, lambda spec: distribution_from_spec(spec, 64)),
    "hash": ("mode", {"n"}, lambda spec: hash_from_spec(spec, 64)),
    "collision": ("name", {"n", "L"}, lambda spec: resolve_collision_bound(spec, 64, 6400)),
    "ast": (
        "name",
        {"L", "n", "v_norm", "p_norm"},
        lambda spec: resolve_ast_bound(spec, 100.0, 100, 0.3, 0.1),
    ),
}


@pytest.fixture
def spec_values(tmp_path):
    """A valid value for every spec key (a 64-slot table file for ``path``)."""
    path = tmp_path / "table.txt"
    path.write_text("".join(f"{i % 64}\n" for i in range(256)))
    return {
        "exponent": 1.5, "alpha": 0.5, "index": 3, "universe": 256, "seed": 4,
        "path": str(path), "epsilon": 0.15, "delta": 0.5, "s": 2.0, "beta": 1.0, "lambda": 1.0,
    }


class TestSpecTable:
    """Every entry of ``experiments.SPECS`` checks its keys by name."""

    ENTRIES = [(kind, name) for kind, table in experiments.SPECS.items() for name in table]

    @staticmethod
    def required_spec(kind, name, values):
        tag, supplied, _ = SPEC_BUILDERS[kind]
        params = experiments.SPECS[kind][name][1]
        required = [
            key for key in params if key not in supplied and key not in experiments._SPEC_DEFAULTS
        ]
        return tag, {key: values[key] for key in required}

    @pytest.mark.parametrize("kind, name", ENTRIES)
    def test_required_keys_alone_build(self, kind, name, spec_values):
        tag, required = self.required_spec(kind, name, spec_values)
        assert SPEC_BUILDERS[kind][2]({tag: name, **required}) is not None

    @pytest.mark.parametrize("kind, name", ENTRIES)
    def test_unknown_key_rejected_by_name(self, kind, name, spec_values):
        tag, required = self.required_spec(kind, name, spec_values)
        with pytest.raises(ValueError, match="unknown .*'bogus'"):
            SPEC_BUILDERS[kind][2]({tag: name, **required, "bogus": 1.0})

    @pytest.mark.parametrize("kind, name", ENTRIES)
    def test_missing_key_rejected_by_name(self, kind, name, spec_values):
        tag, required = self.required_spec(kind, name, spec_values)
        for key in required:
            spec = {tag: name, **{k: v for k, v in required.items() if k != key}}
            with pytest.raises(ValueError, match=f"missing .*{key!r}"):
                SPEC_BUILDERS[kind][2](spec)


class TestCollisionTrials:
    def test_point_mass_is_exact_every_trial(self):
        report = run_collision_trials(
            collision_config(distribution={"name": "pointmass"}, trials=20)
        )
        assert report.aggregates["violations"] == 0
        assert report.aggregates["violation_frequency"] == 0.0
        for rec in report.records:
            assert rec.value == 1.0 and rec.rel_error == 0.0

    def test_single_trial_report(self):
        report = run_collision_trials(collision_config(trials=1))
        assert len(report.records) == 1
        assert report.aggregates["trials"] == 1

    def test_trial_records_reproducible_in_isolation(self):
        cfg = collision_config()
        report = run_collision_trials(cfg)
        # Re-derive trial 13 from scratch using only (config, t).
        h = HashModel.identity(cfg.n)
        q = make_uniform(cfg.n)
        keys = sample_from_cdf(q.cdf, rng.trial_seed(cfg.base_seed, 13), cfg.m)
        est = empirical_collision_probability(count_slots(KeySequence(keys, cfg.n), h))
        rec = report.records[13]
        assert rec.trial == 13
        assert rec.value == est.empirical_cp
        assert rec.rel_error == relative_error(est, norm_sq(q))

    def test_violation_flags_rederivable(self):
        report = run_collision_trials(collision_config(bound={"name": "load-factor", "epsilon": 0.32}))
        ceiling = report.bound["error_bound"]
        for rec in report.records:
            assert rec.violation == (rec.rel_error > ceiling)
        assert report.aggregates["violations"] == sum(r.violation for r in report.records)

    def test_aggregates_recomputable_from_records(self):
        import statistics

        report = run_collision_trials(collision_config())
        values = [rec.value for rec in report.records]
        assert_allclose(report.aggregates["mean"], statistics.fmean(values), rtol=1e-12)
        assert_allclose(report.aggregates["sample_std"], statistics.stdev(values), rtol=1e-9)

    def test_determinism_byte_identical(self):
        cfg = collision_config()
        a = run_collision_trials(cfg)
        b = run_collision_trials(cfg)
        assert a.aggregates_json() == b.aggregates_json()
        assert a.records == b.records

    def test_bound_preconditions_fail_before_trials(self):
        with pytest.raises(ValueError):
            run_collision_trials(collision_config(bound={"name": "load-factor", "epsilon": 0.05}))

    def test_runs_count_each_block_once_and_check_no_count(self, monkeypatch):
        # Sampler blocks of 8 trials over 21 trials (the last holds 5), and a row
        # cap of 320 // 128 = 2 that splits each into count blocks of 2 (the last of 1).
        monkeypatch.setattr(experiments, "_BLOCK_DRAWS", 8 * 40)
        inits, blocks = [], []
        init, block_slot_counts = SlotCounts.__init__, hashing.block_slot_counts

        def spy_init(self, counts):
            inits.append(counts)
            init(self, counts)

        def spy_blocks(keys, h):
            blocks.append(keys.shape)
            return block_slot_counts(keys, h)

        monkeypatch.setattr(SlotCounts, "__init__", spy_init)
        monkeypatch.setattr(hashing, "block_slot_counts", spy_blocks)
        bound = {"name": "polynomial", "beta": 1.0, "lambda": 1.0}
        cfg = collision_config(n=128, m=40, trials=21, bound=bound)
        report = run_collision_trials(cfg)
        # AST runs through the key histogram (U <= 8m) and through np.unique and a table.
        run_ast_trials(ast_config(trials=5))
        run_ast_trials(ast_config(trials=5, hash={"mode": "random-table", "universe": 50000}))
        assert inits == []
        assert blocks == [(2, 40)] * 10 + [(1, 40)]
        monkeypatch.undo()
        q, h = make_uniform(cfg.n), HashModel.identity(cfg.n)
        for t in (0, 1, 2, 7, 8, 15, 16, 19, 20):
            keys = sample_from_cdf(q.cdf, rng.trial_seed(cfg.base_seed, t), cfg.m)
            est = empirical_collision_probability(count_slots(KeySequence(keys, cfg.n), h))
            assert report.records[t].value == est.empirical_cp

    def test_kind_mismatch(self):
        with pytest.raises(ValueError):
            run_collision_trials(ast_config())


class TestAstTrials:
    def test_uniform_patterns_pin_the_proxy_to_the_load(self):
        cfg = ast_config(access_pattern={"name": "uniform"}, m=3000, n=100)
        report = run_ast_trials(cfg)
        for rec in report.records:
            assert_allclose(rec.value, 30.0, rtol=1e-12)
        assert report.aggregates["violations"] == 0

    def test_exact_below_proxy_every_trial(self):
        report = run_ast_trials(ast_config())
        for rec in report.records:
            assert rec.ast_exact <= rec.value + 1e-12
        assert report.aggregates["exact_mean"] <= report.aggregates["mean"] + 1e-12

    def test_determinism(self):
        a = run_ast_trials(ast_config())
        b = run_ast_trials(ast_config())
        assert a.aggregates_json() == b.aggregates_json()


class TestReportOutput:
    def test_json_layout(self, tmp_path):
        path = tmp_path / "report.json"
        cfg = collision_config(output=str(path))
        report = run_experiment(cfg)
        data = json.loads(path.read_text())
        assert set(data) == {"config", "bound", "aggregates", "duration_seconds"}
        assert data["config"] == cfg.to_dict()
        assert data["aggregates"] == json.loads(report.aggregates_json())
        assert data["bound"]["error_bound"] == report.bound["error_bound"]

    def test_csv_layout(self, tmp_path):
        path = tmp_path / "trials.csv"
        report = run_experiment(collision_config(csv=str(path), trials=10))
        with open(path, newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["trial", "value", "rel_error", "violation"]
        assert len(rows) == 11
        assert [int(r[0]) for r in rows[1:]] == list(range(10))
        for row, rec in zip(rows[1:], report.records):
            assert float(row[1]) == rec.value
            assert float(row[2]) == rec.rel_error
            assert row[3] in ("0", "1")

    def test_csv_ast_leaves_rel_error_blank(self, tmp_path):
        path = tmp_path / "ast.csv"
        run_experiment(ast_config(csv=str(path), trials=5))
        with open(path, newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["trial", "value", "rel_error", "violation"]
        assert all(row[2] == "" for row in rows[1:])


def eager_records(cfg, kept):
    """The first ``kept`` records as built one trial at a time, from (config, t) alone."""
    h = hash_from_spec(cfg.hash_spec, cfg.n)
    q = distribution_from_spec(cfg.distribution, h.universe)
    if cfg.kind == "collision":
        p_norm_sq = norm_sq(slot_probabilities(q, h))
        ceiling = resolve_collision_bound(cfg.bound, cfg.n, cfg.m).error_bound
    else:
        v = distribution_from_spec(cfg.access_pattern, h.slots)
        p_norm = math.sqrt(norm_sq(slot_probabilities(q, h)))
        bound = resolve_ast_bound(cfg.bound, cfg.m / h.slots, h.slots, math.sqrt(norm_sq(v)), p_norm)
    records = []
    for t in range(kept):
        x = KeySequence(sample_from_cdf(q.cdf, rng.trial_seed(cfg.base_seed, t), cfg.m), len(q))
        if cfg.kind == "collision":
            est = empirical_collision_probability(count_slots(x, h))
            rel = relative_error(est, p_norm_sq)
            records.append(TrialRecord(t, est.empirical_cp, rel > ceiling, rel_error=rel))
        else:
            upper = search_time.search_time_upper(v, count_slots(x, h))
            exact = search_time.average_search_time(v, x, h)
            records.append(TrialRecord(t, upper, upper > bound.value, ast_exact=exact))
    return tuple(records)


def per_record_csv(records):
    """The CSV as written one record at a time with an f-string."""
    lines = [",".join(CSV_HEADER) + "\n"]
    for rec in records:
        rel = "" if rec.rel_error is None else repr(rec.rel_error)
        lines.append(f"{rec.trial},{rec.value!r},{rel},{rec.violation:d}\n")
    return "".join(lines).encode()


def csv_write_peak(report, path):
    tracemalloc.start()
    try:
        report.write_csv(path)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("make", [collision_config, ast_config])
def test_csv_write_holds_one_block_of_lines(make, monkeypatch, tmp_path):
    # write_csv joins and writes _CSV_BLOCK_ROWS rows at a time, so 32 blocks
    # peak about as one does.  Blocks of 2**8 rows keep this quick under
    # tracemalloc: collision runs peaked at 39 KB for one block and 40 KB for 32,
    # AST runs at 31 and 38 KB, where one string of all 2**13 rows took 1.4 MB
    # and 1.0 MB.
    monkeypatch.setattr(experiments, "_CSV_BLOCK_ROWS", 2**8, raising=False)
    rows = [(t / 3, t / 7, t % 5 == 0) for t in range(2**13)]
    cfg, path = make(), tmp_path / "trials.csv"
    block_peak = csv_write_peak(experiments.ExperimentReport(cfg, {}, {}, rows[: 2**8], 0.0), path)
    report = experiments.ExperimentReport(cfg, {}, {}, rows, 0.0)
    peak = csv_write_peak(report, path)
    assert path.read_bytes() == per_record_csv(report.records)
    assert peak < 1.5 * block_peak, (peak, block_peak)


# name -> (config, record cap)
LAZY_RUNS = {
    "collision": (collision_config(trials=50), 10**6),
    "ast": (ast_config(trials=41), 10**6),
    # Blocks of 102 trials at m = 640: the kept trials end inside the second block.
    "capped": (collision_config(trials=300), 130),
}


class TestLazyRecords:
    """Reports keep each kept trial's row and build its record only when read."""

    @pytest.fixture(params=sorted(LAZY_RUNS))
    def run(self, request, monkeypatch, tmp_path):
        cfg, cap = LAZY_RUNS[request.param]
        monkeypatch.setattr(experiments, "RECORD_CAP", cap)
        path = tmp_path / "trials.csv"
        report = run_experiment(dataclasses.replace(cfg, csv_path=str(path)))
        return report, eager_records(cfg, min(cfg.trials, cap)), path.read_bytes()

    def test_a_run_writing_its_outputs_builds_no_record(self, monkeypatch, tmp_path):
        built = []

        def spy(*args, **kwargs):
            built.append(args[0])
            return TrialRecord(*args, **kwargs)

        monkeypatch.setattr(experiments, "TrialRecord", spy)
        cfg = collision_config(output=str(tmp_path / "r.json"), csv=str(tmp_path / "r.csv"))
        report = run_experiment(cfg)
        assert built == [] and (tmp_path / "r.json").exists() and (tmp_path / "r.csv").exists()
        assert [rec.trial for rec in report.records] == built == list(range(cfg.trials))

    def test_records_are_built_once(self, run):
        report, _, _ = run
        assert report.records is report.records

    def test_records_equal_the_eagerly_built_ones(self, run):
        report, eager, _ = run
        assert report.records == eager
        assert repr(report.records) == repr(eager)

    def test_csv_equals_the_per_record_output(self, run):
        _, eager, csv_bytes = run
        assert csv_bytes == per_record_csv(eager)

    def test_rows_hold_python_scalars(self, run):
        # A numpy scalar's repr would change the CSV bytes.
        report, eager, _ = run
        assert len(report.rows) == len(eager)
        for value, aux, violation in report.rows:
            assert (type(value), type(aux), type(violation)) == (float, float, bool)

    def test_reading_records_keeps_the_peak_below_eager_records(self):
        # 2 * 10**4 trials of the mc-uniform-short shape, then one read of the
        # records.  Eager frozen records (with a __dict__ each) peaked at 6.05 MiB.
        cfg = collision_config(m=1024, trials=2 * 10**4, base_seed=108)
        tracemalloc.start()
        try:
            report = run_collision_trials(cfg)
            assert len(report.records) == cfg.trials
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 5.5 * 2**20, peak


@pytest.mark.parametrize("make, trials", [(collision_config, 10), (ast_config, 4)])
def test_big_universe_run_peaks_at_three_universe_arrays(make, trials):
    # Zipf keys over U = 2**20 through a random table: the table, the key
    # weights and their cdf take 8 MiB each, and set-up holds all three.  The
    # trials read only the table, the cdf and its 4 MiB guide, so the weights
    # must go before the guide is built; kept alive, they lift the peak to
    # about 30 MiB.
    cfg = make(n=64, m=6400, trials=trials, distribution={"name": "zipf", "exponent": 1.0},
               hash={"mode": "random-table", "universe": 2**20, "seed": 108})
    tracemalloc.start()
    try:
        run_experiment(cfg)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 25 * 2**20, peak


class TestRecordCap:
    """Runs past the record cap keep the records of their first trials."""

    def test_small_cap_keeps_deterministic_sample(self, monkeypatch):
        cfg = collision_config(trials=300)
        monkeypatch.setattr("chainhash.experiments.RECORD_CAP", 20)
        a = run_collision_trials(cfg)
        b = run_collision_trials(cfg)
        assert len(a.records) == 20
        assert a.records == b.records
        trials_kept = [rec.trial for rec in a.records]
        assert trials_kept == sorted(trials_kept)
        assert all(0 <= t < 300 for t in trials_kept)

    def test_aggregates_cover_all_trials_regardless_of_cap(self, monkeypatch):
        cfg = collision_config(trials=300)
        full = run_collision_trials(cfg)
        monkeypatch.setattr("chainhash.experiments.RECORD_CAP", 20)
        capped = run_collision_trials(cfg)
        assert capped.aggregates_json() == full.aggregates_json()

    # (trials, record cap)
    @pytest.mark.parametrize(
        "trials, cap",
        [(120, 30), (300, 20), (150, 150), (150, 500), (61, 1), (40, 17), (40, 0), (1, 1)],
    )
    @pytest.mark.parametrize("make", [collision_config, ast_config], ids=["collision", "ast"])
    def test_capped_report_keeps_the_first_trials(self, monkeypatch, make, trials, cap):
        cfg = make(trials=trials)
        full = run_experiment(cfg)
        monkeypatch.setattr("chainhash.experiments.RECORD_CAP", cap)
        capped = run_experiment(cfg)
        assert capped.records == full.records[:cap]
        assert capped.aggregates_json() == full.aggregates_json()


class TestPerturbation:
    def test_equal_sequences(self):
        h = HashModel.identity(8)
        x = KeySequence([1, 2, 3], 8)
        assert slot_count_perturbation(x, x, h) == PerturbationCheck(0, 0, True)

    def test_single_difference_to_another_slot(self):
        h = HashModel.identity(8)
        x = KeySequence([1, 2, 3], 8)
        y = KeySequence([1, 2, 4], 8)
        assert slot_count_perturbation(x, y, h) == PerturbationCheck(2, 2, True)

    def test_single_difference_same_slot(self):
        # Different keys, same slot: counts unchanged, slack in the inequality.
        h = HashModel.from_table([0, 0, 1, 1], 2)
        x = KeySequence([0, 2], 4)
        y = KeySequence([1, 2], 4)
        assert slot_count_perturbation(x, y, h) == PerturbationCheck(0, 2, True)

    def test_length_mismatch(self):
        h = HashModel.identity(8)
        with pytest.raises(ValueError):
            slot_count_perturbation(KeySequence([1], 8), KeySequence([1, 2], 8), h)

    def test_holds_on_random_pairs(self):
        gen = np.random.default_rng(55)
        h = HashModel.random_table(64, 16, 8)
        q = make_uniform(64)
        for t in range(500):
            m = int(gen.integers(0, 60))
            x = sample(q, int(gen.integers(0, 2**32)), m)
            y_keys = x.keys.copy()
            d = int(gen.integers(0, m + 1))
            if d:
                y_keys[:d] = sample(q, int(gen.integers(0, 2**32)), d).keys
            check = slot_count_perturbation(x, KeySequence(y_keys, 64), h)
            assert check.holds


class TestUnbiasedness:
    def test_point_mass_matches_exactly(self):
        res = unbiasedness_check(
            distribution_from_spec({"name": "pointmass"}, 16),
            HashModel.identity(16),
            m=10,
            trials=200,
            base_seed=4,
        )
        assert res.exact_match and math.isnan(res.z_score)
        assert res.sample_mean == res.p_norm_sq == 1.0

    def test_uniform_mean_within_tolerance(self):
        res = unbiasedness_check(
            make_uniform(64), HashModel.identity(64), m=1024, trials=2000, base_seed=11
        )
        assert abs(res.z_score) <= 4.0
        assert not res.exact_match

    def test_two_slot_distribution(self):
        # ||p||^2 = 0.81 + 0.01 = 0.82 analytically.
        q = ProbabilityVector([0.9, 0.1])
        res = unbiasedness_check(q, HashModel.identity(2), m=100, trials=5000, base_seed=21)
        assert_allclose(res.p_norm_sq, 0.82, rtol=1e-12)
        assert abs(res.sample_mean - 0.82) <= 3.0 * res.sample_std / math.sqrt(res.trials)

    def test_preconditions(self):
        with pytest.raises(ValueError):
            unbiasedness_check(make_uniform(4), HashModel.identity(4), m=1, trials=200, base_seed=0)
        with pytest.raises(ValueError):
            unbiasedness_check(make_uniform(4), HashModel.identity(4), m=10, trials=99, base_seed=0)
