"""Tests of the benchmark itself (not part of the repository's tier-1 suite).

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(BENCH))

import run  # noqa: E402
import spans  # noqa: E402
import spec  # noqa: E402
import verify  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")


def _benchmark_json() -> dict:
    return json.loads((BENCH.parent / "BENCHMARK.json").read_text(encoding="utf-8"))


def test_metric_names_match_the_pattern_and_have_units():
    units = {name: unit for name, (unit, _, _) in spec.END_TO_END.items()}
    units.update({name: unit for name, (unit, _) in spec.PER_LAYER.items()})
    assert len(units) == len(spec.END_TO_END) + len(spec.PER_LAYER)
    for name, unit in units.items():
        assert NAME.fullmatch(name), name
        assert UNIT.fullmatch(unit), (name, unit)


def test_benchmark_json_lists_the_same_workloads_and_metrics():
    doc = _benchmark_json()
    assert [w["name"] for w in doc["workloads"]] == list(spec.WORKLOADS)
    assert [w["why"] for w in doc["workloads"]] == [why for why, _, _ in spec.WORKLOADS.values()]
    assert {m["name"]: (m["unit"], m["better"], m["bound"]) for m in doc["end_to_end"]} == (
        spec.END_TO_END
    )
    assert {m["name"]: (m["unit"], m["better"]) for m in doc["per_layer"]} == spec.PER_LAYER


def test_self_time_is_duration_minus_the_union_its_children_cover():
    # root [0, 100] has children [10, 40] and [30, 60] (overlapping) and
    # [90, 120] (running past its parent); [15, 20] is a grandchild.
    tree = [
        ["root", 0, 100, -1],
        ["a", 10, 40, 0],
        ["b", 30, 60, 0],
        ["c", 90, 120, 0],
        ["a.child", 15, 20, 1],
    ]
    assert spans.covered_ns([(10, 40), (30, 60), (90, 120)], 0, 100) == 60
    assert spans.covered_ns([(5, 8), (1, 9)], 0, 100) == 8
    assert spans.self_times(tree) == [40, 25, 30, 30, 5]


def test_layer_figures_from_a_hand_built_run():
    # cli.main -> run_experiment -> run_trials -> sample -> stream, two trials of m=10.
    tree = [
        [spans.CLI_MAIN, 0, 10_000, -1],
        [spans.RUN_EXPERIMENT, 1_000, 9_000, 0],
        [spans.RUN_TRIALS, 1_500, 8_000, 1],
        [spans.SAMPLE, 2_000, 3_000, 2],
        [spans.STREAM, 2_100, 2_500, 3],
        [spans.SAMPLE, 4_000, 5_000, 2],
        [spans.STREAM, 4_100, 4_500, 5],
        [spans.WRITE_CSV, 8_200, 8_700, 1],
    ]
    got = spans.run_metrics(tree, trials=2, m=10)
    assert got["cli.self_ms"] == pytest.approx(2_000e-6)
    assert got["rng.stream_ns_per_draw"] == pytest.approx(800 / 20)
    assert got["probability.sample_ns_per_draw"] == pytest.approx(2_000 / 20)
    assert got["probability.search_ns_per_draw"] == pytest.approx(1_200 / 20)
    # run_experiment: 8000 - (6500 + 500); run_trials: 6500 - 2000.
    assert got["experiments.self_us_per_trial"] == pytest.approx((1_000 + 4_500) * 1e-3 / 2)
    assert got["experiments.report_write_ms"] == pytest.approx(500e-6)
    assert spans.trial_durations_us([0, 3_000, 7_000]) == [3.0, 4.0]


def test_per_layer_reports_every_declared_metric(tmp_path):
    csv_path = tmp_path / "t.csv"
    csv_path.write_text("trial,value,rel_error,violation\n", encoding="utf-8")
    layers = spans.run_metrics([[spans.CLI_MAIN, 0, 1, -1]], trials=1, m=2)
    layers.update(spans.setup_metrics([]))
    calls = [
        {"tag": "untraced", "wall_s": 1.0, "ok": True, "csv": str(csv_path)},
        {"tag": "traced", "wall_s": 1.1, "ok": True, "csv": str(csv_path)},
    ]
    result = {"calls": calls, "layers": layers, "trial_us": [1.0, 2.0, 3.0], "records_kept": 1}
    got = run.per_layer([result])
    assert sorted(got) == sorted(spec.PER_LAYER)
    assert got["trace.overhead_pct"] == pytest.approx(10.0)


@pytest.fixture(scope="module")
def default_seed_call(tmp_path_factory):
    """One real untraced call of mc-uniform-short at the default seed."""
    out = tmp_path_factory.mktemp("call")
    cfg = spec.config_for("mc-uniform-short", spec.DEFAULT_SEED)
    config_path = out / "config.json"
    config_path.write_text(json.dumps(cfg), encoding="utf-8")
    argv = [sys.executable, str(run.CHILD), str(config_path), str(out), "0", "0"]
    proc = subprocess.run(argv, env=run.child_env(), capture_output=True, text=True, check=True)
    (call,) = json.loads(proc.stdout.strip().splitlines()[-1])["calls"]
    return cfg, call


def test_golden_digests_pass_and_a_corrupted_one_raises_error_rate(default_seed_call):
    cfg, call = default_seed_call
    golden = verify.load_golden()["mc-uniform-short"]
    good = run.Checker(cfg, golden, at_default_seed=True)
    assert good.check(dict(call), []) and good.failed == 0

    for key in ("aggregates_sha256", "csv_sha256", "bound_sha256"):
        corrupted = dict(golden)
        corrupted[key] = ("0" if golden[key][0] != "0" else "1") + golden[key][1:]
        checker = run.Checker(cfg, corrupted, at_default_seed=True)
        assert not checker.check(dict(call), [])
        assert checker.failed / checker.attempted == 1.0, key


def test_reference_catches_a_changed_trial(default_seed_call, tmp_path):
    cfg, call = default_seed_call
    ref = verify.Reference(cfg)
    assert verify.reference_problems(ref, call["json"], call["csv"]) == []

    lines = Path(call["csv"]).read_text(encoding="utf-8").splitlines(keepends=True)
    trial, value, rel, violation = lines[5].rstrip("\n").split(",")
    lines[5] = f"{trial},{float(value) * (1 + 2**-50)!r},{rel},{violation}\n"
    changed = tmp_path / "changed.csv"
    changed.write_text("".join(lines), encoding="utf-8")
    problems = verify.reference_problems(ref, call["json"], changed)
    assert problems and problems[0].startswith("trial 4:")


def test_without_sources_the_benchmark_fails_without_a_result(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(BENCH.parent / "BENCHMARK.json", tmp_path)
    argv = [sys.executable, "perfbench/run.py", "--workload", "mc-uniform-short", "--seconds", "1"]
    proc = subprocess.run(argv, cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
