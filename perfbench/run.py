"""Monte Carlo benchmark of ``chainhash experiment``.

    python3 perfbench/run.py --workload mc-zipf-bigU [--seed 108] [--seconds 38] [--trace 0]

Runs the workload as a closed loop from one process: each repetition is a
fresh interpreter (``child.py``) that times the public set-up calls and
then one in-process ``chainhash experiment`` call; the next repetition
starts when the previous one has ended.  A first, warm-up repetition is
checked but not measured; repetitions then continue until ``--seconds``
have passed.  Every call's outputs are checked (see
``verify.py``); a call that exits non-zero or fails a check counts as
failed.  With ``--trace 1`` each repetition also makes a traced call and
the per-layer metrics are reported instead of the end-to-end ones.

The last stdout line is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  Everything the run wrote,
including the spans and a full result file, is under
``.perfbench_work/<workload>/`` in the checkout.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy

import spec
import verify

ROOT = Path(__file__).resolve().parents[1]
WORK = ROOT / ".perfbench_work"
CHILD = Path(__file__).resolve().parent / "child.py"

MIN_REPETITIONS = 3
CHILD_TIMEOUT_S = 120
THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "BLIS_NUM_THREADS",
)


def _read(path: str) -> str | None:
    try:
        return Path(path).read_text(encoding="ascii").strip()
    except (OSError, UnicodeDecodeError):
        return None


def _cache_bytes(level: int) -> int | None:
    """Size of the unified or data cache of ``level`` on CPU 0, from sysfs."""
    base = Path("/sys/devices/system/cpu/cpu0/cache")
    for index in sorted(base.glob("index*")) if base.is_dir() else ():
        if _read(index / "level") == str(level) and _read(index / "type") in ("Unified", "Data"):
            size = _read(index / "size") or ""
            units = {"K": 1024, "M": 1024**2}
            if size[-1:] in units and size[:-1].isdigit():
                return int(size[:-1]) * units[size[-1]]
    return None


def machine(env: dict[str, str]) -> dict:
    model = None
    for line in (_read("/proc/cpuinfo") or "").splitlines():
        if line.startswith("model name"):
            model = line.split(":", 1)[1].strip()
            break
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": model,
        "l2_bytes": _cache_bytes(2),
        "l3_bytes": _cache_bytes(3),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "thread_vars": {var: env[var] for var in THREAD_VARS},
    }


def working_set(cfg: dict) -> dict:
    """Bytes of the arrays a trial reads, computed from the config."""
    universe = cfg["hash"].get("universe", cfg["n"])
    return {
        "probability.cdf_bytes": 8 * universe,
        "hashing.table_bytes": 8 * universe if cfg["hash"]["mode"] != "identity" else 0,
    }


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    for var in THREAD_VARS:
        env[var] = "1"
    return env


class Checker:
    """Checks every call of one run and counts the failed ones.

    The bound block never depends on the seed, so it must equal the golden
    one at every seed; the aggregates and CSV must equal the golden digests
    at the default seed.  The first call that passes the reference check
    fixes the run's digests, and every later call must reproduce them.
    """

    def __init__(self, cfg: dict, golden: dict, at_default_seed: bool):
        self.reference = verify.Reference(cfg)
        self.golden = golden
        self.at_default_seed = at_default_seed
        self.expected: dict[str, str] | None = None
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def check(self, call: dict, extra: list[str]) -> bool:
        problems = self._problems(call) + extra
        self.attempted += 1
        if problems:
            self.failed += 1
            self.problems.extend(f"{call['tag']} call: {p}" for p in problems)
        return not problems

    def fail(self, count: int, why: str) -> None:
        self.attempted += count
        self.failed += count
        self.problems.append(why)

    def _problems(self, call: dict) -> list[str]:
        if call["exit"] != 0:
            return [f"exit code {call['exit']}"]
        found = verify.digests(call["json"], call["csv"])
        problems = []
        if found["bound_sha256"] != self.golden["bound_sha256"]:
            problems.append("bound block differs from the golden one")
        if self.at_default_seed:
            problems += verify.digest_problems(found, self.golden, "golden")
        if self.expected is None:
            problems += verify.reference_problems(self.reference, call["json"], call["csv"])
            if not problems:
                self.expected = found
        else:
            problems += verify.digest_problems(found, self.expected, "first call's")
        return problems


def repeat(cfg: dict, workload: str, seconds: float, traced: bool, checker: Checker) -> list[dict]:
    out = WORK / workload
    shutil.rmtree(out, ignore_errors=True)
    out.mkdir(parents=True)
    config_path = out / "config.json"
    config_path.write_text(json.dumps(cfg, indent=2), encoding="utf-8")
    env = child_env()

    def repetition(index: int) -> dict:
        rep = out / f"rep{index:03d}"
        rep.mkdir()
        argv = [sys.executable, str(CHILD), str(config_path), str(rep), str(int(traced))]
        argv.append(str(index % 2))
        try:
            proc = subprocess.run(
                argv, env=env, cwd=ROOT, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S
            )
        except subprocess.TimeoutExpired:
            proc = None
        if proc is None or proc.returncode != 0:
            why = "timed out" if proc is None else f"exited {proc.returncode}: {proc.stderr[-2000:]}"
            checker.fail(2 if traced else 1, f"repetition {index} {why}")
            return {"calls": []}
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        for call in result["calls"]:
            extra = []
            if call["tag"] == "traced" and result["replay_mismatches"]:
                extra.append(f"{result['replay_mismatches']} traced trials differ from the records")
            call["ok"] = checker.check(call, extra)
        return result

    # Repetition 0 is a warm-up: it is checked like every other one (its
    # first call also against the reference), but the clock starts after it
    # and it stays out of every median.
    results = [dict(repetition(0), warmup=True)]
    start = time.monotonic()
    while len(results) <= MIN_REPETITIONS or time.monotonic() - start < seconds:
        results.append(repetition(len(results)))
    return results


def _median(values):
    return statistics.median(values) if values else None


def _passed(results: list[dict]) -> list[dict]:
    """Measured (not warm-up) repetitions whose every call passed its checks."""
    return [
        r for r in results if not r.get("warmup") and r["calls"] and all(c["ok"] for c in r["calls"])
    ]


def end_to_end(results: list[dict]) -> dict[str, float]:
    ok = _passed(results)
    return {
        "trials_per_s": _median([r["trials"] / r["calls"][0]["wall_s"] for r in ok]),
        "setup_s": _median([r["setup_s"] for r in ok]),
        "peak_rss_mb": _median([r["peak_rss_mb"] for r in ok]),
    }


def per_layer(results: list[dict]) -> dict[str, float]:
    ok = _passed(results)
    if not ok:
        return {}
    metrics = {name: _median([r["layers"][name] for r in ok]) for name in ok[0]["layers"]}
    trial_us = [d for r in ok for d in r["trial_us"]]
    metrics["experiments.trial_us.p50"] = statistics.median(trial_us)
    metrics["experiments.trial_us.p99"] = statistics.quantiles(trial_us, n=100, method="inclusive")[98]
    metrics["experiments.trial_us.samples"] = len(trial_us)
    metrics["experiments.records_kept"] = ok[0]["records_kept"]
    metrics["experiments.csv_bytes"] = os.path.getsize(ok[0]["calls"][0]["csv"])
    overheads = []
    for r in ok:
        wall = {c["tag"]: c["wall_s"] for c in r["calls"]}
        overheads.append((wall["traced"] / wall["untraced"] - 1.0) * 100.0)
    metrics["trace.overhead_pct"] = statistics.median(overheads)
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(spec.WORKLOADS))
    parser.add_argument("--seed", type=int, default=spec.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=38.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "chainhash" / "__init__.py").is_file():
        print(f"error: no chainhash sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    cfg = spec.config_for(args.workload, args.seed)
    golden = verify.load_golden()[args.workload]
    checker = Checker(cfg, golden, args.seed == spec.DEFAULT_SEED)
    results = repeat(cfg, args.workload, args.seconds, bool(args.trace), checker)
    if args.trace:
        metrics, units = per_layer(results), {k: v[0] for k, v in spec.PER_LAYER.items()}
    else:
        metrics, units = end_to_end(results), {k: v[0] for k, v in spec.END_TO_END.items()}
    if any(metrics.get(name) is None for name in units):
        print(f"error: no call passed its checks: {checker.problems[:5]}", file=sys.stderr)
        return 1

    context = {"machine": machine(child_env()), "working_set_computed": working_set(cfg)}
    error_rate = checker.failed / checker.attempted
    summary = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "repetitions": [{k: v for k, v in r.items() if k != "trial_us"} for r in results],
        "context": context,
        "error_rate": error_rate,
        "problems": checker.problems,
        "metrics": metrics,
    }
    (WORK / args.workload / "result.json").write_text(json.dumps(summary, indent=2), "utf-8")

    print(f"context {json.dumps(context, sort_keys=True)}")
    for problem in checker.problems:
        print(f"problem {problem}")
    for name, unit in units.items():
        print(f"{name} {metrics[name]:.6g} {unit}")
    print(f"error_rate {error_rate:.6g} ratio")
    print(
        json.dumps(
            {
                "correct": checker.failed == 0,
                "attempted": checker.attempted,
                "failed": checker.failed,
                "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
