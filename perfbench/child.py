"""One measured repetition of a workload, run in a fresh interpreter.

    python3 perfbench/child.py CONFIG OUTDIR TRACE TRACED_FIRST

Times the public set-up calls for CONFIG (imports excluded), then calls
``chainhash.cli.main(["experiment", ...])`` in-process with stdout
captured.  With TRACE=1 it makes that call twice, once untraced and once
with spans around every public call (TRACED_FIRST=1 puts the traced call
first), and writes the spans to OUTDIR/spans.json.  The last stdout line
is one JSON object with the measurements.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import resource
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
sys.path.insert(0, str(SRC))

import chainhash  # noqa: E402
from chainhash import cli, experiments, hashing, probability, rng, search_time  # noqa: E402

import spans  # noqa: E402

# Trials on which a traced repetition times the layers its run never calls
# (see DESIGN.md), so that every per-layer metric is measured on every workload.
PROBE_TRIALS = 100
UNUSED_BY_COLLISION = (
    "hashing.distinct_counts_us_per_trial",
    "search_time.upper_us_per_trial",
    "search_time.exact_self_us_per_trial",
)
UNUSED_BY_AST = ("estimator.estimate_us_per_trial",)


def timed_setup(config_path: str, rec: spans.Recorder):
    """The public set-up calls of one experiment, each in its own span."""
    with rec.span("setup"):
        with rec.span("setup.config"):
            cfg = experiments.ExperimentConfig.from_file(config_path)
        with rec.span("setup.hash"):
            h = experiments.hash_from_spec(cfg.hash_spec, cfg.n)
        with rec.span("setup.dist"):
            q = experiments.distribution_from_spec(cfg.distribution, h.universe)
            v = None
            if cfg.kind == "ast":
                v = experiments.distribution_from_spec(cfg.access_pattern, h.slots)
        with rec.span("setup.slot_probs"):
            p = hashing.slot_probabilities(q, h)
        with rec.span("bounds.resolve"):
            if cfg.kind == "collision":
                experiments.resolve_collision_bound(cfg.bound, cfg.n, cfg.m)
            else:
                experiments.resolve_ast_bound(
                    cfg.bound,
                    cfg.m / h.slots,
                    h.slots,
                    math.sqrt(probability.norm_sq(v)),
                    math.sqrt(probability.norm_sq(p)),
                )
        with rec.span("setup.cdf"):
            q.cdf
    return cfg, h, q


def invoke(config_path: str, out: Path, tag: str) -> dict:
    """One ``chainhash experiment`` call; returns its exit code and wall time."""
    json_path, csv_path = out / f"{tag}.json", out / f"{tag}.csv"
    argv = ["experiment", "--config", config_path, "--out", str(json_path), "--csv", str(csv_path)]
    with contextlib.redirect_stdout(io.StringIO()):
        start = time.perf_counter()
        code = cli.main(argv)
        wall = time.perf_counter() - start
    return {"tag": tag, "exit": code, "wall_s": wall, "json": str(json_path), "csv": str(csv_path)}


def replay_mismatches(rec: spans.Recorder, kind: str) -> int:
    """Trials whose values seen by the spans differ from the report's records."""
    (report,) = rec.values[spans.RUN_EXPERIMENT]
    if kind == "collision":
        seen = zip(
            (est.empirical_cp for est in rec.values[spans.ESTIMATE]), rec.values[spans.REL_ERROR]
        )
        kept = ((r.value, r.rel_error) for r in report.records)
    else:
        seen = zip(rec.values[spans.UPPER], rec.values[spans.EXACT])
        kept = ((r.value, r.ast_exact) for r in report.records)
    seen, kept = list(seen), list(kept)
    if len(seen) != len(kept):
        return max(len(seen), len(kept))
    return sum(a != b for a, b in zip(seen, kept))


def probe_unused_layers(cfg, h, q) -> dict[str, float]:
    """Time the layers this workload's run never calls, on its first trials' keys.

    Collision runs never call distinct_counts or the search-time layer (timed
    here with a uniform access pattern); AST runs never call the estimator.
    """
    rec = spans.Recorder()
    trials = min(PROBE_TRIALS, cfg.trials)
    if cfg.kind == "collision":
        v = probability.make_uniform(h.slots)
        # The first np.unique call in a process pays a one-off initialisation
        # that the probe trials would not amortise as a whole run does.
        hashing.distinct_counts(probability.KeySequence([0], len(q)), h)
        names = UNUSED_BY_COLLISION
    else:
        p_norm_sq = probability.norm_sq(hashing.slot_probabilities(q, h))
        names = UNUSED_BY_AST
    with spans.instrument(rec):
        for t in range(trials):
            keys = probability.sample_from_cdf(q.cdf, rng.trial_seed(cfg.base_seed, t), cfg.m)
            x = probability.KeySequence(keys, len(q))
            k = hashing.count_slots(x, h)
            if cfg.kind == "collision":
                search_time.search_time_upper(v, k)
                search_time.average_search_time(v, x, h)
            else:
                est = experiments.empirical_collision_probability(k)
                experiments.relative_error(est, p_norm_sq)
    layers = spans.run_metrics(rec.spans, trials, cfg.m)
    return {name: layers[name] for name in names}


def write_spans(path: Path, rec: spans.Recorder) -> None:
    names = sorted({s[0] for s in rec.spans})
    ids = {name: i for i, name in enumerate(names)}
    doc = {
        "format": "span = [name_id, start_ns, end_ns, parent_index]; marks = trial starts",
        "names": names,
        "spans": [[ids[name], start, end, parent] for name, start, end, parent in rec.spans],
        "marks": rec.marks,
    }
    path.write_text(json.dumps(doc, separators=(",", ":")), encoding="utf-8")


def main(argv: list[str]) -> int:
    config_path, out, traced, traced_first = argv[0], Path(argv[1]), argv[2] == "1", argv[3] == "1"
    if not Path(chainhash.__file__).resolve().is_relative_to(SRC):
        print(f"error: chainhash imported from {chainhash.__file__}, not {SRC}", file=sys.stderr)
        return 2
    setup_rec = spans.Recorder()
    cfg, h, q = timed_setup(config_path, setup_rec)
    result = {"trials": cfg.trials, "setup_s": (setup_rec.spans[0][2] - setup_rec.spans[0][1]) * 1e-9}
    if not traced:
        del h, q  # so the set-up arrays do not add to the call's peak RSS
        result["calls"] = [invoke(config_path, out, "untraced")]
        result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        print(json.dumps(result))
        return 0

    rec = spans.Recorder()
    calls = []
    for tag in ("traced", "untraced") if traced_first else ("untraced", "traced"):
        if tag == "untraced":
            calls.append(invoke(config_path, out, tag))
            continue
        with spans.instrument(rec), rec.span(spans.CLI_MAIN):
            calls.append(invoke(config_path, out, tag))
    result["calls"] = calls
    layers = spans.run_metrics(rec.spans, cfg.trials, cfg.m)
    layers.update(spans.setup_metrics(setup_rec.spans))
    layers.update(probe_unused_layers(cfg, h, q))
    result["layers"] = layers
    result["trial_us"] = spans.trial_durations_us(rec.marks)
    result["replay_mismatches"] = replay_mismatches(rec, cfg.kind)
    result["records_kept"] = len(rec.values[spans.RUN_EXPERIMENT][0].records)
    write_spans(out / "spans.json", rec)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
