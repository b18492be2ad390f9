"""The benchmark's traced run, on every workload's shape at a few trials.

``perfbench/spans.instrument`` wraps the public functions that
``chainhash experiment`` calls, looked up by name, and a traced repetition
passes only if each per-trial estimate and search-time value that the wraps
see equals the report's record of that trial.  A renamed function, or a
per-trial call that no longer goes through its module attribute, fails
every traced benchmark run; here it fails in a second.  The benchmark's
modules are imported as they are, never edited.
"""

import json
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1] / "perfbench"
sys.path.insert(0, str(BENCH))

import child  # noqa: E402
import spans  # noqa: E402
import spec  # noqa: E402
import verify  # noqa: E402

TRIALS = 20

# The spans each kind of run must record on every trial.
PER_TRIAL = {
    "collision": (spans.SAMPLE, spans.ESTIMATE, spans.REL_ERROR),
    "ast": (spans.SAMPLE, spans.COUNT_SLOTS, spans.DISTINCT, spans.UPPER, spans.EXACT),
}
# Collision runs count a block's slots at once, with no per-trial key sequence,
# and AST runs wrap each sampled row unchecked (KeySequence._trusted); any of
# these spans would mean a silent fall back to the checked or per-trial path.
NEVER = {"collision": (spans.KEYSEQ, spans.COUNT_SLOTS), "ast": (spans.KEYSEQ,)}


@pytest.mark.parametrize("workload", sorted(spec.WORKLOADS))
def test_traced_run_replays_the_report(workload, tmp_path):
    cfg = {**spec.config_for(workload, spec.DEFAULT_SEED), "trials": TRIALS}
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps(cfg))
    rec = spans.Recorder()
    with spans.instrument(rec), rec.span(spans.CLI_MAIN):
        call = child.invoke(str(config_path), tmp_path, "traced")
    assert call["exit"] == 0
    assert child.replay_mismatches(rec, cfg["kind"]) == 0
    assert len(rec.values[spans.RUN_EXPERIMENT][0].records) == TRIALS
    assert len(rec.marks) == TRIALS
    recorded = [name for name, *_ in rec.spans]
    # experiments.self_us_per_trial is the self time of these two spans: a run
    # that bypasses either module attribute would change it silently.
    assert recorded.count(spans.RUN_EXPERIMENT) == 1
    assert recorded.count(spans.RUN_TRIALS) == 1
    for name in PER_TRIAL[cfg["kind"]]:
        assert recorded.count(name) >= (1 if name == spans.SAMPLE else TRIALS), name
    for name in NEVER[cfg["kind"]]:
        assert recorded.count(name) == 0, name
    assert verify.reference_problems(verify.Reference(cfg), call["json"], call["csv"]) == []
