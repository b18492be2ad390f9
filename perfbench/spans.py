"""Spans around calls into chainhash's public functions, and their arithmetic.

Tracing lives in the benchmark only: :func:`instrument` swaps the public
functions that ``chainhash experiment`` calls (looked up through their
module at call time) for wrappers that record a span per call, and puts the
originals back afterwards.  Nothing in ``src/`` is edited or imported
differently.  A span is ``[name, start_ns, end_ns, parent_index]``; the
parent is the span that was open when the call began (-1 for a root).
"""

from __future__ import annotations

import time
from contextlib import contextmanager

# Span names recorded inside one traced ``chainhash experiment`` call.
RUN_EXPERIMENT = "experiments.run_experiment"
RUN_TRIALS = "experiments.run_trials"
WRITE_JSON = "experiments.write_json"
WRITE_CSV = "experiments.write_csv"
STREAM = "rng.stream_doubles"
SAMPLE = "probability.sample_from_cdf"
KEYSEQ = "probability.KeySequence"
COUNT_SLOTS = "hashing.count_slots"
DISTINCT = "hashing.distinct_counts"
ESTIMATE = "estimator.empirical_collision_probability"
REL_ERROR = "estimator.relative_error"
UPPER = "search_time.search_time_upper"
EXACT = "search_time.average_search_time"
CLI_MAIN = "cli.main"

# Return values kept per call, so a traced run's per-trial values can be
# compared with the records of the report it returns.
CAPTURED = (RUN_EXPERIMENT, ESTIMATE, REL_ERROR, UPPER, EXACT)


class Recorder:
    """In-memory span list plus trial-start marks, written out at the end."""

    def __init__(self):
        self.spans: list[list] = []
        self.marks: list[int] = []
        self.values: dict[str, list] = {name: [] for name in CAPTURED}
        self._stack = [-1]

    @contextmanager
    def span(self, name: str):
        rec = [name, time.perf_counter_ns(), 0, self._stack[-1]]
        self._stack.append(len(self.spans))
        self.spans.append(rec)
        try:
            yield
        finally:
            rec[2] = time.perf_counter_ns()
            self._stack.pop()

    def wrap(self, name: str, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter_ns
        keep = self.values.get(name)

        def traced(*args, **kwargs):
            rec = [name, clock(), 0, stack[-1]]
            stack.append(len(spans))
            spans.append(rec)
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[2] = clock()
                stack.pop()
            if keep is not None:
                keep.append(result)
            return result

        return traced

    def mark(self, fn):
        marks, clock = self.marks, time.perf_counter_ns

        def marked(*args, **kwargs):
            marks.append(clock())
            return fn(*args, **kwargs)

        return marked


@contextmanager
def instrument(recorder: Recorder):
    """Record spans around every public call one experiment run makes.

    ``rng.trial_seed`` is called once at the start of every trial, so it is
    recorded as a trial-start mark rather than a span.
    """
    from chainhash import experiments, probability, rng, search_time

    points = [
        (experiments, "run_experiment", RUN_EXPERIMENT),
        (experiments, "run_collision_trials", RUN_TRIALS),
        (experiments, "run_ast_trials", RUN_TRIALS),
        (experiments.ExperimentReport, "write_json", WRITE_JSON),
        (experiments.ExperimentReport, "write_csv", WRITE_CSV),
        (experiments, "hash_from_spec", "setup.hash"),
        (experiments, "distribution_from_spec", "setup.dist"),
        (experiments, "slot_probabilities", "setup.slot_probs"),
        (experiments, "resolve_collision_bound", "bounds.resolve"),
        (experiments, "resolve_ast_bound", "bounds.resolve"),
        (experiments, "sample_from_cdf", SAMPLE),
        (rng, "stream_doubles", STREAM),
        (experiments, "KeySequence", KEYSEQ),
        (experiments, "count_slots", COUNT_SLOTS),
        (experiments, "empirical_collision_probability", ESTIMATE),
        (experiments, "relative_error", REL_ERROR),
        (search_time, "search_time_upper", UPPER),
        (search_time, "average_search_time", EXACT),
        (search_time, "distinct_counts", DISTINCT),
    ]
    saved = [(owner, attr, getattr(owner, attr)) for owner, attr, _ in points]
    saved.append((rng, "trial_seed", rng.trial_seed))
    cdf = probability.ProbabilityVector.cdf
    saved.append((probability.ProbabilityVector, "cdf", cdf))
    try:
        for owner, attr, name in points:
            setattr(owner, attr, recorder.wrap(name, getattr(owner, attr)))
        rng.trial_seed = recorder.mark(rng.trial_seed)
        probability.ProbabilityVector.cdf = property(recorder.wrap("setup.cdf", cdf.fget))
        yield recorder
    finally:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)


def covered_ns(intervals, lo: int, hi: int) -> int:
    """Length of the part of [lo, hi] that the union of ``intervals`` covers."""
    total = 0
    reached = lo
    for start, end in sorted(intervals):
        start = max(start, reached)
        end = min(end, hi)
        if end > start:
            total += end - start
            reached = end
    return total


def self_times(spans) -> list[int]:
    """Each span's duration minus the part of it that its children cover."""
    children: dict[int, list] = {}
    for name, start, end, parent in spans:
        children.setdefault(parent, []).append((start, end))
    return [
        (end - start) - covered_ns(children.get(i, ()), start, end)
        for i, (name, start, end, parent) in enumerate(spans)
    ]


def totals(spans) -> tuple[dict[str, int], dict[str, int]]:
    """Summed duration and summed self time per span name."""
    total: dict[str, int] = {}
    own: dict[str, int] = {}
    for (name, start, end, _), self_ns in zip(spans, self_times(spans)):
        total[name] = total.get(name, 0) + (end - start)
        own[name] = own.get(name, 0) + self_ns
    return total, own


def run_metrics(spans, trials: int, m: int) -> dict[str, float]:
    """Per-layer figures of one traced experiment call (root span ``cli.main``)."""
    total, own = totals(spans)
    draws = trials * m
    per_trial_us = 1e-3 / trials
    return {
        "rng.stream_ns_per_draw": total.get(STREAM, 0) / draws,
        "probability.sample_ns_per_draw": total.get(SAMPLE, 0) / draws,
        "probability.search_ns_per_draw": own.get(SAMPLE, 0) / draws,
        "probability.keyseq_us_per_trial": total.get(KEYSEQ, 0) * per_trial_us,
        "hashing.count_slots_us_per_trial": total.get(COUNT_SLOTS, 0) * per_trial_us,
        "hashing.distinct_counts_us_per_trial": total.get(DISTINCT, 0) * per_trial_us,
        "estimator.estimate_us_per_trial": (total.get(ESTIMATE, 0) + total.get(REL_ERROR, 0))
        * per_trial_us,
        "search_time.upper_us_per_trial": total.get(UPPER, 0) * per_trial_us,
        "search_time.exact_self_us_per_trial": own.get(EXACT, 0) * per_trial_us,
        "experiments.self_us_per_trial": (own.get(RUN_EXPERIMENT, 0) + own.get(RUN_TRIALS, 0))
        * per_trial_us,
        "experiments.report_write_ms": (total.get(WRITE_JSON, 0) + total.get(WRITE_CSV, 0)) * 1e-6,
        "cli.self_ms": own.get(CLI_MAIN, 0) * 1e-6,
    }


def setup_metrics(spans) -> dict[str, float]:
    """Per-call set-up figures from the benchmark's own set-up spans."""
    total, _ = totals(spans)
    return {
        "bounds.resolve_us": total.get("bounds.resolve", 0) * 1e-3,
        "setup.hash_ms": total.get("setup.hash", 0) * 1e-6,
        "setup.dist_ms": total.get("setup.dist", 0) * 1e-6,
        "setup.slot_probs_ms": total.get("setup.slot_probs", 0) * 1e-6,
        "setup.cdf_ms": total.get("setup.cdf", 0) * 1e-6,
    }


def trial_durations_us(marks) -> list[float]:
    """Duration of every trial, from its start mark to the next trial's start.

    The last trial has no next mark (its end would also cover sorting the
    records and building the report), so it is left out.
    """
    return [(b - a) * 1e-3 for a, b in zip(marks, marks[1:])]

