"""Differential gate for drawing consecutive trials in blocks.

The trial loop samples ``max(1, _BLOCK_DRAWS // m)`` trials with one stream
call and one sampler call.  Every trial's keys must still be exactly what
``sample_from_cdf(cdf, trial_seed(base_seed, t), m, guide)`` gives for that
trial alone, and a run's outputs must not depend on the block size.
"""

import re
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chainhash import experiments, rng
from chainhash.experiments import ExperimentConfig, run_experiment
from chainhash.probability import (
    make_restricted_uniform,
    make_uniform,
    make_zipf,
    sample_from_cdf,
)

DISTRIBUTIONS = {
    "uniform-64": lambda: make_uniform(64),
    "zipf-4096": lambda: make_zipf(4096, 1.0),
    "restricted-100": lambda: make_restricted_uniform(100, 0.1),
}


def blocked_keys(monkeypatch, q, m, trials, base_seed, block_draws):
    """Each trial's keys as the trial loop sees them, and its sampler calls."""
    monkeypatch.setattr(experiments, "_BLOCK_DRAWS", block_draws)
    calls = []

    def spy(cdf, seeds, count, guide):
        calls.append(len(seeds))
        return sample_from_cdf(cdf, seeds, count, guide)

    monkeypatch.setattr(experiments, "sample_from_cdf", spy)
    seen = []

    def measure(keys):
        for row in keys:
            seen.append(row.copy())
            yield 0.0, 0.0, False

    experiments._run_trials(q.cdf, q.guide, m, trials, base_seed, measure)
    return seen, calls


def alone(q, m, trials, base_seed):
    return [sample_from_cdf(q.cdf, rng.trial_seed(base_seed, t), m, q.guide) for t in range(trials)]


@pytest.mark.parametrize("name", sorted(DISTRIBUTIONS))
@pytest.mark.parametrize("block", [1, 3, 7, 8])
@pytest.mark.parametrize("trials", [1, 7, 24, 25])
def test_block_rows_equal_single_trial_draws(monkeypatch, name, block, trials):
    q, m, base_seed = DISTRIBUTIONS[name](), 50, 2**64 - 5
    seen, calls = blocked_keys(monkeypatch, q, m, trials, base_seed, block * m + m - 1)
    # Full blocks, then a partial one when the block size does not divide the trials.
    assert calls == [block] * (trials // block) + ([trials % block] if trials % block else [])
    expected = alone(q, m, trials, base_seed)
    assert len(seen) == trials
    assert all(np.array_equal(a, b) for a, b in zip(seen, expected))


def test_two_keys_per_trial(monkeypatch):
    # m=2 gives the largest block, _BLOCK_DRAWS // 2 trials a call; the second call is partial.
    q, block = make_zipf(64, 1.0), experiments._BLOCK_DRAWS // 2
    trials = block + 7
    seen, calls = blocked_keys(monkeypatch, q, 2, trials, 7, experiments._BLOCK_DRAWS)
    assert calls == [block, 7]
    expected = alone(q, 2, trials, 7)
    assert len(seen) == trials
    assert all(np.array_equal(a, b) for a, b in zip(seen, expected))


def test_rows_with_step_buckets_equal_single_trial_draws(monkeypatch):
    # Zipf over 2**20 with its 2**20-bucket guide: a fifth of the draws land
    # in a bucket that holds a cdf step, so each row goes through the
    # gather, the halving steps and the scatter of the guided search.
    q, m, trials, base_seed = make_zipf(2**20, 1.0), 6400, 7, 108
    seen, calls = blocked_keys(monkeypatch, q, m, trials, base_seed, 3 * m)
    assert calls == [3, 3, 1]
    words = rng.stream_uint64([rng.trial_seed(base_seed, t) for t in range(trials)], m)
    bucket = (words >> np.uint64(64 - 20)).astype(np.int64)
    assert q.guide.size == 2**20 + 1
    assert np.all((q.guide[bucket] < 0).sum(axis=1) > m // 10)
    expected = alone(q, m, trials, base_seed)
    assert len(seen) == trials
    assert all(np.array_equal(a, b) for a, b in zip(seen, expected))


def test_trials_longer_than_a_block_are_drawn_one_at_a_time(monkeypatch):
    q, m = make_uniform(64), experiments._BLOCK_DRAWS + 1
    seen, calls = blocked_keys(monkeypatch, q, m, 3, 11, experiments._BLOCK_DRAWS)
    assert calls == [1, 1, 1]
    expected = alone(q, m, 3, 11)
    assert all(np.array_equal(a, b) for a, b in zip(seen, expected))


CONFIGS = {
    "collision": {
        "kind": "collision", "n": 16, "m": 300, "trials": 61, "base_seed": 3,
        "distribution": {"name": "zipf", "exponent": 1.0},
        "hash": {"mode": "random-table", "universe": 512, "seed": 1},
        "bound": {"name": "load-factor", "epsilon": 0.33},
    },
    "ast": {
        "kind": "ast", "n": 100, "m": 2000, "trials": 9, "base_seed": 9,
        "distribution": {"name": "uniform"}, "hash": {"mode": "identity"},
        "access_pattern": {"name": "restricted", "alpha": 0.1},
        "bound": {"name": "eps-form", "epsilon": 0.15},
    },
}


@pytest.mark.parametrize("kind", sorted(CONFIGS))
def test_outputs_do_not_depend_on_the_block_size(monkeypatch, tmp_path, kind):
    # The collision run (61 trials) keeps its first 5 records, the AST run all 9.
    monkeypatch.setattr(experiments, "RECORD_CAP", {"ast": 20, "collision": 5}[kind])
    outputs = set()
    for block_draws in (1, 3 * 2000, 7 * 2000, experiments._BLOCK_DRAWS):
        monkeypatch.setattr(experiments, "_BLOCK_DRAWS", block_draws)
        path = tmp_path / f"{block_draws}.csv"
        cfg = ExperimentConfig.from_dict({**CONFIGS[kind], "csv": str(path)})
        report = run_experiment(cfg)
        outputs.add((report.aggregates_json(), path.read_bytes(), repr(report.records)))
    assert len(outputs) == 1


@pytest.mark.parametrize("kind", sorted(CONFIGS))
def test_blocks_do_not_churn_the_heap(kind):
    # Freeing a block before drawing the next one let glibc trim the heap and
    # fault the pages back in: 200 to 400 minor faults per block of 64 trials
    # here, against under one per block with the block kept until the next draw.
    # AST trials read their rows in place, as views of the block.
    resource = pytest.importorskip("resource")
    uniform_64 = {
        **CONFIGS[kind], "n": 64, "m": 1024,
        "distribution": {"name": "uniform"}, "hash": {"mode": "identity"},
    }

    def faults(trials):
        cfg = ExperimentConfig.from_dict({**uniform_64, "trials": trials})
        before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
        run_experiment(cfg)
        return resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before

    blocks = 40
    trials = blocks * (experiments._BLOCK_DRAWS // 1024)
    faults(trials)  # warm-up: the heap grows to its working size
    extra = faults(2 * trials) - faults(trials)
    assert extra / blocks < 64, extra


def test_collision_counts_stay_small_when_n_exceeds_m(monkeypatch):
    # The collision measure counts the slots of at most _BLOCK_DRAWS // n rows
    # at a time.  One count of this run's whole block (256 trials over 2**14
    # slots) would take 32 MiB; 4 rows take 512 KiB.
    tracemalloc = pytest.importorskip("tracemalloc")
    cfg = ExperimentConfig.from_dict({
        **CONFIGS["collision"], "n": 2**14, "m": 2, "trials": 256,
        "distribution": {"name": "uniform"}, "hash": {"mode": "identity"},
        "bound": {"name": "polynomial", "beta": 1.0, "lambda": 1.0},
    })
    tracemalloc.start()
    try:
        report = experiments.run_collision_trials(cfg)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4 * 2**20, peak
    monkeypatch.setattr(experiments, "_BLOCK_DRAWS", 2)  # one trial per block and count
    alone = experiments.run_collision_trials(cfg)
    assert (report.aggregates, report.records) == (alone.aggregates, alone.records)



@pytest.mark.parametrize("n, m, hash_spec", [
    (2**12, 2**16, {"mode": "identity"}),
    (64, 2**11, {"mode": "random-table", "universe": 2**14, "seed": 1}),
])
def test_ast_key_histograms_do_not_pile_up(n, m, hash_spec):
    # U <= 8m, so every row's key sequence builds a histogram (32 and 128 KiB
    # here).  It lives as long as its sequence: 64 rows of them kept would add
    # 2 and 8 MiB to a peak of about 3.2 and 3.6 MiB.
    tracemalloc = pytest.importorskip("tracemalloc")
    cfg = ExperimentConfig.from_dict({
        **CONFIGS["ast"], "n": n, "m": m, "trials": 64, "hash": hash_spec,
    })
    experiments.run_ast_trials(cfg)  # warm-up: one-off first-call allocations stay out of the peak
    tracemalloc.start()
    try:
        experiments.run_ast_trials(cfg)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4.5 * 2**20, peak


seeds = st.integers(0, 2**64 - 1)


@settings(max_examples=200, deadline=None)
@given(
    seed_list=st.lists(seeds, max_size=9),
    count=st.integers(0, 64),
    offset=st.integers(0, 2**62),
)
def test_property_stream_rows_are_single_seed_streams(seed_list, count, offset):
    bits = rng.stream_uint64(seed_list, count, offset)
    doubles = rng.stream_doubles(seed_list, count, offset)
    assert bits.shape == doubles.shape == (len(seed_list), count)
    assert bits.dtype == np.uint64 and doubles.dtype == np.float64
    for r, seed in enumerate(seed_list):
        assert np.array_equal(bits[r], rng.stream_uint64(seed, count, offset))
        assert np.array_equal(doubles[r], rng.stream_doubles(seed, count, offset))


@settings(max_examples=200, deadline=None)
@given(seed=seeds, count=st.integers(0, 64), offset=st.integers(0, 300))
def test_property_stream_slice_is_part_of_the_full_stream(seed, count, offset):
    full = rng.stream_uint64(seed, offset + count)
    assert np.array_equal(rng.stream_uint64(seed, count, offset), full[offset:])
    assert np.array_equal(rng.stream_uint64([seed], count, offset)[0], full[offset:])


@pytest.mark.parametrize("name", ["uniform-64", "zipf-2**20"])
def test_a_block_past_2_16_draws_stays_within_the_readme_memory_bound(monkeypatch, name):
    # Past m = 2**16 a block is one trial of m draws, so the sampler's peak grows
    # with m.  The README bounds it per draw over max(m, 2**16) draws; tracemalloc
    # read 28.4 bytes per draw for uniform-64 and 41.4 for Zipf over 2**20.
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    claim = re.search(r"to (\d+) bytes per draw,\s+max\(m,\s+2¹⁶\) draws at most", readme)
    assert claim, "the README bounds no sampler block of max(m, 2**16) draws"
    q = make_uniform(64) if name == "uniform-64" else make_zipf(2**20, 1.0)
    m, calls = 2**18, []

    def traced(cdf, seeds, count, guide):
        tracemalloc.start()
        try:
            keys = sample_from_cdf(cdf, seeds, count, guide)
            calls.append((len(seeds), count, tracemalloc.get_traced_memory()[1]))
        finally:
            tracemalloc.stop()
        return keys

    monkeypatch.setattr(experiments, "sample_from_cdf", traced)
    experiments._run_trials(q.cdf, q.guide, m, 2, 108, lambda keys: [(0.0, 0.0, False)] * len(keys))
    assert [call[:2] for call in calls] == [(1, m), (1, m)]
    assert all(peak <= int(claim.group(1)) * m for *_, peak in calls), calls


@pytest.mark.parametrize("name", ["uniform-64", "zipf-2**20"])
def test_one_long_trial_holds_its_draws_and_one_pass(name):
    # Past 2**16 draws the sampler searches a row one pass of 2**16 columns at a
    # time, so an m = 2**20 trial holds its 8 MiB of draws and one pass's working
    # memory.  tracemalloc read 9.8 MiB for uniform-64 and 10.6 MiB for Zipf over
    # 2**20; searched in one pass, the same call took 28.4 and 41.5 MiB.
    q = make_uniform(64) if name == "uniform-64" else make_zipf(2**20, 1.0)
    cdf, guide = q.cdf, q.guide
    tracemalloc.start()
    try:
        keys = sample_from_cdf(cdf, 108, 2**20, guide)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert keys.shape == (2**20,)
    assert peak <= 12 * 2**20, peak / 2**20
