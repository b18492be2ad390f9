"""Differential gate for drawing consecutive trials in blocks.

The trial loop samples ``max(1, _BLOCK_DRAWS // m)`` trials with one stream
call and one sampler call.  Every trial's keys must still be exactly what
``sample_from_cdf(cdf, trial_seed(base_seed, t), m, guide)`` gives for that
trial alone, and a run's outputs must not depend on the block size.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chainhash import experiments, rng
from chainhash.experiments import ExperimentConfig, run_experiment
from chainhash.probability import (
    KeySequence,
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

    def measure(x: KeySequence):
        seen.append(x.keys.copy())
        return 0.0, 0.0, False

    experiments._run_trials(q, m, trials, base_seed, measure, (), "rel_error")
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
    assert np.all((q.guide[bucket] < q.guide[bucket + 1]).sum(axis=1) > m // 10)
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
    monkeypatch.setattr(experiments, "RECORD_CAP", 20)
    monkeypatch.setattr(experiments, "RESERVOIR_SIZE", 5)
    outputs = set()
    for block_draws in (1, 3 * 2000, 7 * 2000, experiments._BLOCK_DRAWS):
        monkeypatch.setattr(experiments, "_BLOCK_DRAWS", block_draws)
        path = tmp_path / f"{block_draws}.csv"
        cfg = ExperimentConfig.from_dict({**CONFIGS[kind], "csv": str(path)})
        report = run_experiment(cfg)
        outputs.add((report.aggregates_json(), path.read_bytes(), repr(report.records)))
    assert len(outputs) == 1


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
