"""The kept-record rule: a run of T trials keeps the records of trials
0 .. min(T, ``RECORD_CAP``) - 1.

That is a fair sample only because every trial is a pure function of its own
seed, so these tests also check that a trial's record depends neither on how
many trials the run has, nor on the cap, nor on how trials are grouped into
sampling blocks.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chainhash import experiments


def collision(trials, base_seed, m=64):
    return experiments.ExperimentConfig.from_dict(
        {
            "kind": "collision", "n": 4, "m": m, "trials": trials, "base_seed": base_seed,
            "distribution": {"name": "zipf", "exponent": 1.0},
            "hash": {"mode": "random-table", "universe": 48, "seed": 3},
            "bound": {"name": "load-factor", "epsilon": 0.3},
        }
    )


def ast(trials, base_seed):
    return experiments.ExperimentConfig.from_dict(
        {
            "kind": "ast", "n": 100, "m": 2000, "trials": trials, "base_seed": base_seed,
            "distribution": {"name": "uniform"}, "hash": {"mode": "identity"},
            "bound": {"name": "eps-form", "epsilon": 0.15},
            "access_pattern": {"name": "restricted", "alpha": 0.1},
        }
    )


def capped_run(monkeypatch, cfg, record_cap):
    with monkeypatch.context() as mp:
        mp.setattr(experiments, "RECORD_CAP", record_cap)
        return experiments.run_experiment(cfg)


# (trials, record_cap)
GRID = [
    (1, 1),
    (5, 10),
    (10, 10),
    (11, 3),
    (150, 20),
    (150, 149),
    (150, 150),  # record_cap == trials
    (150, 151),
    (150, 200),
    (150, 500),
    (300, 1),
    (300, 17),
    (1000, 10),
    (2000, 250),
]


@pytest.mark.parametrize("base_seed", [0, 123, 2**63 + 5])
@pytest.mark.parametrize("trials, record_cap", GRID)
def test_capped_run_keeps_the_first_trials(monkeypatch, trials, record_cap, base_seed):
    cfg = collision(trials, base_seed)
    full = experiments.run_experiment(cfg)
    capped = capped_run(monkeypatch, cfg, record_cap)
    kept = min(trials, record_cap)
    assert [r.trial for r in capped.records] == list(range(kept))
    assert capped.records == full.records[:kept]
    assert capped.aggregates_json() == full.aggregates_json()


@pytest.mark.parametrize("block_draws", [1, 3 * 64, 7 * 64, 64 * 64])
@pytest.mark.parametrize("trials, record_cap", [(500, 10), (500, 40)])
def test_capped_records_do_not_depend_on_the_draw_block(
    monkeypatch, block_draws, trials, record_cap
):
    cfg = collision(trials, 77)
    full = experiments.run_experiment(cfg)
    monkeypatch.setattr(experiments, "_BLOCK_DRAWS", block_draws)
    capped = capped_run(monkeypatch, cfg, record_cap)
    assert capped.records == full.records[:record_cap]
    assert capped.aggregates_json() == full.aggregates_json()


@pytest.mark.parametrize("make", [collision, ast], ids=["collision", "ast"])
@pytest.mark.parametrize("shorter, longer", [(1, 2), (13, 40), (40, 300)])
def test_a_trial_record_does_not_depend_on_the_trial_count(make, shorter, longer):
    short = experiments.run_experiment(make(shorter, 2024))
    long = experiments.run_experiment(make(longer, 2024))
    assert short.records == long.records[:shorter]


@settings(max_examples=60, deadline=None)
@given(
    trials=st.integers(1, 300),
    record_cap=st.integers(0, 300),
    base_seed=st.integers(0, 2**64 - 1),
)
def test_kept_record_count_property(trials, record_cap, base_seed):
    with pytest.MonkeyPatch.context() as mp:
        report = capped_run(mp, collision(trials, base_seed, m=48), record_cap)
    kept = min(trials, record_cap)
    assert [r.trial for r in report.records] == list(range(kept))
    assert report.aggregates["trials"] == trials
