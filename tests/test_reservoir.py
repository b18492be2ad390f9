"""The kept-record rule of capped runs, against the per-trial reservoir it replaced.

``reference_kept`` is the earlier implementation: every trial offers its
record to a reservoir that draws one stream double per trial past its
capacity.  ``experiments._kept_trials`` computes the same kept trial indices
up front, in blocks of draws, and must return exactly the same ones.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chainhash import experiments, rng


class ReferenceReservoir:
    """Classic reservoir sample, driven by its own deterministic stream."""

    def __init__(self, capacity, seed):
        self.capacity = capacity
        self.seed = seed
        self.items = []
        self.seen = 0

    def offer(self, record):
        t = self.seen
        self.seen += 1
        if len(self.items) < self.capacity:
            self.items.append(record)
            return
        u = float(rng.stream_doubles(self.seed, 1, offset=t)[0])
        j = int(u * (t + 1))
        if j < self.capacity:
            self.items[j] = record


def reference_kept(trials, base_seed, record_cap, reservoir_size):
    if trials <= record_cap:
        return list(range(trials))
    reservoir = ReferenceReservoir(
        reservoir_size, rng.trial_seed(base_seed, experiments._RESERVOIR_TAG)
    )
    for t in range(trials):
        reservoir.offer(t)
    return sorted(reservoir.items)


# (trials, record_cap, reservoir_size)
GRID = [
    (1, 1, 1),
    (5, 10, 2),
    (10, 10, 3),
    (11, 10, 3),
    (150, 100, 20),
    (150, 100, 149),
    (150, 100, 150),  # reservoir_size == trials
    (150, 100, 151),
    (150, 100, 200),  # reservoir_size >= trials > record_cap
    (150, 100, 500),
    (300, 0, 1),
    (300, 0, 17),
    (1000, 999, 10),
    (2000, 100, 250),
]


@pytest.mark.parametrize("base_seed", [0, 123, 2**63 + 5])
@pytest.mark.parametrize("trials, record_cap, reservoir_size", GRID)
def test_kept_trials_match_reference(trials, record_cap, reservoir_size, base_seed):
    got = list(experiments._kept_trials(trials, base_seed, record_cap, reservoir_size))
    assert got == reference_kept(trials, base_seed, record_cap, reservoir_size)


@pytest.mark.parametrize("block", [1, 3, 7, 64])
@pytest.mark.parametrize("trials, record_cap, reservoir_size", [(500, 10, 10), (500, 100, 40)])
def test_kept_trials_match_reference_across_draw_blocks(
    monkeypatch, block, trials, record_cap, reservoir_size
):
    monkeypatch.setattr(experiments, "_RESERVOIR_BLOCK", block)
    got = list(experiments._kept_trials(trials, 77, record_cap, reservoir_size))
    assert got == reference_kept(trials, 77, record_cap, reservoir_size)


@settings(max_examples=200, deadline=None)
@given(
    trials=st.integers(1, 3000),
    record_cap=st.integers(0, 3000),
    reservoir_size=st.integers(1, 3000),
    base_seed=st.integers(0, 2**64 - 1),
)
def test_kept_trials_property(trials, record_cap, reservoir_size, base_seed):
    kept = list(experiments._kept_trials(trials, base_seed, record_cap, reservoir_size))
    assert kept == list(experiments._kept_trials(trials, base_seed, record_cap, reservoir_size))
    assert kept == sorted(set(kept))
    assert all(type(t) is int and 0 <= t < trials for t in kept)
    expected = trials if trials <= record_cap else min(trials, reservoir_size)
    assert len(kept) == expected


def test_capped_report_keeps_the_chosen_trials(monkeypatch):
    cfg = experiments.ExperimentConfig.from_dict(
        {
            "kind": "collision", "n": 16, "m": 640, "trials": 120, "base_seed": 5,
            "distribution": {"name": "uniform"}, "hash": {"mode": "identity"},
            "bound": {"name": "load-factor", "epsilon": 0.3},
        }
    )
    full = experiments.run_collision_trials(cfg)
    monkeypatch.setattr(experiments, "RECORD_CAP", 50)
    monkeypatch.setattr(experiments, "RESERVOIR_SIZE", 30)
    capped = experiments.run_collision_trials(cfg)
    kept = reference_kept(120, 5, 50, 30)
    assert capped.records == tuple(full.records[t] for t in kept)
