"""The checked constructors serve only input from outside the package.

``ProbabilityVector``, ``KeySequence`` and ``SlotCounts`` check what they are
given; what the package builds or draws itself enters through ``_trusted``.
With the three checked constructors made to raise, every run path must still
succeed: experiments of both kinds over each hash mode, ``estimate`` with
each distribution, and ``perturbation-check`` with and without --universe.
"""

import pytest

from chainhash.cli import main
from chainhash.experiments import ExperimentConfig, run_experiment
from chainhash.hashing import SlotCounts
from chainhash.probability import KeySequence, ProbabilityVector


@pytest.fixture(autouse=True)
def checked_constructors_raise(monkeypatch):
    def refuse(self, *args, **kwargs):
        raise AssertionError(f"checked {type(self).__name__} constructor called")

    for cls in (ProbabilityVector, KeySequence, SlotCounts):
        monkeypatch.setattr(cls, "__init__", refuse)


HASHES = {
    "identity": {"mode": "identity"},
    "random-table": {"mode": "random-table", "universe": 64, "seed": 5},
    "table-file": {"mode": "table-file"},
}
RUNS = [("collision", mode) for mode in HASHES] + [("ast", "identity"), ("ast", "random-table")]


@pytest.mark.parametrize("kind, mode", RUNS)
def test_experiment_runs(kind, mode, tmp_path):
    spec = dict(HASHES[mode])
    if mode == "table-file":
        spec["path"] = str(tmp_path / "table.txt")
        (tmp_path / "table.txt").write_text("".join(f"{key % 32}\n" for key in range(50)))
    config = {"kind": kind, "n": 32, "m": 640, "trials": 5, "base_seed": 3,
              "distribution": {"name": "zipf"}, "hash": spec,
              "bound": {"name": "load-factor" if kind == "collision" else "eps-form",
                        "epsilon": 0.3}}
    if kind == "ast":
        config["access_pattern"] = {"name": "restricted", "alpha": 0.5}
    report = run_experiment(ExperimentConfig.from_dict(config))
    assert report.aggregates["trials"] == 5


@pytest.mark.parametrize("dist", ["uniform", "zipf", "restricted", "pointmass"])
def test_estimate(dist):
    assert main(["estimate", "--dist", dist, "--n", "16", "--m", "50"]) == 0


@pytest.mark.parametrize("universe", [[], ["--universe", "40"]])
def test_perturbation_check(universe):
    assert main(["perturbation-check", "--n", "8", "--m", "20", "--trials", "30", *universe]) == 0
