"""Pinned sha256 digests of Monte Carlo outputs.

Each run below is small and fixed.  Its canonical aggregates JSON, CSV
bytes, ``repr`` of the kept records and ``repr`` of the evaluated bound
must hash to the digests recorded here, which were taken from the
per-kind trial loops before they became one (the last three runs: from the
trial-at-a-time loop, before trials were drawn in blocks).  The CSV and
records digests of the two runs that keep fewer records than they have
trials were taken when capped runs began to keep their first trials instead
of a reservoir sample; the runs now set the one record cap to the number of
records each kept then.  Criterion 9 only compares two reruns of the same
code; these digests catch a change in any output byte between versions,
including which trials a capped run keeps.
"""

import hashlib

import pytest

from chainhash.experiments import (
    ExperimentConfig,
    distribution_from_spec,
    hash_from_spec,
    run_experiment,
)
from oracle import unbiasedness_check


def sha(data) -> str:
    if isinstance(data, str):
        data = data.encode("utf-8")
    return hashlib.sha256(data).hexdigest()


def collision(distribution, hash_spec, trials=50, m=640, base_seed=123, n=64):
    return {
        "kind": "collision", "n": n, "m": m, "trials": trials, "base_seed": base_seed,
        "distribution": distribution, "hash": hash_spec,
        "bound": {"name": "load-factor", "epsilon": 0.33},
    }


AST_RESTRICTED = {
    "kind": "ast", "n": 100, "m": 2000, "trials": 40, "base_seed": 9,
    "distribution": {"name": "uniform"}, "hash": {"mode": "identity"},
    "access_pattern": {"name": "restricted", "alpha": 0.1},
    "bound": {"name": "eps-form", "epsilon": 0.15},
}
UNIFORM = collision({"name": "uniform"}, {"mode": "identity"})
CAPPED = collision({"name": "uniform"}, {"mode": "identity"}, trials=150)

# name -> (config, record_cap)
RUNS = {
    "collision-uniform-identity": (UNIFORM, 10**6),
    "collision-zipf-random-table": (
        collision(
            {"name": "zipf", "exponent": 1.0},
            {"mode": "random-table", "universe": 4096, "seed": 7},
        ),
        10**6,
    ),
    "ast-restricted": (AST_RESTRICTED, 10**6),
    # 150 trials: a cap of 20 keeps the first 20 records, one of 200 or 500 all of them.
    "capped-20": (CAPPED, 20),
    "capped-500": (CAPPED, 500),
    "capped-200": (CAPPED, 200),
    # 1003 trials at m=1000: blocks of 8 trials, the last one holds 3.
    "partial-last-block": (
        collision({"name": "uniform"}, {"mode": "identity"}, trials=1003, m=1000, base_seed=77),
        10**6,
    ),
    # 1000 trials at m=300 (blocks of 27) past a cap of 50: the first 50 records.
    "capped-zipf-random-table": (
        collision(
            {"name": "zipf", "exponent": 1.0},
            {"mode": "random-table", "universe": 4096, "seed": 7},
            trials=1000, m=300, base_seed=31, n=16,
        ),
        50,
    ),
    # 41 trials at m=2000: blocks of 4 trials, the last one holds 1.
    "ast-restricted-partial-block": ({**AST_RESTRICTED, "trials": 41}, 10**6),
}

# name -> sha256 of (aggregates_json, csv bytes, repr(records), repr(bound))
PINNED = {
    "ast-restricted": (
        "d2e5c2ac5f020209d1b33cdd3557da9b7248a89257639cab9970684237229ee9",
        "703dbc89986b68556a27afc131b449c220f37f5e0681ee4403e675a7ad1a4d45",
        "13d3f6b9fa673b352900af21edb245d35fa7130f1a66aebabfdad6827a8ae227",
        "5bb793d370db26e3bc26787eda673a01840bfee1f406fdee88807db070492735",
    ),
    "ast-restricted-partial-block": (
        "be473c7178d63e80f1dda14da5e52a1e4a037c004dcf8bddd30b97d8ab39b94b",
        "17066a6470a7c0a406a2d65fcf423a3791631836ae3d1fc1f0e011a4217cef79",
        "b6363271cc1d3fdb9bde0881bf2d992e941f10aa538984f0f80f88a91796ef98",
        "5bb793d370db26e3bc26787eda673a01840bfee1f406fdee88807db070492735",
    ),
    "capped-20": (
        "3b85d8b99d190455bda94a0bac7660c0623f06ad2845ab66d4be40ba696715ab",
        "041f3f94758e105bed45e71a21dbdb5188875ecd91ddd69d816ff8b88c508de0",
        "86bdb6b05a88eeae937dcd15baa2167c633061e11f69519ed31cb93ada7f5607",
        "53a839dab84db263a9a62bc1a90c42a29233f2e5dbfcbb7b508a1514caba3aa5",
    ),
    "capped-200": (
        "3b85d8b99d190455bda94a0bac7660c0623f06ad2845ab66d4be40ba696715ab",
        "f23bb028a0d9e6c9d7e4ca4600eee1fba86c15d27556929978062e90e085f311",
        "233aecccd18550a2d57b43fbd81b6cfd1408dc9bcc805b32bf3dc91b39432966",
        "53a839dab84db263a9a62bc1a90c42a29233f2e5dbfcbb7b508a1514caba3aa5",
    ),
    "capped-500": (
        "3b85d8b99d190455bda94a0bac7660c0623f06ad2845ab66d4be40ba696715ab",
        "f23bb028a0d9e6c9d7e4ca4600eee1fba86c15d27556929978062e90e085f311",
        "233aecccd18550a2d57b43fbd81b6cfd1408dc9bcc805b32bf3dc91b39432966",
        "53a839dab84db263a9a62bc1a90c42a29233f2e5dbfcbb7b508a1514caba3aa5",
    ),
    "capped-zipf-random-table": (
        "0f5dcfe8500eef1695607e50683699de8f3c401a8f05f133d2024170cb3cf950",
        "4bf8c99da4f3b82b59cf81cefc5ac8bc6331f453b887e1d9e17b4075691b0d79",
        "9aeecf29a3dc0ef5f4dd0bab969a0e1c647bbdc953ee46dc13e3c2ca77c94a9f",
        "a9e3b53d3b79066fcc36093fecfde09d2db7ec10b9a8679d9afa482563f0b4b1",
    ),
    "collision-uniform-identity": (
        "3c7ca6fe34196c9246d44315309fa80f3853dce842289168e12e8fcb28288454",
        "01cfca9b4a13e08e0b17dc467bb6466f2db646160eda2c45ad75da83a7b0e630",
        "517d2f05855e8de9ef5b435371c618f6ab28faaae461a4d25f86ad4f6f58a4fe",
        "53a839dab84db263a9a62bc1a90c42a29233f2e5dbfcbb7b508a1514caba3aa5",
    ),
    "collision-zipf-random-table": (
        "77c883e6947394d84479bbf011e51d04fa9a60b11c0e6f2f5338ca1130b3a3a0",
        "554896eb0d254f314113e43b7ba5b2d5a4cacf077dbba459c2fafd760a3e8777",
        "b1e8cd88a07b36677b078ad091635770d7827a63dc7253f3c19c852352dc4a15",
        "53a839dab84db263a9a62bc1a90c42a29233f2e5dbfcbb7b508a1514caba3aa5",
    ),
    "partial-last-block": (
        "7113b612531af20939dbbb1ec7a897cef9d8d1a19a2850a9938ad4edbc5db0c3",
        "0032effdc2498c7490d9b8a1e5617dea1d738842156189ffe57d5cfaaf912edd",
        "c4f3ac36cac00393f459fad6bcbba09e151fcd59ce032c8c3a3bf91b949dea66",
        "5ce899b47adc29dc51ca7141d756d74d4cffd8de7917ef7e10ea1256f178ae45",
    ),
}


@pytest.mark.parametrize("name", sorted(RUNS))
def test_report_outputs_match_pinned_digests(name, tmp_path, monkeypatch):
    data, record_cap = RUNS[name]
    monkeypatch.setattr("chainhash.experiments.RECORD_CAP", record_cap)
    path = tmp_path / "trials.csv"
    report = run_experiment(ExperimentConfig.from_dict({**data, "csv": str(path)}))
    got = (
        sha(report.aggregates_json()),
        sha(path.read_bytes()),
        sha(repr(report.records)),
        sha(repr(report.bound)),
    )
    assert got == PINNED[name]


# name -> (distribution spec, n, m, trials, base_seed)
UNBIASEDNESS = {
    "uniform-64": ({"name": "uniform"}, 64, 1024, 2000, 11),
    "zipf-64": ({"name": "zipf", "exponent": 1.0}, 64, 100, 500, 21),
    "pointmass-16": ({"name": "pointmass"}, 16, 10, 200, 4),
}

PINNED_UNBIASEDNESS = {
    "pointmass-16": "6b07855cd13ea3acdc6d93b0f2481fd752e3e7bf79be4778a113d31808e149ba",
    "uniform-64": "cadb9c1ca2b8be9fe7e4f3599b37af0063016fd97474f24b392803a3d2cdf830",
    "zipf-64": "3cc2dde85fe1137f3847709cda1710f4964742f7e783f12de48f2437a4ac5e82",
}


@pytest.mark.parametrize("name", sorted(UNBIASEDNESS))
def test_unbiasedness_matches_pinned_digest(name):
    spec, n, m, trials, base_seed = UNBIASEDNESS[name]
    h = hash_from_spec({"mode": "identity"}, n)
    result = unbiasedness_check(distribution_from_spec(spec, n), h, m, trials, base_seed)
    assert sha(repr(result)) == PINNED_UNBIASEDNESS[name]
