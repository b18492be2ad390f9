"""Correctness checks on the outputs of one ``chainhash experiment`` call.

Three checks, from cheapest to strongest:

* digests: sha256 of the canonical aggregates block and of the CSV, which
  must equal the golden digests at the default seed and repeat exactly
  across the calls of one run (the bound block, which no seed changes,
  must equal its golden digest at every seed);
* :func:`reference_problems`: an independent implementation of the
  documented recipe (README "Determinism") recomputes every trial and the
  whole aggregates block, so a non-default seed is checked too;
* in traced runs, the per-trial values seen by the spans must equal the
  report's records (checked in ``child.py``).
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
import math
from pathlib import Path

import numpy as np

GOLDEN_PATH = Path(__file__).resolve().parent / "golden.json"

_MASK = (1 << 64) - 1
_GAMMA = 0x9E3779B97F4A7C15
_CSV_HEADER = ["trial", "value", "rel_error", "violation"]


def _canonical_sha256(block: dict) -> str:
    text = json.dumps(block, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


def digests(json_path, csv_path) -> dict[str, str]:
    """sha256 of the canonical aggregates and bound blocks and of the CSV."""
    report = json.loads(Path(json_path).read_text(encoding="utf-8"))
    return {
        "aggregates_sha256": _canonical_sha256(report["aggregates"]),
        "bound_sha256": _canonical_sha256(report["bound"]),
        "csv_sha256": hashlib.sha256(Path(csv_path).read_bytes()).hexdigest(),
    }


def load_golden(path=GOLDEN_PATH) -> dict:
    return json.loads(Path(path).read_text(encoding="utf-8"))


def digest_problems(found: dict[str, str], expected: dict[str, str], label: str) -> list[str]:
    return [
        f"{key} differs from the {label} digest"
        for key in ("aggregates_sha256", "csv_sha256")
        if found[key] != expected[key]
    ]


# --- independent reference of the documented recipe -----------------------


def _mix64(z):
    z = (z ^ (z >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)
    z = (z ^ (z >> np.uint64(27))) * np.uint64(0x94D049BB133111EB)
    return z ^ (z >> np.uint64(31))


def _stream(seed: int, count: int) -> np.ndarray:
    origin = _mix64(np.array([seed & _MASK], dtype=np.uint64))[0]
    steps = np.arange(1, count + 1, dtype=np.uint64) * np.uint64(_GAMMA)
    return _mix64(origin + steps)


def _normalized(weights: np.ndarray) -> np.ndarray:
    return weights / float(weights.sum())


def _weights(spec: dict, size: int) -> np.ndarray:
    name = spec["name"]
    if name == "uniform":
        return _normalized(np.full(size, 1.0 / size))
    if name == "zipf":
        return _normalized(np.arange(1, size + 1, dtype=np.float64) ** -float(spec["exponent"]))
    if name == "restricted":
        active = math.floor(float(spec["alpha"]) * size)
        w = np.zeros(size)
        w[:active] = 1.0 / active
        return _normalized(w)
    raise ValueError(f"no reference for distribution {name!r}")


class Reference:
    """Recomputes any trial of a config from the documented recipe alone."""

    def __init__(self, cfg: dict):
        self.cfg = cfg
        n = cfg["n"]
        spec = cfg["hash"]
        if spec["mode"] == "identity":
            universe, self.table = n, None
        elif spec["mode"] == "random-table":
            universe = spec["universe"]
            self.table = (_stream(spec["seed"], universe) % np.uint64(n)).astype(np.int64)
        else:
            raise ValueError(f"no reference for hash mode {spec['mode']!r}")
        q = _weights(cfg["distribution"], universe)
        self.cdf = np.cumsum(q)
        merged = q if self.table is None else np.bincount(self.table, weights=q, minlength=n)
        p = _normalized(merged)
        self.p_norm_sq = float(np.dot(p, p))
        self.v = _weights(cfg["access_pattern"], n) if cfg["kind"] == "ast" else None

    def _slots(self, keys: np.ndarray) -> np.ndarray:
        return keys if self.table is None else self.table[keys]

    def trial(self, t: int) -> dict[str, float]:
        cfg = self.cfg
        m, n = cfg["m"], cfg["n"]
        seed = (cfg["base_seed"] & _MASK) ^ ((t * _GAMMA) & _MASK)
        u = (_stream(seed, m) >> np.uint64(11)).astype(np.float64) * 2.0**-53
        keys = np.searchsorted(self.cdf, u * self.cdf[-1], side="right")
        keys = np.minimum(keys, self.cdf.size - 1)
        k = np.bincount(self._slots(keys), minlength=n)
        if self.v is None:
            pairs = int(np.dot(k, k - 1)) // 2
            cp = (2 * pairs) / (m * (m - 1))
            return {"value": cp, "rel_error": abs(cp / self.p_norm_sq - 1.0)}
        d = np.bincount(self._slots(np.unique(keys)), minlength=n)
        return {"value": float(np.dot(self.v, k)), "ast_exact": float(np.dot(self.v, d))}


def _welford(values) -> tuple[float, float]:
    count, mean, m2 = 0, 0.0, 0.0
    for x in values:
        count += 1
        delta = x - mean
        mean += delta / count
        m2 += delta * (x - mean)
    return mean, (math.sqrt(m2 / (count - 1)) if count >= 2 else 0.0)


def reference_problems(ref: Reference, json_path, csv_path) -> list[str]:
    """Check a report and its CSV against the reference recipe.

    Every trial is recomputed and compared with its CSV row, and the whole
    aggregates block is recomputed from the reference values.
    """
    cfg = ref.cfg
    report = json.loads(Path(json_path).read_text(encoding="utf-8"))
    rows = list(csv.reader(io.StringIO(Path(csv_path).read_text(encoding="utf-8"))))
    if rows[:1] != [_CSV_HEADER]:
        return ["CSV header differs from " + ",".join(_CSV_HEADER)]
    rows = rows[1:]
    trials = cfg["trials"]
    if [r[0] for r in rows] != [str(t) for t in range(trials)]:
        return [f"CSV does not hold trials 0..{trials - 1} in order"]
    bound = report["bound"]
    problems = []
    values, exact = [], []
    violations = 0
    for t, row in enumerate(rows):
        want = ref.trial(t)
        if cfg["kind"] == "collision":
            violation = want["rel_error"] > bound["error_bound"]
            expected = [repr(want["value"]), repr(want["rel_error"]), str(int(violation))]
        else:
            violation = want["value"] > bound["value"]
            expected = [repr(want["value"]), "", str(int(violation))]
            exact.append(want["ast_exact"])
        if row[1:] != expected and len(problems) < 5:
            problems.append(f"trial {t}: CSV row {row[1:]}, reference {expected}")
        values.append(want["value"])
        violations += violation
    mean, std = _welford(values)
    expected_aggs = {
        "trials": trials,
        "mean": mean,
        "sample_std": std,
        "violations": violations,
        "violation_frequency": violations / trials,
    }
    if cfg["kind"] == "collision":
        expected_aggs["p_norm_sq"] = ref.p_norm_sq
    else:
        expected_aggs["exact_mean"] = _welford(exact)[0]
    if report["aggregates"] != expected_aggs:
        problems.append(f"aggregates {report['aggregates']}, reference {expected_aggs}")
    return problems
