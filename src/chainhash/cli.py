"""Command-line front end.

Thin adapters only: every subcommand parses flags, calls the library, and
prints the result — numeric output at 6 significant digits (scientific
notation outside [1e-4, 1e7)), or machine-readable JSON with --json.

Exit codes: 0 success, 1 domain error (a precondition rejected the inputs),
2 usage error.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from dataclasses import asdict
from typing import Any

from . import bounds, experiments, rng, search_time
from .estimator import empirical_collision_probability, relative_error
from .hashing import MAX_SIZE, count_slots, slot_probabilities
from .probability import KeySequence, norm_sq, sample


class UsageError(Exception):
    """Flag combinations the parser itself cannot express (exit code 2)."""


def fmt(x: float) -> str:
    """6 significant digits; scientific for |x| < 1e-4 or >= 1e7."""
    x = float(x)
    if math.isnan(x) or math.isinf(x):
        return str(x)
    ax = abs(x)
    if ax < 1e-4 or ax >= 1e7:
        return f"{x:.5e}"
    digits = max(0, 5 - math.floor(math.log10(ax)))
    return f"{x:.{digits}f}"


def _print_fields(pairs: list[tuple[str, Any]], as_json: bool) -> None:
    if as_json:
        print(json.dumps(dict(pairs), indent=2, sort_keys=True))
        return
    for name, value in pairs:
        if isinstance(value, bool):
            text = "true" if value else "false"
        elif isinstance(value, int):
            text = str(value)
        elif isinstance(value, float):
            text = fmt(value)
        else:
            text = str(value)
        print(f"{name} {text}")


def _resolve_m(args) -> int:
    if args.m is not None and args.load is not None:
        raise UsageError("give --m or --load, not both")
    if args.m is not None:
        return _key_count(args.m, "--m")
    if args.load is not None:
        try:
            m = args.load * args.n
        except OverflowError:  # n beyond the float range, so beyond the cap too
            raise ValueError("slot count exceeds the maximum supported size 2**24") from None
        return _key_count(m, "--load")
    raise UsageError("one of --m or --load is required")


def _key_count(m: float, flag: str) -> int:
    """round(m) keys, rejected above ``MAX_SIZE`` (before round(), which fails on inf)."""
    if m > MAX_SIZE:
        raise ValueError(f"{flag} gives m = {m}, above the maximum key count 2**24")
    return int(round(m))


def _hash_and_dist(args):
    hash_spec = {"mode": args.hash}
    if args.hash == "random-table":
        if args.universe is None:
            raise UsageError("--hash random-table requires --universe")
        hash_spec.update(universe=args.universe, seed=args.table_seed)
    elif args.hash == "table-file":
        if args.table_file is None:
            raise UsageError("--hash table-file requires --table-file")
        hash_spec["path"] = args.table_file
    h = experiments.hash_from_spec(hash_spec, args.n)
    spec = {"name": args.dist}
    if args.dist == "zipf":
        spec["exponent"] = args.zipf_exp
    elif args.dist == "restricted":
        spec["alpha"] = args.alpha
    q = experiments.distribution_from_spec(spec, h.universe)
    return q, h


def cmd_estimate(args) -> int:
    m = _resolve_m(args)
    q, h = _hash_and_dist(args)
    x = sample(q, args.seed, m)
    est = empirical_collision_probability(count_slots(x, h))
    p_norm_sq = norm_sq(slot_probabilities(q, h))
    rel = relative_error(est, p_norm_sq)
    _print_fields(
        [
            ("empirical_cp", est.empirical_cp),
            ("p_norm_sq", p_norm_sq),
            ("rel_error", rel),
            ("collision_pairs", est.collision_pairs),
            ("m", est.m),
        ],
        args.json,
    )
    return 0


# Flags named otherwise than the bound parameter they set (their argparse dest).
_FLAG_NAMES = {"epsilon": "eps", "L": "load"}


def _flag(dest: str) -> str:
    return "--" + _FLAG_NAMES.get(dest, dest.replace("_", "-"))


def _check_finite(args) -> None:
    """Reject NaN and infinities in every real-valued flag, naming the flag."""
    for dest, value in vars(args).items():
        for x in value if isinstance(value, list) else [value]:
            if isinstance(x, float) and not math.isfinite(x):
                raise ValueError(f"{_flag(dest)} must be finite, got {x}")


def _print_bound(args, fn, params) -> int:
    """Call ``fn`` on the flags whose dests are ``params``, in order, and print its fields."""
    missing = [name for name in params if getattr(args, name) is None]
    if missing:
        raise UsageError(f"--form {args.form} requires {_flag(missing[0])}")
    result = fn(*[getattr(args, name) for name in params])
    # BoundParams spells its lambda field `lam`, as `lambda` is a Python keyword.
    pairs = [("lambda" if key == "lam" else key, value) for key, value in asdict(result).items()]
    _print_fields(pairs, args.json)
    return 0


def cmd_bound(args) -> int:
    if args.form == "params":
        return _print_bound(args, bounds.params_from_load, ("n", "L", "epsilon"))
    return _print_bound(args, *experiments.BOUNDS["collision"][args.form])


def cmd_ast_bound(args) -> int:
    return _print_bound(args, *experiments.BOUNDS["ast"][f"{args.form}-form"])


def cmd_restricted_access(args) -> int:
    rows = []
    for load in args.load:
        b = search_time.restricted_access_bound(args.c, args.alpha, args.eps, load)
        rows.append(
            {
                "load": load,
                "center": b.center,
                "halfwidth": b.halfwidth,
                "confidence": b.confidence,
            }
        )
    if args.json:
        print(json.dumps(rows, indent=2, sort_keys=True))
        return 0
    print("load center halfwidth confidence")
    for row in rows:
        print(
            f"{fmt(row['load'])} {fmt(row['center'])} "
            f"{fmt(row['halfwidth'])} {fmt(row['confidence'])}"
        )
    return 0


def cmd_combined_query(args) -> int:
    result = search_time.combined_query_bound(
        args.c, args.alpha, args.alpha2, args.eps, args.load
    )
    _print_fields([("value", result.value), ("confidence", result.confidence)], args.json)
    return 0


def cmd_experiment(args) -> int:
    cfg = experiments.ExperimentConfig.from_file(args.config)
    overrides = cfg.to_dict()
    if args.trials is not None:
        overrides["trials"] = args.trials
    if args.seed is not None:
        overrides["base_seed"] = args.seed
    if args.out is not None:
        overrides["output"] = args.out
    if args.csv is not None:
        overrides["csv"] = args.csv
    cfg = experiments.ExperimentConfig.from_dict(overrides)
    report = experiments.run_experiment(cfg)
    if args.json:
        print(report.to_json())
        return 0
    pairs: list[tuple[str, Any]] = [("kind", cfg.kind)]
    pairs += [(key, value) for key, value in report.bound.items()]
    pairs += [(key, value) for key, value in report.aggregates.items()]
    pairs.append(("duration_seconds", report.duration_seconds))
    if cfg.output:
        pairs.append(("output", cfg.output))
    if cfg.csv_path:
        pairs.append(("csv", cfg.csv_path))
    _print_fields(pairs, False)
    return 0


def cmd_perturbation_check(args) -> int:
    m = _key_count(args.m, "--m")
    hash_spec = {"mode": "identity"}
    if args.universe is not None:
        hash_spec = {"mode": "random-table", "universe": args.universe, "seed": args.table_seed}
    h = experiments.hash_from_spec(hash_spec, args.n)
    q = experiments.distribution_from_spec({"name": "uniform"}, h.universe)
    violations = 0
    for t in range(args.trials):
        x = sample(q, rng.trial_seed(args.seed, 2 * t), m)
        # Overwrite a sliding prefix so the pairs sweep from identical (d=0)
        # to fully independent (d=m).
        d = t % (m + 1)
        y_keys = x.keys.copy()
        if d:
            y_keys[:d] = sample(q, rng.trial_seed(args.seed, 2 * t + 1), d).keys
        check = experiments.slot_count_perturbation(x, KeySequence(y_keys, x.universe), h)
        violations += not check.holds
    _print_fields([("pairs", args.trials), ("violations", violations)], args.json)
    return 0 if violations == 0 else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="chainhash",
        description="Collision-probability estimation and search-time bounds "
        "for chained hash tables.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_dist_flags(p):
        p.add_argument("--dist", choices=experiments.DIST_NAMES, default="uniform")
        p.add_argument("--zipf-exp", type=float, default=1.0)
        p.add_argument("--alpha", type=float, default=0.1)

    def add_hash_flags(p):
        p.add_argument("--hash", choices=experiments.HASH_MODES, default="identity")
        p.add_argument("--universe", type=int)
        p.add_argument("--table-seed", type=int, default=0)
        p.add_argument("--table-file")

    p = sub.add_parser("estimate", help="sample keys once and estimate the collision probability")
    add_dist_flags(p)
    add_hash_flags(p)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--m", type=int)
    p.add_argument("--load", type=float)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_estimate)

    p = sub.add_parser("bound", help="evaluate a closed-form deviation bound")
    p.add_argument("--form", choices=[*experiments.BOUNDS["collision"], "params"], required=True)
    p.add_argument("--n", type=int)
    p.add_argument("--eps", type=float, dest="epsilon", metavar="EPS")
    p.add_argument("--delta", type=float)
    p.add_argument("--s", type=float)
    p.add_argument("--beta", type=float)
    p.add_argument("--lambda", type=float, metavar="LAM")
    p.add_argument("--load", type=float, dest="L", metavar="LOAD")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_bound)

    p = sub.add_parser("ast-bound", help="evaluate a search-time tail bound")
    ast_forms = [name.removesuffix("-form") for name in experiments.BOUNDS["ast"]]
    p.add_argument("--form", choices=ast_forms, required=True)
    p.add_argument("--load", type=float, dest="L", metavar="LOAD", required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--v-norm", type=float, required=True)
    p.add_argument("--p-norm", type=float, required=True)
    p.add_argument("--s", type=float)
    p.add_argument("--eps", type=float, dest="epsilon", metavar="EPS")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_ast_bound)

    p = sub.add_parser(
        "restricted-access",
        help="search-time interval when the user touches an alpha-fraction of slots",
    )
    p.add_argument("--c", type=float, required=True)
    p.add_argument("--alpha", type=float, required=True)
    p.add_argument("--eps", type=float, required=True)
    p.add_argument("--load", type=float, nargs="+", required=True)
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_restricted_access)

    p = sub.add_parser(
        "combined-query", help="search-time bound for a two-pattern combined lookup"
    )
    p.add_argument("--c", type=float, required=True)
    p.add_argument("--alpha", type=float, required=True)
    p.add_argument("--alpha2", type=float, required=True)
    p.add_argument("--eps", type=float, required=True)
    p.add_argument("--load", type=float, required=True)
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_combined_query)

    p = sub.add_parser("experiment", help="run a Monte Carlo experiment from a config file")
    p.add_argument("--config", required=True)
    p.add_argument("--trials", type=int)
    p.add_argument("--seed", type=int)
    p.add_argument("--out")
    p.add_argument("--csv")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_experiment)

    p = sub.add_parser(
        "perturbation-check",
        help="verify the slot-count stability inequality on random sequence pairs",
    )
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--trials", type=int, default=1000)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--universe", type=int)
    p.add_argument("--table-seed", type=int, default=0)
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_perturbation_check)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        code = exc.code
        return int(code) if code is not None else 0
    try:
        _check_finite(args)
        return args.func(args)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 2
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
