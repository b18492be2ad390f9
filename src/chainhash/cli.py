"""Command-line front end.

Thin adapters only: every subcommand parses flags, calls the library, and
prints the result — numeric output at 6 significant digits (scientific
notation outside [1e-4, 1e7)), or machine-readable JSON with --json.

Exit codes: 0 success, 1 domain error (a precondition rejected the inputs,
or a file could not be read or written), 2 usage error.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from dataclasses import asdict, replace
from typing import Any

from . import bounds, experiments, rng, search_time
from .estimator import empirical_collision_probability, relative_error
from .hashing import MAX_SIZE, count_slots, slot_probabilities
from .probability import KeySequence, make_uniform, norm_sq, sample


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
        return _key_count(args.m, "--m", 2, "estimator")
    if args.load is not None:
        try:
            m = args.load * args.n
        except OverflowError:  # n beyond the float range, so beyond the cap too
            raise ValueError("slot count exceeds the maximum supported size 2**24") from None
        return _key_count(m, "--load", 2, "estimator")
    raise UsageError("one of --m or --load is required")


def _key_count(m: float, flag: str, least: int, what: str) -> int:
    """round(m) keys, rejected above ``MAX_SIZE`` (before round(), which fails on inf)
    or below ``least``, the fewest keys ``what`` is defined for."""
    if m > MAX_SIZE:
        raise ValueError(f"{flag} gives m = {m}, above the maximum key count 2**24")
    if round(m) < least:
        raise ValueError(f"{flag} gives m = {m}; {what} undefined for m < {least}")
    return int(round(m))


# Flags named otherwise than the parameter they set (their argparse dest).
_FLAG_NAMES = {"epsilon": "eps", "L": "load", "exponent": "zipf-exp", "path": "table-file",
               "seed": "table-seed", "key_seed": "seed", "base_seed": "seed"}


def _flag(dest: str) -> str:
    return "--" + _FLAG_NAMES.get(dest, dest.replace("_", "-"))


def _call(args, entry, needs: str, **supplied):
    """Call a ``(builder, params)`` entry on the flags whose dests are its params.

    ``supplied`` gives the figures no flag sets; an absent flag takes its
    ``experiments._SPEC_DEFAULTS`` value, and a parameter with neither is the
    usage error "<needs> requires <flag>".
    """
    fn, params = entry
    flags = {dest: value for dest, value in vars(args).items() if value is not None}
    values = {**experiments._SPEC_DEFAULTS, **flags, **supplied}
    missing = [name for name in params if name not in values]
    if missing:
        raise UsageError(f"{needs} requires {_flag(missing[0])}")
    return fn(*[values[name] for name in params])


def cmd_estimate(args) -> int:
    m = _resolve_m(args)
    h = _call(args, experiments.SPECS["hash"][args.hash], f"--hash {args.hash}")
    q = _call(
        args, experiments.SPECS["distribution"][args.dist], f"--dist {args.dist}", size=h.universe
    )
    x = sample(q, args.key_seed, m)
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


def _check_flags(args) -> None:
    """Reject non-finite real flags and seeds outside [0, 2**64), naming the flag."""
    for dest, value in vars(args).items():
        if dest in ("seed", "key_seed", "base_seed") and value is not None:
            experiments.check_seed(value, _flag(dest))
        for x in value if isinstance(value, list) else [value]:
            if isinstance(x, float) and not math.isfinite(x):
                raise ValueError(f"{_flag(dest)} must be finite, got {x}")


def _print_call(args, entry, needs: str) -> int:
    """Print the fields of ``_call(args, entry, needs)``."""
    result = _call(args, entry, needs)
    # BoundParams spells its lambda field `lam`, as `lambda` is a Python keyword.
    pairs = [("lambda" if key == "lam" else key, value) for key, value in asdict(result).items()]
    _print_fields(pairs, args.json)
    return 0


def cmd_bound(args) -> int:
    if args.form == "params":
        entry = (bounds.params_from_load, ("n", "L", "epsilon"))
    else:
        entry = experiments.BOUNDS["collision"][args.form]
    return _print_call(args, entry, f"--form {args.form}")


def cmd_ast_bound(args) -> int:
    return _print_call(args, experiments.BOUNDS["ast"][f"{args.form}-form"], f"--form {args.form}")


def cmd_restricted_access(args) -> int:
    bound = search_time.restricted_access_bound
    rows = [{"load": L, **asdict(bound(args.c, args.alpha, args.eps, L))} for L in args.load]
    if args.json:
        print(json.dumps(rows, indent=2, sort_keys=True))
        return 0
    print(" ".join(rows[0]))
    for row in rows:
        print(" ".join(fmt(value) for value in row.values()))
    return 0


def cmd_experiment(args) -> int:
    flags = dict(trials=args.trials, base_seed=args.base_seed, output=args.out, csv_path=args.csv)
    cfg = replace(
        experiments.ExperimentConfig.from_file(args.config),
        **{field: value for field, value in flags.items() if value is not None},
    )
    for key, path in (("output", cfg.output), ("csv", cfg.csv_path)):
        if path and os.path.realpath(path) == os.path.realpath(args.config):
            raise ValueError(f"config key {key!r} names the config file {args.config!r}")
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
    m = _key_count(args.m, "--m", 1, "perturbation check")
    if args.trials < 1:
        raise ValueError(f"--trials must be at least 1, got {args.trials}")
    mode = "identity" if args.universe is None else "random-table"
    h = _call(args, experiments.SPECS["hash"][mode], "perturbation-check")
    q = make_uniform(h.universe)
    violations = 0
    for t in range(args.trials):
        x = sample(q, rng.trial_seed(args.key_seed, 2 * t), m)
        # Overwrite a sliding prefix so the pairs sweep from identical (d=0)
        # to fully independent (d=m).
        d = t % (m + 1)
        y_keys = x.keys.copy()
        if d:
            y_keys[:d] = sample(q, rng.trial_seed(args.key_seed, 2 * t + 1), d).keys
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
        p.add_argument("--dist", choices=experiments.SPECS["distribution"], default="uniform")
        p.add_argument("--zipf-exp", type=float, dest="exponent", metavar="ZIPF_EXP")
        p.add_argument("--alpha", type=float, default=0.1)

    def add_hash_flags(p):
        p.add_argument("--hash", choices=experiments.SPECS["hash"], default="identity")
        p.add_argument("--universe", type=int)
        p.add_argument("--table-seed", type=int, dest="seed", metavar="TABLE_SEED")
        p.add_argument("--table-file", dest="path", metavar="TABLE_FILE")

    p = sub.add_parser("estimate", help="sample keys once and estimate the collision probability")
    add_dist_flags(p)
    add_hash_flags(p)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--m", type=int)
    p.add_argument("--load", type=float)
    p.add_argument("--seed", type=int, default=0, dest="key_seed", metavar="SEED")
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
    p.add_argument("--eps", type=float, dest="epsilon", metavar="EPS", required=True)
    p.add_argument("--load", type=float, dest="L", metavar="LOAD", required=True)
    p.add_argument("--json", action="store_true")
    combined = (search_time.combined_query_bound, ("c", "alpha", "alpha2", "epsilon", "L"))
    p.set_defaults(func=lambda args: _print_call(args, combined, "combined-query"))

    p = sub.add_parser("experiment", help="run a Monte Carlo experiment from a config file")
    p.add_argument("--config", required=True)
    p.add_argument("--trials", type=int)
    p.add_argument("--seed", type=int, dest="base_seed", metavar="SEED")
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
    p.add_argument("--seed", type=int, default=0, dest="key_seed", metavar="SEED")
    p.add_argument("--universe", type=int)
    p.add_argument("--table-seed", type=int, dest="seed", metavar="TABLE_SEED")
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
        _check_flags(args)
        return args.func(args)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 2
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
