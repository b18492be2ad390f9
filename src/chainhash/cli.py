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
from functools import partial
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


# Flags named otherwise than the parameter they set (their argparse dest), and
# the type of each flag that is not a real (a path, of type None, stays a string).
_FLAG_NAMES = {"epsilon": "eps", "L": "load", "exponent": "zipf-exp", "path": "table-file",
               "seed": "table-seed", "key_seed": "seed", "base_seed": "seed"}
_FLAG_TYPES = {"n": int, "universe": int, "seed": int, "path": None}


def _flag(dest: str) -> str:
    return "--" + _FLAG_NAMES.get(dest, dest.replace("_", "-"))


# The closed-form commands, each with its help and its forms: (function,
# parameter names) entries as in experiments.BOUNDS, each parameter a flag.
# A command whose one form is keyed None takes no --form.
_CLOSED_FORMS = {
    "bound": ("evaluate a closed-form deviation bound", {
        **experiments.BOUNDS["collision"],
        "params": (bounds.params_from_load, ("n", "L", "epsilon"))}),
    "ast-bound": ("evaluate a search-time tail bound", {
        name.removesuffix("-form"): entry for name, entry in experiments.BOUNDS["ast"].items()}),
    "combined-query": ("search-time bound for a two-pattern combined lookup", {
        None: (search_time.combined_query_bound, ("c", "alpha", "alpha2", "epsilon", "L"))}),
}


def _form_params(forms) -> dict[str, bool]:
    """Each parameter of ``forms`` in first-use order: True where every form takes it."""
    params = [names for _, names in forms.values()]
    return {name: all(name in names for names in params) for names in params for name in names}


def _add_flags(p: argparse.ArgumentParser, forms) -> None:
    """One flag per parameter of ``forms``, required where every form takes it; none for
    ``size``, which the command supplies, or for pointmass's ``index``: no output depends on it."""
    for name, required in _form_params(forms).items():
        if name not in ("size", "index"):
            p.add_argument(_flag(name), dest=name, type=_FLAG_TYPES.get(name, float),
                           required=required, metavar=_flag(name)[2:].upper())


def _call(args, forms, form, needs: str, **supplied):
    """Call the ``(builder, params)`` entry ``forms[form]`` on the flags whose dests
    are its params.

    A flag of another form is the usage error "<needs> takes no <flag>".
    ``supplied`` gives the figures no flag sets; an absent flag takes its
    ``experiments._SPEC_DEFAULTS`` value (``--alpha`` 0.1, which a config
    requires), and a parameter with neither is the usage error
    "<needs> requires <flag>".
    """
    fn, params = forms[form]
    for name in _form_params(forms):
        if name not in params and getattr(args, name, None) is not None:
            raise UsageError(f"{needs} takes no {_flag(name)}")
    flags = {dest: value for dest, value in vars(args).items() if value is not None}
    values = {**experiments._SPEC_DEFAULTS, "alpha": 0.1, **flags, **supplied}
    missing = [name for name in params if name not in values]
    if missing:
        raise UsageError(f"{needs} requires {_flag(missing[0])}")
    return fn(*[values[name] for name in params])


def cmd_estimate(args) -> int:
    m = _resolve_m(args)
    h = _call(args, experiments.SPECS["hash"], args.hash, f"--hash {args.hash}")
    q = _call(args, experiments.SPECS["distribution"], args.dist, f"--dist {args.dist}",
              size=h.universe)
    x = sample(q, args.key_seed, m)
    est = empirical_collision_probability(count_slots(x, h))
    p_norm_sq = norm_sq(slot_probabilities(q, h))
    pairs = [("empirical_cp", est.empirical_cp), ("p_norm_sq", p_norm_sq),
             ("rel_error", relative_error(est, p_norm_sq)),
             ("collision_pairs", est.collision_pairs), ("m", est.m)]
    _print_fields(pairs, args.json)
    return 0


def _check_flags(args) -> None:
    """Reject non-finite real flags and seeds outside [0, 2**64), naming the flag."""
    for dest, value in vars(args).items():
        if dest in ("seed", "key_seed", "base_seed") and value is not None:
            experiments.check_seed(value, _flag(dest))
        for x in value if isinstance(value, list) else [value]:
            if isinstance(x, float) and not math.isfinite(x):
                raise ValueError(f"{_flag(dest)} must be finite, got {x}")


def _print_form(forms, args) -> int:
    """Print the fields of the form ``--form`` chose (or of the one form, keyed None)."""
    form = getattr(args, "form", None)
    result = _call(args, forms, form, args.command if form is None else f"--form {form}")
    # BoundParams spells its lambda field `lam`, as `lambda` is a Python keyword.
    pairs = [("lambda" if key == "lam" else key, value) for key, value in asdict(result).items()]
    _print_fields(pairs, args.json)
    return 0


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
    needs = "perturbation-check" + (" without --universe" if args.universe is None else "")
    h = _call(args, experiments.SPECS["hash"], mode, needs)
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
        check = experiments.slot_count_perturbation(x, KeySequence._trusted(y_keys, x.universe), h)
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

    p = sub.add_parser("estimate", help="sample keys once and estimate the collision probability")
    p.add_argument("--dist", choices=experiments.SPECS["distribution"], default="uniform")
    _add_flags(p, experiments.SPECS["distribution"])
    p.add_argument("--hash", choices=experiments.SPECS["hash"], default="identity")
    _add_flags(p, experiments.SPECS["hash"])
    p.add_argument("--m", type=int)
    p.add_argument("--load", type=float)
    p.add_argument("--seed", type=int, default=0, dest="key_seed", metavar="SEED")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_estimate)

    for command, (help_text, forms) in _CLOSED_FORMS.items():
        p = sub.add_parser(command, help=help_text)
        if None not in forms:
            p.add_argument("--form", choices=forms, required=True)
        _add_flags(p, forms)
        p.add_argument("--json", action="store_true")
        p.set_defaults(func=partial(_print_form, forms))

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
    _add_flags(p, {mode: experiments.SPECS["hash"][mode] for mode in ("identity", "random-table")})
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--trials", type=int, default=1000)
    p.add_argument("--seed", type=int, default=0, dest="key_seed", metavar="SEED")
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
