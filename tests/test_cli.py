import argparse
import dataclasses
import json
import math

import numpy as np
import pytest

from chainhash import cli, experiments, probability, rng, search_time
from chainhash.cli import build_parser, fmt, main
from chainhash.hashing import MAX_SIZE, HashModel
from chainhash.probability import ProbabilityVector


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


class StreamDrawn(Exception):
    pass


@pytest.fixture
def no_stream(monkeypatch):
    """Every stream call (and so every sampling call) raises StreamDrawn with its count.

    ``rng.premixed`` is the one stream primitive: ``stream_uint64`` and the
    sampler both call it.
    """

    def spy(seed, count, offset=0):
        raise StreamDrawn(count)

    monkeypatch.setattr(rng, "premixed", spy)


class TestFormatting:
    def test_six_significant_digits(self):
        assert fmt(0.9087944459734458) == "0.908794"
        assert fmt(15812.388300841896) == "15812.4"
        assert fmt(22.166010488516725) == "22.1660"
        assert fmt(1.1) == "1.10000"

    def test_scientific_cutoffs(self):
        assert fmt(1e-5) == "1.00000e-05"
        assert fmt(0.00012) == "0.000120000"
        assert fmt(12345678.0) == "1.23457e+07"
        assert fmt(0.0) == "0.00000e+00"
        assert fmt(-4.133e-44) == "-4.13300e-44"

    @pytest.mark.parametrize("x, text", [(math.nan, "nan"), (math.inf, "inf"), (-math.inf, "-inf")])
    def test_non_finite_prints_as_python_does(self, x, text):
        assert fmt(x) == text


class TestEstimate:
    def test_m_below_two_is_domain_error(self, capsys):
        code, _, err = run(capsys, "estimate", "--dist", "uniform", "--n", "16", "--m", "1")
        assert code == 1
        assert "estimator undefined for m < 2" in err

    def test_point_mass(self, capsys):
        code, out, _ = run(capsys, "estimate", "--dist", "pointmass", "--n", "4", "--m", "10")
        assert code == 0
        assert "empirical_cp 1.00000" in out

    def test_typical_run_stays_under_the_bound(self, capsys):
        code, out, _ = run(
            capsys,
            "estimate", "--dist", "uniform", "--n", "64", "--load", "100",
            "--seed", "1", "--json",
        )
        assert code == 0
        data = json.loads(out)
        assert data["m"] == 6400
        assert data["rel_error"] < 22 * 0.15

    @pytest.mark.parametrize(
        "flags, named",
        [
            (["--m", str(MAX_SIZE + 1)], "--m"),
            (["--m", "100000000000"], "--m"),
            (["--load", "1048576.1"], "--load"),
            (["--load", "1e300"], "--load"),
            (["--load", "1e308"], "--load"),
        ],
    )
    def test_key_count_above_the_cap_is_domain_error(self, capsys, no_stream, flags, named):
        code, out, err = run(capsys, "estimate", "--n", "16", *flags)
        assert (code, out) == (1, "")
        assert err.startswith(f"error: {named} gives m = ") and "2**24" in err

    @pytest.mark.parametrize("load", ["1", "0"])
    def test_slot_count_beyond_the_float_range_is_domain_error(self, capsys, no_stream, load):
        # --load times an n above 1.8e308 cannot be formed as a float.
        code, out, err = run(capsys, "estimate", "--n", str(10**400), "--load", load)
        assert (code, out) == (1, "")
        assert err == "error: slot count exceeds the maximum supported size 2**24\n"

    @pytest.mark.parametrize("flags", [["--m", str(MAX_SIZE)], ["--load", "1048576"]])
    def test_key_count_at_the_cap_is_sampled(self, monkeypatch, flags):
        # The sampler is asked for all m keys (it draws them 2**16 columns per pass).
        def spy(cdf, seed, count, guide):
            raise StreamDrawn(count)

        monkeypatch.setattr(probability, "sample_from_cdf", spy)
        with pytest.raises(StreamDrawn) as drawn:
            main(["estimate", "--n", "16", *flags])
        assert drawn.value.args == (MAX_SIZE,)

    @pytest.mark.parametrize(
        "flags, m",
        [(["--m", "-5"], "-5"), (["--m", "1"], "1"), (["--m", "0"], "0"),
         (["--load", "-2"], "-32.0"), (["--load", "0.05"], "0.8")],
    )
    def test_key_count_below_two_is_domain_error(self, capsys, no_stream, flags, m):
        code, out, err = run(capsys, "estimate", "--n", "16", *flags)
        assert (code, out) == (1, "")
        assert err == f"error: {flags[0]} gives m = {m}; estimator undefined for m < 2\n"

    def test_absent_spec_flags_take_the_config_defaults(self, capsys):
        argv = ["estimate", "--n", "8", "--m", "200", "--hash", "random-table",
                "--universe", "256", "--dist", "zipf"]
        assert run(capsys, *argv) == run(capsys, *argv, "--zipf-exp", "1.0", "--table-seed", "0")

    def test_neither_m_nor_load_is_usage_error(self, capsys, no_stream):
        code, out, err = run(capsys, "estimate", "--n", "16")
        assert (code, out, err) == (2, "", "usage error: one of --m or --load is required\n")

    def test_m_and_load_conflict(self, capsys):
        code, _, err = run(
            capsys, "estimate", "--dist", "uniform", "--n", "16", "--m", "4", "--load", "2"
        )
        assert code == 2
        assert "usage error" in err

    def test_random_table_hash(self, capsys):
        code, out, _ = run(
            capsys,
            "estimate", "--dist", "zipf", "--zipf-exp", "1.0", "--n", "8",
            "--m", "200", "--hash", "random-table", "--universe", "256", "--json",
        )
        assert code == 0
        assert 0.0 <= json.loads(out)["empirical_cp"] <= 1.0

    @pytest.mark.parametrize(
        "mode, flag", [("random-table", "--universe"), ("table-file", "--table-file")]
    )
    def test_hash_mode_without_its_flag_is_usage_error(self, capsys, mode, flag):
        code, out, err = run(capsys, "estimate", "--n", "8", "--m", "20", "--hash", mode)
        assert code == 2
        assert out == ""
        assert err == f"usage error: --hash {mode} requires {flag}\n"

    def test_random_table_output(self, capsys):
        code, out, err = run(
            capsys,
            "estimate", "--n", "8", "--m", "200", "--seed", "3", "--hash", "random-table",
            "--universe", "256", "--table-seed", "5", "--dist", "zipf", "--zipf-exp", "1.3",
        )
        assert (code, err) == (0, "")
        assert out == (
            "empirical_cp 0.177186\np_norm_sq 0.186150\nrel_error 0.0481535\n"
            "collision_pairs 3526\nm 200\n"
        )

    def test_table_file_with_a_non_ascii_byte_names_the_file(self, capsys, tmp_path, no_stream):
        path = str(tmp_path / "table.txt")
        with open(path, "wb") as fh:
            fh.write(b"\xef\xbb\xbf0\n1\n")  # a UTF-8 byte-order mark
        code, out, err = run(capsys, "estimate", "--n", "2", "--m", "10", "--hash", "table-file",
                             "--table-file", path)
        assert (code, out) == (1, "")
        assert err == f"error: table file {path!r} has a non-ASCII byte\n"

    def test_table_file_output(self, capsys, tmp_path):
        path = tmp_path / "table.txt"
        path.write_text("0\n1\n1\n0\n2\n")
        code, out, err = run(
            capsys,
            "estimate", "--n", "3", "--m", "40", "--seed", "1", "--hash", "table-file",
            "--table-file", str(path), "--dist", "restricted", "--alpha", "0.5",
        )
        assert (code, err) == (0, "")
        assert out == (
            "empirical_cp 0.492308\np_norm_sq 0.500000\nrel_error 0.0153846\n"
            "collision_pairs 384\nm 40\n"
        )


class TestBound:
    def test_load_factor_text(self, capsys):
        code, out, _ = run(capsys, "bound", "--form", "load-factor", "--eps", "0.05", "--load", "1000")
        assert code == 0
        assert "error_bound 1.10000" in out
        assert "confidence 0.908794" in out

    def test_gaussian_json(self, capsys):
        code, out, _ = run(
            capsys,
            "bound", "--form", "gaussian", "--n", "100", "--eps", "0.1",
            "--delta", "1", "--s", "0", "--json",
        )
        assert code == 0
        data = json.loads(out)
        assert data["vacuous"] is True
        assert abs(data["error_bound"] - 0.3) < 1e-12

    def test_domain_error_names_constraint(self, capsys):
        code, _, err = run(capsys, "bound", "--form", "load-factor", "--eps", "0.5", "--load", "1000")
        assert code == 1
        assert "epsilon" in err

    def test_missing_flag_is_usage_error(self, capsys):
        code, _, err = run(capsys, "bound", "--form", "gaussian", "--eps", "0.1")
        assert code == 2
        assert "requires" in err

    def test_params_form(self, capsys):
        code, out, _ = run(
            capsys, "bound", "--form", "params", "--n", "64", "--load", "100",
            "--eps", "0.15", "--json",
        )
        assert code == 0
        data = json.loads(out)
        assert data["m"] == 6400
        assert abs(data["delta"] - 0.1949875002403854) < 1e-12

    def test_polynomial_uses_lambda_flag(self, capsys):
        code, out, _ = run(
            capsys, "bound", "--form", "polynomial", "--n", "10000", "--beta", "1",
            "--lambda", "1", "--json",
        )
        assert code == 0
        assert abs(json.loads(out)["error_bound"] - 0.03) < 1e-12

    @pytest.mark.parametrize(
        "flags, underflow",
        [
            (["gaussian", "--n", "30", "--eps", "0.1", "--delta", "1e10", "--s", "1"], False),
            (["simplified-gaussian", "--n", "1000000000", "--eps", "0.1", "--delta", "1e5"], True),
            (["polynomial", "--n", "1000000", "--beta", "1", "--lambda", "1e10"], True),
            (["exponent-form", "--n", "30", "--beta", "1", "--lambda", "1e10"], True),
        ],
    )
    def test_power_above_the_double_range_is_infinite(self, capsys, flags, underflow):
        code, out, err = run(capsys, "bound", "--form", *flags, "--json")
        assert (code, err) == (0, "")
        data = json.loads(out)
        assert data["underflow"] is underflow
        assert data["confidence"] == (1.0 if underflow else 1.0 - (10 / 9) * math.exp(-0.25))
        if flags[0] == "gaussian":  # n**delta = inf leaves only the leading 3*eps
            assert data["error_bound"] == 0.1 * 3.0

    @pytest.mark.parametrize(
        "command, flags",
        [
            ("bound", ["polynomial", "--beta", "1", "--lambda", "1"]),
            ("bound", ["exponent-form", "--beta", "1", "--lambda", "1"]),
            ("bound", ["gaussian", "--eps", "0.1", "--delta", "0.5", "--s", "1"]),
            ("bound", ["simplified-gaussian", "--eps", "0.1", "--delta", "0.5"]),
            ("bound", ["params", "--eps", "0.1", "--load", "200"]),
            ("ast-bound", ["eps", "--load", "200", "--v-norm", "0.1", "--p-norm", "0.1",
                           "--eps", "0.1"]),
            ("ast-bound", ["margin", "--load", "200", "--v-norm", "0.1", "--p-norm", "0.1",
                           "--s", "1"]),
        ],
    )
    def test_n_above_the_double_range_is_domain_error(self, capsys, command, flags):
        # n**x would raise OverflowError, and n**lambda read as +inf would zero the tail.
        code, out, err = run(capsys, command, "--form", *flags, "--n", str(10**400))
        assert (code, out) == (1, "")
        assert err == "error: n exceeds the double range (about 1.8e308)\n"

    def test_params_with_load_times_n_above_the_double_range(self, capsys):
        code, out, err = run(
            capsys, "bound", "--form", "params", "--n", "30", "--load", "1e308", "--eps", "0.3"
        )
        assert (code, out) == (1, "")
        assert err == "error: L*n must be finite, got inf\n"


class TestAstBound:
    def test_margin_form(self, capsys):
        code, out, _ = run(
            capsys,
            "ast-bound", "--form", "margin", "--load", "16", "--n", "100",
            "--v-norm", "0.1", "--p-norm", "0.1", "--s", "0",
        )
        assert code == 0
        assert "value 22.1660" in out

    def test_eps_form_requires_eps(self, capsys):
        code, _, err = run(
            capsys,
            "ast-bound", "--form", "eps", "--load", "16", "--n", "100",
            "--v-norm", "0.1", "--p-norm", "0.1",
        )
        assert code == 2
        assert "requires --eps" in err


_AST_NORMS = ["--load", "16", "--n", "100", "--v-norm", "0.1", "--p-norm", "0.1"]

# Each bound form with its flags, its text stdout and its --json stdout (as a
# dict), then flags that break one of its preconditions and the error printed.
_BOUND_FORMS = {
    "polynomial": (
        ["bound", "--form", "polynomial"], ["--n", "10000", "--beta", "1", "--lambda", "1"],
        "error_bound 0.0300000\nconfidence 0.999956\nvacuous false\nunderflow false\n",
        {"confidence": 0.9999555555555556, "error_bound": 0.03, "underflow": False,
         "vacuous": False},
        ["--n", "1", "--beta", "1", "--lambda", "1"], "n must be at least 2",
    ),
    "gaussian": (
        ["bound", "--form", "gaussian"],
        ["--n", "100", "--eps", "0.1", "--delta", "1", "--s", "2"],
        "error_bound 0.422000\nconfidence 0.591245\nvacuous false\nunderflow false\n",
        {"confidence": 0.591245065365064, "error_bound": 0.422, "underflow": False,
         "vacuous": False},
        ["--n", "100", "--eps", "0.1", "--delta", "1", "--s", "-1"], "s must be nonnegative",
    ),
    "simplified-gaussian": (
        ["bound", "--form", "simplified-gaussian"],
        ["--n", "64", "--eps", "0.15", "--delta", "0.5"],
        "error_bound 3.30000\nconfidence 0.999627\nvacuous false\nunderflow false\n",
        {"confidence": 0.999627263746775, "error_bound": 3.3, "underflow": False,
         "vacuous": False},
        ["--n", "24", "--eps", "0.15", "--delta", "0.5"], "n must exceed 24",
    ),
    "load-factor": (
        ["bound", "--form", "load-factor"], ["--eps", "0.05", "--load", "1000"],
        "error_bound 1.10000\nconfidence 0.908794\nvacuous false\nunderflow false\n",
        {"confidence": 0.9087944459734458, "error_bound": 1.1, "underflow": False,
         "vacuous": False},
        ["--eps", "0.5", "--load", "1000"], "epsilon must lie in (0, 1/3)",
    ),
    "exponent-form": (
        ["bound", "--form", "exponent-form"],
        ["--n", "10000", "--beta", "0.5", "--lambda", "0.75"],
        "error_bound 0.440000\nconfidence 0.999950\nvacuous false\nunderflow false\n",
        {"confidence": 0.9999495556335972, "error_bound": 0.44000000000000006,
         "underflow": False, "vacuous": False},
        ["--n", "10000", "--beta", "0.5", "--lambda", "0.5"], "lambda must exceed 1/2",
    ),
    "params": (
        ["bound", "--form", "params"], ["--n", "64", "--load", "100", "--eps", "0.15"],
        "n 64\nm 6400\nepsilon 0.150000\ndelta 0.194988\ns 3.00000\nL 100.000\n"
        "beta 0.912322\nlambda 0.694988\nm_exact 6400.00\n",
        {"L": 100.0, "beta": 0.9123218647220688, "delta": 0.19498750024038541,
         "epsilon": 0.15, "lambda": 0.6949875002403854, "m": 6400, "m_exact": 6400.0,
         "n": 64, "s": 3.0},
        ["--n", "64", "--load", "10", "--eps", "0.15"],
        "L*epsilon**2 must exceed 1 (delta must be positive)",
    ),
    "margin": (
        ["ast-bound", "--form", "margin", *_AST_NORMS], ["--s", "0"],
        "value 22.1660\nconfidence -0.111111\n",
        {"confidence": -0.11111111111111116, "value": 22.166010488516726},
        ["--s", "-1"], "s must be nonnegative",
    ),
    "eps": (
        ["ast-bound", "--form", "eps", *_AST_NORMS], ["--eps", "0.3"],
        "value 55.4000\nconfidence 0.736747\n",
        {"confidence": 0.7367469347976425, "value": 55.4},
        ["--eps", "0"], "epsilon must be positive",
    ),
}


def _missing_flag_cases():
    for form, (command, flags, *_) in _BOUND_FORMS.items():
        for i in range(0, len(flags), 2):
            yield form, [*command, *flags[:i], *flags[i + 2:]], flags[i]


def _foreign_flag_cases():
    # Each form with the first flag that another form of its command takes and it does not.
    for form, (command, flags, *_) in _BOUND_FORMS.items():
        others = [f for other in _BOUND_FORMS.values() if other[0][0] == command[0]
                  for f in other[1][::2]]
        flag = next(f for f in others if f not in flags)
        yield form, [*command, *flags, flag, "1"], flag


class TestBoundTable:
    """Stdout and exit codes of `bound` and `ast-bound`, pinned form by form."""

    @pytest.mark.parametrize("form", _BOUND_FORMS)
    def test_text_and_json(self, capsys, form):
        command, flags, text, as_json, _, _ = _BOUND_FORMS[form]
        assert run(capsys, *command, *flags) == (0, text, "")
        expected = json.dumps(as_json, indent=2, sort_keys=True) + "\n"
        assert run(capsys, *command, *flags, "--json") == (0, expected, "")

    @pytest.mark.parametrize("form", _BOUND_FORMS)
    def test_domain_error(self, capsys, form):
        command, _, _, _, bad_flags, message = _BOUND_FORMS[form]
        assert run(capsys, *command, *bad_flags) == (1, "", f"error: {message}\n")

    @pytest.mark.parametrize("form, argv, flag", _missing_flag_cases())
    def test_missing_flag(self, capsys, form, argv, flag):
        expected = f"usage error: --form {form} requires {flag}\n"
        assert run(capsys, *argv) == (2, "", expected)

    @pytest.mark.parametrize("form, argv, flag", _foreign_flag_cases())
    def test_flag_of_another_form_is_usage_error(self, capsys, form, argv, flag):
        expected = f"usage error: --form {form} takes no {flag}\n"
        assert run(capsys, *argv) == (2, "", expected)

    def test_form_choices_are_the_bound_table_names(self):
        subparsers = next(
            a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction)
        )

        def form_choices(command):
            actions = subparsers.choices[command]._actions
            return [c for a in actions if a.dest == "form" for c in a.choices]

        assert form_choices("bound") == [*experiments.BOUNDS["collision"], "params"]
        ast_names = [f"{choice}-form" for choice in form_choices("ast-bound")]
        assert ast_names == list(experiments.BOUNDS["ast"])


def _subparsers():
    return next(a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction))


# The parameter flags of each closed-form command, and the ones it requires.
_CLOSED_FORM_FLAGS = {
    "bound": ({"--n", "--eps", "--delta", "--s", "--beta", "--lambda", "--load"}, set()),
    "ast-bound": ({"--load", "--n", "--v-norm", "--p-norm", "--s", "--eps"},
                  {"--load", "--n", "--v-norm", "--p-norm"}),
    "combined-query": ({"--c", "--alpha", "--alpha2", "--eps", "--load"},
                       {"--c", "--alpha", "--alpha2", "--eps", "--load"}),
}


@pytest.mark.parametrize("command", cli._CLOSED_FORMS)
def test_closed_form_flags_are_the_parameters_of_its_forms(command):
    _, forms = cli._CLOSED_FORMS[command]
    params = [names for _, names in forms.values()]
    union = {name for names in params for name in names}
    actions = [a for a in _subparsers().choices[command]._actions if a.dest in union]
    assert {a.option_strings[0]: a.dest for a in actions} == {cli._flag(n): n for n in union}
    for a in actions:
        assert a.required == all(a.dest in names for names in params), a.dest
    assert {a.option_strings[0] for a in actions} == _CLOSED_FORM_FLAGS[command][0]
    assert {a.option_strings[0] for a in actions if a.required} == _CLOSED_FORM_FLAGS[command][1]
    others = {a.dest for a in _subparsers().choices[command]._actions} - union
    assert others == ({"help", "json"} if None in forms else {"help", "form", "json"})


# Every flag of the two spec-driven commands: option string -> (dest, type,
# required, default).  The spec flags come from experiments.SPECS, the others
# are written in cli.build_parser; none of them may drift.
_HELP_FLAG = {"-h": ("help", None, False, argparse.SUPPRESS)}
_ESTIMATE_FLAGS = {
    **_HELP_FLAG,
    "--dist": ("dist", None, False, "uniform"),
    "--zipf-exp": ("exponent", float, False, None),
    "--alpha": ("alpha", float, False, None),
    "--hash": ("hash", None, False, "identity"),
    "--universe": ("universe", int, False, None),
    "--table-seed": ("seed", int, False, None),
    "--table-file": ("path", None, False, None),
    "--n": ("n", int, True, None),
    "--m": ("m", int, False, None),
    "--load": ("load", float, False, None),
    "--seed": ("key_seed", int, False, 0),
    "--json": ("json", None, False, False),
}
_PERTURBATION_FLAGS = {
    **_HELP_FLAG,
    "--n": ("n", int, True, None),
    "--m": ("m", int, True, None),
    "--trials": ("trials", int, False, 1000),
    "--seed": ("key_seed", int, False, 0),
    "--universe": ("universe", int, False, None),
    "--table-seed": ("seed", int, False, None),
    "--json": ("json", None, False, False),
}


@pytest.mark.parametrize(
    "command, flags",
    [("estimate", _ESTIMATE_FLAGS), ("perturbation-check", _PERTURBATION_FLAGS)],
)
def test_spec_command_flags_are_pinned(command, flags):
    actions = _subparsers().choices[command]._actions
    got = {a.option_strings[0]: (a.dest, a.type, a.required, a.default) for a in actions}
    assert got == flags
    choices = {a.dest: list(a.choices) for a in actions if a.choices is not None}
    if command == "estimate":
        assert choices == {kind: list(experiments.SPECS[spec])
                           for kind, spec in (("dist", "distribution"), ("hash", "hash"))}


@pytest.mark.parametrize("command", list(_subparsers().choices))
def test_help_exits_zero(capsys, command):
    code, out, err = run(capsys, command, "--help")
    assert (code, err) == (0, "")
    assert out.startswith(f"usage: chainhash {command} ")


@pytest.mark.parametrize(
    "argv, flag",
    [
        (["estimate", "--n", "16", "--load", "inf"], "--load"),
        (["estimate", "--n", "16", "--m", "40", "--dist", "zipf", "--zipf-exp", "inf"],
         "--zipf-exp"),
        (["bound", "--form", "load-factor", "--eps", "0.05", "--load", "inf"], "--load"),
        (["bound", "--form", "load-factor", "--eps", "nan", "--load", "1000"], "--eps"),
        (["bound", "--form", "gaussian", "--n", "100", "--eps", "0.1", "--delta", "inf",
          "--s", "0"], "--delta"),
        (["bound", "--form", "polynomial", "--n", "10000", "--beta", "inf", "--lambda", "1"],
         "--beta"),
        (["bound", "--form", "exponent-form", "--n", "10000", "--beta", "0.5",
          "--lambda", "inf"], "--lambda"),
        (["bound", "--form", "params", "--n", "64", "--load=-inf", "--eps", "0.15"], "--load"),
        (["ast-bound", "--form", "eps", "--load", "inf", "--n", "100", "--v-norm", "0.1",
          "--p-norm", "0.1", "--eps", "0.05"], "--load"),
        (["ast-bound", "--form", "margin", *_AST_NORMS, "--s", "inf"], "--s"),
        (["ast-bound", "--form", "margin", "--load", "16", "--n", "100", "--v-norm", "nan",
          "--p-norm", "0.1", "--s", "0"], "--v-norm"),
        (["restricted-access", "--c", "5", "--alpha", "0.1", "--eps", "0.05",
          "--load", "1000", "inf"], "--load"),
        (["combined-query", "--c", "inf", "--alpha", "0.1", "--alpha2", "0.4",
          "--eps", "0.05", "--load", "1000"], "--c"),
    ],
)
def test_non_finite_flag_is_domain_error(capsys, argv, flag):
    code, out, err = run(capsys, *argv)
    assert (code, out) == (1, "")
    assert err.startswith(f"error: {flag} must be finite")


class TestWorkedExamples:
    def test_restricted_access_table(self, capsys):
        code, out, _ = run(
            capsys,
            "restricted-access", "--c", "5", "--alpha", "0.1", "--eps", "0.05",
            "--load", "1000", "10000",
        )
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0].split() == ["load", "center", "halfwidth", "confidence"]
        assert "15812.4" in lines[1] and "6324.56" in lines[1] and "0.908794" in lines[1]
        assert "158115" in lines[2] and "63245.6" in lines[2]

    def test_restricted_access_json(self, capsys):
        code, out, err = run(
            capsys,
            "restricted-access", "--c", "5", "--alpha", "0.1", "--eps", "0.05",
            "--load", "1000", "10000", "--json",
        )
        assert (code, err) == (0, "")
        rows = json.loads(out)
        assert [row["load"] for row in rows] == [1000.0, 10000.0]
        for row in rows:
            bound = search_time.restricted_access_bound(5.0, 0.1, 0.05, row.pop("load"))
            assert row == dataclasses.asdict(bound)

    def test_combined_query(self, capsys):
        code, out, _ = run(
            capsys,
            "combined-query", "--c", "5", "--alpha", "0.1", "--alpha2", "0.5",
            "--eps", "0.05", "--load", "1000", "--json",
        )
        assert code == 0
        data = json.loads(out)
        assert abs(data["value"] - 22136.943621178655) < 1e-6
        assert abs(data["confidence"] - 0.8175888919468916) < 1e-12


_SEED_CONFIG = {
    "kind": "collision", "n": 16, "m": 100, "trials": 3, "base_seed": 1,
    "distribution": {"name": "uniform"}, "hash": {"mode": "random-table", "universe": 64},
    "bound": {"name": "load-factor", "epsilon": 0.3},
}


@pytest.mark.parametrize("seed", [2**64, -(2**64), -1])
@pytest.mark.parametrize(
    "argv, flag",
    [
        (["estimate", "--n", "16", "--m", "100"], "--seed"),
        (["estimate", "--n", "16", "--m", "100", "--hash", "random-table", "--universe", "64"],
         "--table-seed"),
        (["perturbation-check", "--n", "16", "--m", "10", "--trials", "2"], "--seed"),
        (["perturbation-check", "--n", "16", "--m", "10", "--trials", "2", "--universe", "64"],
         "--table-seed"),
        (["experiment"], "--seed"),
    ],
)
def test_seed_flag_outside_64_bits_is_domain_error(capsys, tmp_path, no_stream, argv, flag, seed):
    # Reduced mod 2**64 such a seed would run as another one (2**64 as 0).
    if argv == ["experiment"]:
        (tmp_path / "cfg.json").write_text(json.dumps(_SEED_CONFIG))
        argv = ["experiment", "--config", str(tmp_path / "cfg.json")]
    code, out, err = run(capsys, *argv, f"{flag}={seed}")
    assert (code, out) == (1, "")
    assert err == f"error: {flag} must lie in [0, 2**64), got {seed}\n"


@pytest.mark.parametrize("seed", [2**64, -1])
@pytest.mark.parametrize("where", ["base_seed", "hash"])
def test_config_seed_outside_64_bits_is_domain_error(capsys, tmp_path, no_stream, where, seed):
    cfg = json.loads(json.dumps(_SEED_CONFIG))
    if where == "hash":
        cfg["hash"]["seed"] = seed
    else:
        cfg["base_seed"] = seed
    (tmp_path / "cfg.json").write_text(json.dumps(cfg))
    code, out, err = run(capsys, "experiment", "--config", str(tmp_path / "cfg.json"))
    assert (code, out) == (1, "")
    key = "seed" if where == "hash" else "base_seed"
    assert err == f"error: config key {key!r} must lie in [0, 2**64), got {seed}\n"


def test_seeds_at_the_ends_of_the_range_are_taken():
    for seed in (0, 2**64 - 1):
        cfg = experiments.ExperimentConfig.from_dict({**_SEED_CONFIG, "base_seed": seed})
        assert cfg.base_seed == seed
        h = experiments.hash_from_spec({"mode": "random-table", "universe": 64, "seed": seed}, 16)
        assert h.universe == 64


class TestExperimentCommand:
    def test_runs_config_and_writes_outputs(self, tmp_path, capsys):
        cfg = {
            "kind": "collision",
            "n": 32,
            "m": 320,
            "trials": 25,
            "base_seed": 5,
            "distribution": {"name": "zipf", "exponent": 0.5},
            "hash": {"mode": "identity"},
            "bound": {"name": "load-factor", "epsilon": 0.33},
        }
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(cfg))
        out_path = tmp_path / "report.json"
        csv_path = tmp_path / "trials.csv"
        code, out, _ = run(
            capsys,
            "experiment", "--config", str(cfg_path), "--out", str(out_path),
            "--csv", str(csv_path),
        )
        assert code == 0
        assert "violation_frequency" in out
        report = json.loads(out_path.read_text())
        assert report["aggregates"]["trials"] == 25
        assert csv_path.read_text().startswith("trial,value,rel_error,violation\n")

    def test_flag_overrides(self, tmp_path, capsys):
        cfg = {
            "kind": "collision",
            "n": 32,
            "m": 320,
            "trials": 25,
            "base_seed": 5,
            "distribution": {"name": "uniform"},
            "hash": {"mode": "identity"},
            "bound": {"name": "load-factor", "epsilon": 0.33},
        }
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(cfg))
        code, out, _ = run(
            capsys, "experiment", "--config", str(cfg_path), "--trials", "7", "--json"
        )
        assert code == 0
        assert json.loads(out)["aggregates"]["trials"] == 7

    def test_bad_config_is_domain_error(self, tmp_path, capsys):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({"kind": "collision"}))
        code, _, err = run(capsys, "experiment", "--config", str(cfg_path))
        assert code == 1
        assert "missing" in err

    @pytest.mark.parametrize(
        "text, got",
        [("5", "int"), ("true", "bool"), ("null", "NoneType"), ("[[1]]", "list"),
         ('"abc"', "str"), ('["kind", "n"]', "list")],
    )
    def test_config_that_is_not_an_object_is_domain_error(self, tmp_path, capsys, text, got):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(text)
        code, out, err = run(capsys, "experiment", "--config", str(cfg_path))
        assert (code, out) == (1, "")
        assert err == f"error: config must be a JSON object, got {got}\n"

    @pytest.mark.parametrize(
        "fields, key",
        [('"m": 64, "m": 640, "bound": {"name": "load-factor", "epsilon": 0.3}', "m"),
         ('"m": 640, "bound": {"name": "load-factor", "epsilon": 0.3, "epsilon": 0.2}', "epsilon")],
        ids=["top-level", "nested"],
    )
    def test_duplicate_config_key_is_domain_error(self, tmp_path, capsys, no_stream, fields, key):
        # json.load keeps the last value of a repeated key: m = 640 or epsilon 0.2 would run.
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(
            '{"kind": "collision", "n": 64, "trials": 3, "base_seed": 1, '
            '"distribution": {"name": "uniform"}, "hash": {"mode": "identity"}, ' + fields + "}"
        )
        code, out, err = run(capsys, "experiment", "--config", str(cfg_path))
        assert (code, out) == (1, "")
        assert err == f"error: config key {key!r} appears more than once\n"

    def test_fractional_config_count_is_domain_error(self, tmp_path, capsys):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(
            json.dumps(
                {
                    "kind": "collision", "n": 64.7, "m": 640, "trials": 5, "base_seed": 1,
                    "distribution": {"name": "uniform"}, "hash": {"mode": "identity"},
                    "bound": {"name": "load-factor", "epsilon": 0.3},
                }
            )
        )
        code, _, err = run(capsys, "experiment", "--config", str(cfg_path))
        assert code == 1
        assert "'n' must be an integer" in err

    @pytest.mark.parametrize(
        "spec_key, spec, named",
        [
            ("hash", {"mode": "random-table"}, "universe"),
            ("hash", {"mode": "random-table", "universe": 1000.7}, "universe"),
            ("hash", {"mode": "random-table", "universe": 1000, "seed": True}, "seed"),
            ("distribution", {"name": "zipf", "exponnt": 3.0}, "exponnt"),
            ("distribution", {"name": "zipf", "exponent": None}, "exponent"),
            ("distribution", {"name": "restricted", "alpha": "0.3"}, "alpha"),
            ("bound", {"name": "load-factor", "epsilon": True}, "epsilon"),
            ("hash", {"mode": "table-file", "path": 5}, "path"),
            ("distribution", 5, "distribution"),
            ("distribution", ["name"], "distribution"),
            ("hash", "identity", "hash"),
            ("bound", None, "bound"),
            ("access_pattern", ["uniform"], "access_pattern"),
        ],
    )
    def test_bad_nested_spec_is_domain_error(self, tmp_path, capsys, spec_key, spec, named):
        cfg = {
            "kind": "collision", "n": 64, "m": 640, "trials": 5, "base_seed": 1,
            "distribution": {"name": "uniform"}, "hash": {"mode": "identity"},
            "bound": {"name": "load-factor", "epsilon": 0.3},
        }
        cfg[spec_key] = spec
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(cfg))
        code, out, err = run(capsys, "experiment", "--config", str(cfg_path))
        assert (code, out) == (1, "")
        assert err.startswith("error: ") and repr(named) in err

    @pytest.mark.parametrize(
        "key, value, flags",
        [("csv", 5, []), ("output", ["a"], []), ("csv", 1.5, []), ("output", "", []),
         ("csv", "", []), ("output", None, ["--out", ""]), ("csv", None, ["--csv", ""])],
    )
    def test_non_string_output_path_is_domain_error(self, tmp_path, capsys, monkeypatch, key,
                                                    value, flags):
        def no_trials(*args):
            raise AssertionError("a trial ran")

        monkeypatch.setattr(experiments, "_run_trials", no_trials)
        cfg = {
            "kind": "collision", "n": 16, "m": 640, "trials": 3, "base_seed": 1,
            "distribution": {"name": "uniform"}, "hash": {"mode": "identity"},
            "bound": {"name": "load-factor", "epsilon": 0.3}, key: value,
        }
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(cfg))
        code, out, err = run(capsys, "experiment", "--config", str(cfg_path), *flags)
        assert (code, out) == (1, "")
        assert err.startswith("error: ") and repr(key) in err

    @pytest.mark.parametrize("key, flag", [("output", "--out"), ("csv", "--csv")])
    @pytest.mark.parametrize("by", ["config", "flag"])
    def test_output_naming_the_config_file_fails_before_any_trial(
        self, tmp_path, capsys, monkeypatch, key, flag, by
    ):
        def no_trials(*args):
            raise AssertionError("a trial ran")

        monkeypatch.setattr(experiments, "_run_trials", no_trials)
        cfg_path = tmp_path / "cfg.json"
        same = str(tmp_path / "." / "cfg.json")
        cfg = {
            "kind": "collision", "n": 16, "m": 640, "trials": 3, "base_seed": 1,
            "distribution": {"name": "uniform"}, "hash": {"mode": "identity"},
            "bound": {"name": "load-factor", "epsilon": 0.3},
        }
        argv = ["experiment", "--config", str(cfg_path)]
        if by == "config":
            cfg[key] = same
        else:
            argv += [flag, same]
        text = json.dumps(cfg)
        cfg_path.write_text(text)
        code, out, err = run(capsys, *argv)
        assert (code, out) == (1, "")
        assert err == f"error: config key {key!r} names the config file {str(cfg_path)!r}\n"
        assert cfg_path.read_text() == text and [p.name for p in tmp_path.iterdir()] == ["cfg.json"]

    @pytest.mark.parametrize(
        "argv",
        [
            ["experiment", "--config", "{tmp}/missing.json"],
            ["experiment", "--config", "{tmp}/cfg.json", "--out", "{tmp}/no/such/dir/x.json"],
            ["experiment", "--config", "{tmp}/cfg.json", "--csv", "{tmp}/no/such/dir/x.csv"],
            ["estimate", "--n", "4", "--m", "10", "--hash", "table-file",
             "--table-file", "{tmp}/missing.txt"],
        ],
    )
    def test_file_error_is_domain_error(self, tmp_path, capsys, no_stream, argv):
        # Each of these fails before the first draw: the fixture makes any draw raise.
        cfg = {
            "kind": "collision", "n": 16, "m": 640, "trials": 3, "base_seed": 1,
            "distribution": {"name": "uniform"}, "hash": {"mode": "identity"},
            "bound": {"name": "load-factor", "epsilon": 0.3},
        }
        (tmp_path / "cfg.json").write_text(json.dumps(cfg))
        code, _, err = run(capsys, *[arg.format(tmp=tmp_path) for arg in argv])
        assert code == 1
        assert err.startswith("error: ") and "No such file or directory" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("flag, key", [("--csv", "output"), ("--out", "csv")])
    def test_missing_output_directory_leaves_the_other_file_untouched(
        self, tmp_path, capsys, no_stream, flag, key
    ):
        kept = tmp_path / "kept.txt"
        kept.write_text("kept")
        cfg = {
            "kind": "collision", "n": 16, "m": 640, "trials": 3, "base_seed": 1,
            "distribution": {"name": "uniform"}, "hash": {"mode": "identity"},
            "bound": {"name": "load-factor", "epsilon": 0.3}, key: str(kept),
        }
        (tmp_path / "cfg.json").write_text(json.dumps(cfg))
        missing = tmp_path / "no" / "x.out"
        code, out, err = run(
            capsys, "experiment", "--config", str(tmp_path / "cfg.json"), flag, str(missing)
        )
        assert (code, out) == (1, "")
        assert err == f"error: [Errno 2] No such file or directory: {str(missing)!r}\n"
        assert kept.read_text() == "kept" and not missing.parent.exists()

    @pytest.mark.parametrize("flag", ["--out", "--csv"])
    @pytest.mark.parametrize("slash", ["", "/"])
    def test_output_path_that_is_a_directory_fails_before_sampling(
        self, tmp_path, capsys, no_stream, flag, slash
    ):
        cfg = {
            "kind": "collision", "n": 16, "m": 640, "trials": 3, "base_seed": 1,
            "distribution": {"name": "uniform"}, "hash": {"mode": "identity"},
            "bound": {"name": "load-factor", "epsilon": 0.3},
        }
        (tmp_path / "cfg.json").write_text(json.dumps(cfg))
        path = str(tmp_path) + slash
        code, out, err = run(capsys, "experiment", "--config", str(tmp_path / "cfg.json"), flag, path)
        assert (code, out) == (1, "")
        assert err == f"error: [Errno 21] Is a directory: {path!r}\n"

    def test_key_count_above_the_cap_is_domain_error(self, tmp_path, capsys, no_stream):
        cfg = {
            "kind": "collision", "n": 16, "m": MAX_SIZE + 1, "trials": 3, "base_seed": 1,
            "distribution": {"name": "uniform"}, "hash": {"mode": "identity"},
            "bound": {"name": "load-factor", "epsilon": 0.3},
        }
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(cfg))
        code, out, err = run(capsys, "experiment", "--config", str(cfg_path))
        assert (code, out) == (1, "")
        assert err == "error: m must be at most 2**24, the maximum key count, got 16777217\n"

    @pytest.mark.parametrize(
        "pattern", [{"name": "bogus", "zzz": 1}, {"name": "uniform"}, {"zzz": 1}]
    )
    def test_collision_config_with_an_access_pattern_is_domain_error(
        self, tmp_path, capsys, no_stream, pattern
    ):
        cfg = {
            "kind": "collision", "n": 16, "m": 640, "trials": 3, "base_seed": 1,
            "distribution": {"name": "uniform"}, "hash": {"mode": "identity"},
            "bound": {"name": "load-factor", "epsilon": 0.3}, "access_pattern": pattern,
        }
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(cfg))
        code, out, err = run(capsys, "experiment", "--config", str(cfg_path))
        assert (code, out) == (1, "")
        assert err == "error: collision experiments take no config key 'access_pattern'\n"

    @pytest.mark.parametrize(
        "output, csv",
        [("x.out", "x.out"), ("d/x", "d/./x"), ("d/x", "d/../d/x"), ("d/x", "d/link")],
    )
    @pytest.mark.parametrize("by", ["config", "flags"])
    def test_output_and_csv_naming_one_file_fail_before_any_trial(
        self, tmp_path, capsys, monkeypatch, output, csv, by
    ):
        def no_trials(*args):
            raise AssertionError("a trial ran")

        monkeypatch.setattr(experiments, "_run_trials", no_trials)
        (tmp_path / "d").mkdir()
        (tmp_path / "d" / "link").symlink_to("x")
        output, csv = str(tmp_path / output), str(tmp_path / csv)
        cfg = {
            "kind": "collision", "n": 16, "m": 640, "trials": 3, "base_seed": 1,
            "distribution": {"name": "uniform"}, "hash": {"mode": "identity"},
            "bound": {"name": "load-factor", "epsilon": 0.3},
        }
        argv = ["experiment", "--config", str(tmp_path / "cfg.json")]
        if by == "config":
            cfg.update(output=output, csv=csv)
        else:
            argv += ["--out", output, "--csv", csv]
        (tmp_path / "cfg.json").write_text(json.dumps(cfg))
        code, out, err = run(capsys, *argv)
        assert (code, out) == (1, "")
        assert err == f"error: config keys 'output' and 'csv' name the same file {csv!r}\n"
        assert sorted(p.name for p in tmp_path.rglob("*")) == ["cfg.json", "d", "link"]

    # Each kind's printed keys: kind, the bound block, the aggregates in their
    # report order, the duration and the output paths.
    PRINTED = {
        "collision": [
            "kind", "kind", "error_bound", "confidence", "vacuous", "underflow",
            "trials", "mean", "sample_std", "violations", "violation_frequency", "p_norm_sq",
            "duration_seconds", "output", "csv",
        ],
        "ast": [
            "kind", "kind", "value", "confidence",
            "trials", "mean", "sample_std", "exact_mean", "violations", "violation_frequency",
            "duration_seconds", "output", "csv",
        ],
    }

    @pytest.mark.parametrize(
        "cfg",
        [
            {
                "kind": "collision", "n": 16, "m": 640, "trials": 5, "base_seed": 1,
                "distribution": {"name": "uniform"}, "hash": {"mode": "identity"},
                "bound": {"name": "load-factor", "epsilon": 0.3},
            },
            {
                "kind": "ast", "n": 100, "m": 2000, "trials": 5, "base_seed": 9,
                "distribution": {"name": "uniform"}, "hash": {"mode": "identity"},
                "access_pattern": {"name": "restricted", "alpha": 0.1},
                "bound": {"name": "eps-form", "epsilon": 0.15},
            },
        ],
        ids=["collision", "ast"],
    )
    def test_text_output_prints_its_keys_in_order(self, tmp_path, capsys, cfg):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(cfg))
        code, out, _ = run(
            capsys, "experiment", "--config", str(cfg_path),
            "--out", str(tmp_path / "r.json"), "--csv", str(tmp_path / "r.csv"),
        )
        assert code == 0
        assert [line.split(" ", 1)[0] for line in out.splitlines()] == self.PRINTED[cfg["kind"]]


class TestPerturbationCommand:
    def test_key_count_above_the_cap_is_domain_error(self, capsys, no_stream):
        argv = ["perturbation-check", "--n", "16", "--m", str(MAX_SIZE + 1), "--trials", "2"]
        code, out, err = run(capsys, *argv)
        assert (code, out) == (1, "")
        assert err.startswith("error: --m gives m = 16777217") and "2**24" in err

    @pytest.mark.parametrize("m", ["0", "-4"])
    def test_key_count_below_one_is_domain_error(self, capsys, no_stream, m):
        argv = ["perturbation-check", "--n", "16", "--m", m, "--trials", "3"]
        expected = f"error: --m gives m = {m}; perturbation check undefined for m < 1\n"
        assert run(capsys, *argv) == (1, "", expected)

    def test_one_key_is_enough(self, capsys):
        argv = ["perturbation-check", "--n", "16", "--m", "1", "--trials", "3"]
        assert run(capsys, *argv) == (0, "pairs 3\nviolations 0\n", "")

    @pytest.mark.parametrize("trials", ["-3", "0"])
    def test_trial_count_below_one_is_domain_error(self, capsys, no_stream, trials):
        argv = ["perturbation-check", "--n", "16", "--m", "10", "--trials", trials]
        expected = f"error: --trials must be at least 1, got {trials}\n"
        assert run(capsys, *argv) == (1, "", expected)

    def test_reports_zero_violations(self, capsys):
        code, out, _ = run(
            capsys,
            "perturbation-check", "--n", "16", "--m", "50", "--trials", "200", "--seed", "3",
        )
        assert code == 0
        assert "violations 0" in out

    def test_universe_hashes_through_a_random_table(self, capsys, monkeypatch):
        seen = []
        check = experiments.slot_count_perturbation

        def spy(x, y, h):
            seen.append(h)
            return check(x, y, h)

        monkeypatch.setattr(experiments, "slot_count_perturbation", spy)
        argv = ["perturbation-check", "--n", "16", "--m", "50", "--trials", "300", "--seed", "3",
                "--universe", "64", "--table-seed", "2"]
        code, out, err = run(capsys, *argv)
        assert (code, out, err) == (0, "pairs 300\nviolations 0\n", "")
        code, out, err = run(capsys, *argv, "--json")
        assert (code, json.loads(out), err) == (0, {"pairs": 300, "violations": 0}, "")
        expected = HashModel.random_table(64, 16, 2).table
        assert len(seen) == 600
        assert all(np.array_equal(h.table, expected) for h in seen)


def _dests(command):
    subparsers = next(
        a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction)
    )
    return {a.dest for a in subparsers.choices[command]._actions}


_BUILT_BY_ESTIMATE = [
    (kind, name) for kind in ("hash", "distribution") for name in experiments.SPECS[kind]
]


@pytest.mark.parametrize("kind, name", _BUILT_BY_ESTIMATE)
def test_every_spec_key_without_a_default_has_an_estimate_flag(kind, name):
    # `estimate` supplies n and size itself; every other key is a flag or a default.
    params = experiments.SPECS[kind][name][1]
    needed = {key for key in params if key not in ("n", "size")} - set(experiments._SPEC_DEFAULTS)
    assert needed <= _dests("estimate")


_ESTIMATE = ["estimate", "--n", "16", "--m", "40"]


def test_a_new_distribution_spec_key_gets_an_estimate_flag(capsys, monkeypatch):
    # A SPECS entry is all a new distribution needs: its key becomes a flag.
    def spike(size, mass):
        weights = np.full(size, (1.0 - mass) / size)
        weights[0] += mass
        return ProbabilityVector(weights)

    monkeypatch.setitem(experiments.SPECS["distribution"], "spike", (spike, ("size", "mass")))
    code, out, err = run(capsys, *_ESTIMATE, "--dist", "spike", "--mass", "1", "--json")
    assert (code, err) == (0, "")
    assert json.loads(out)["p_norm_sq"] == 1.0
    assert run(capsys, *_ESTIMATE, "--mass", "1") == (
        2, "", "usage error: --dist uniform takes no --mass\n")


@pytest.mark.parametrize(
    "argv, error",
    [
        ([*_ESTIMATE, "--universe", "100"], "--hash identity takes no --universe"),
        ([*_ESTIMATE, "--table-seed", "5"], "--hash identity takes no --table-seed"),
        ([*_ESTIMATE, "--hash", "table-file", "--table-file", "t.txt", "--universe", "5"],
         "--hash table-file takes no --universe"),
        ([*_ESTIMATE, "--dist", "uniform", "--zipf-exp", "3"],
         "--dist uniform takes no --zipf-exp"),
        ([*_ESTIMATE, "--dist", "zipf", "--alpha", "0.3"], "--dist zipf takes no --alpha"),
        (["perturbation-check", "--n", "16", "--m", "10", "--trials", "3", "--table-seed", "9"],
         "perturbation-check without --universe takes no --table-seed"),
    ],
)
def test_flag_the_chosen_mode_does_not_take_is_usage_error(capsys, no_stream, argv, error):
    # The flag would be ignored: the run would not be the one the command line names.
    assert run(capsys, *argv) == (2, "", f"usage error: {error}\n")


@pytest.mark.parametrize(
    "flags",
    [
        ["--hash", "random-table", "--universe", "100", "--table-seed", "5"],
        ["--dist", "zipf", "--zipf-exp", "3"],
        ["--dist", "restricted", "--alpha", "0.5"],
        ["--dist", "pointmass"],
    ],
)
def test_flags_the_chosen_mode_takes_run(capsys, flags):
    code, out, err = run(capsys, *_ESTIMATE, *flags)
    assert (code, err) == (0, "") and out.startswith("empirical_cp ")


def test_restricted_alpha_defaults_to_one_tenth(capsys):
    argv = [*_ESTIMATE, "--dist", "restricted"]
    assert run(capsys, *argv) == run(capsys, *argv, "--alpha", "0.1")


def test_usage_errors_exit_two(capsys):
    assert main(["bogus-command"]) == 2
    assert main([]) == 2
    capsys.readouterr()  # swallow argparse noise
