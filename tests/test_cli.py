"""Command-line interface: exit codes, formats, reproducibility."""

import cmath
import contextlib
import csv
import hashlib
import io
import json
import math
import os
import shlex
from fractions import Fraction
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from invbinom.cli import (
    EXIT_DOMAIN,
    EXIT_OK,
    EXIT_USAGE,
    EXIT_VERIFY,
    fmt_complex,
    main,
    parse_complex,
)
from invbinom import ConvergenceError, cli, evaluate
from invbinom.routes import METHODS
from test_golden_cli import GOLDEN

GOLDEN_TABLE = "table --n 2 --m 1 --x-from -6.75 --x-to 6.75 --steps 101 --output csv"


# The "invbinom ..." lines of the README's command-line block, as argument lists.
README_COMMANDS = [
    shlex.split(line, comments=True)[1:]
    for line in (Path(__file__).resolve().parents[1] / "README.md")
    .read_text()
    .split("## Command line", 1)[1]
    .split("```")[1]
    .splitlines()
    if line.startswith("invbinom ")
]


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestParseComplex:
    def test_real(self):
        assert parse_complex("0.5") == 0.5 + 0j

    def test_a_plus_bi(self):
        assert parse_complex("1.5+2i") == 1.5 + 2j
        assert parse_complex("-0.25-0.1i") == -0.25 - 0.1j
        assert parse_complex("i") == 1j

    def test_j_suffix_accepted(self):
        assert parse_complex("2-3j") == 2 - 3j

    def test_rejects_garbage(self):
        with pytest.raises(Exception):
            parse_complex("one half")


class TestEval:
    def test_auto_resolves_closed_form(self, capsys):
        code, out, _ = run(capsys, "eval", "--n", "2", "--m", "1", "--x", "0.5")
        assert code == EXIT_OK
        assert "method = closed-form" in out
        value = float(out.splitlines()[0].split("=")[1])
        assert abs(value - (math.pi**2 / 24 - 0.5 * math.log(2) ** 2)) < 1e-12

    def test_zero_argument(self, capsys):
        code, out, _ = run(capsys, "eval", "--n", "2", "--m", "1", "--x", "0")
        assert code == EXIT_OK
        assert out.splitlines()[0] == "value = 0"

    def test_rim_with_weight_one_is_a_domain_error(self, capsys):
        code, out, err = run(capsys, "eval", "--n", "1", "--m", "1", "--x", "6.75")
        assert code == EXIT_DOMAIN
        assert out == ""
        assert "27/4" in err or "6.75" in err

    def test_outside_disk_names_the_bound(self, capsys):
        code, _, err = run(capsys, "eval", "--n", "2", "--m", "1", "--x", "7")
        assert code == EXIT_DOMAIN
        assert "6.75" in err

    def test_malformed_x_exits_one(self, capsys):
        code, _, err = run(capsys, "eval", "--n", "2", "--m", "1", "--x", "bogus")
        assert code == EXIT_USAGE
        assert "not a complex literal" in err

    def test_missing_required_flag_exits_one(self, capsys):
        code, _, _ = run(capsys, "eval", "--n", "2")
        assert code == EXIT_USAGE

    def test_explicit_method_is_respected(self, capsys):
        code, out, _ = run(
            capsys, "eval", "--n", "2", "--m", "1", "--x", "0.5", "--method", "direct-sum"
        )
        assert code == EXIT_OK
        assert "method = direct-sum" in out

    def test_incompatible_method_is_not_substituted(self, capsys):
        code, out, err = run(
            capsys, "eval", "--n", "3", "--m", "1", "--x", "0.5", "--method", "closed-form"
        )
        assert code == EXIT_DOMAIN
        assert "quad-cardano" in err  # message points at the serving route

    def test_closed_form_past_stride_one_points_at_folding(self, capsys):
        code, out, err = run(
            capsys, "eval", "--n", "2", "--m", "2", "--x", "20", "--method", "closed-form"
        )
        assert code == EXIT_DOMAIN
        assert out == ""
        assert "folding" in err

    def test_complex_argument_round_trip(self, capsys):
        code, out, _ = run(
            capsys, "eval", "--n", "2", "--m", "1", "--x", "0.5+0.25i", "--output", "json"
        )
        assert code == EXIT_OK
        payload = json.loads(out)
        assert payload["x_re"] == 0.5 and payload["x_im"] == 0.25
        assert payload["method"] == "closed-form"

    def test_csv_output_shape(self, capsys):
        code, out, _ = run(capsys, "eval", "--n", "1", "--m", "1", "--x", "0.5", "--output", "csv")
        assert code == EXIT_OK
        rows = list(csv.reader(io.StringIO(out)))
        assert rows[0] == ["x", "value_re", "value_im", "abs_error_est", "method", "work"]
        assert len(rows) == 2
        assert abs(float(rows[1][1]) - (math.pi / 10 - math.log(2) / 5)) < 1e-12

    def test_byte_identical_reruns(self, capsys):
        _, first, _ = run(capsys, "eval", "--n", "2", "--m", "2", "--x", "1", "--output", "json")
        _, second, _ = run(capsys, "eval", "--n", "2", "--m", "2", "--x", "1", "--output", "json")
        assert first == second

    @pytest.mark.parametrize("m", ["372", "400", "100000"])
    def test_huge_stride_answers_without_a_traceback(self, capsys, m):
        # (27/4)**m overflows binary64 from m = 372 on, C(3m, m) from m = 374;
        # S(2, m; 1) is then 1 / C(3m, m) to binary64 precision (0 from m ~ 390)
        code, out, err = run(capsys, "eval", "--n", "2", "--m", m, "--x", "1", "--output", "json")
        assert code == EXIT_OK and err == ""
        record = json.loads(out)
        k = int(m)
        assert record["method"] == "direct-sum"
        assert record["value_re"] == float(Fraction(1, math.comb(3 * k, k)))

    def test_env_cap_surfaces_as_error(self, capsys, monkeypatch):
        monkeypatch.setenv("SERIES_MAX_TERMS", "10")
        code, _, err = run(
            capsys, "eval", "--n", "2", "--m", "1", "--x", "6", "--method", "direct-sum"
        )
        assert code == EXIT_DOMAIN
        assert "10 terms" in err

    @pytest.mark.parametrize("method", ["folding", "auto"])
    def test_env_cap_reaches_the_direct_sums_of_a_fold(self, capsys, monkeypatch, method):
        # the CLI passes the cap as max_terms, and fold passes it to quad-cardano's direct
        # sums above weight 8: the library, given the same cap, raises the same error
        monkeypatch.setenv("SERIES_MAX_TERMS", "5")
        argv = ("eval", "--n", "9", "--m", "2", "--x", "45", "--method", method)
        code, out, err = run(capsys, *argv)
        assert code == EXIT_DOMAIN and out == ""
        with pytest.raises(ConvergenceError) as info:
            evaluate(9, 2, 45.0, method, max_terms=5)
        assert err == f"error: {info.value}\n"
        monkeypatch.delenv("SERIES_MAX_TERMS")
        code, out, _ = run(capsys, *argv, "--output", "json")
        ev = evaluate(9, 2, 45.0, method)
        assert code == EXIT_OK and json.loads(out)["work"] == ev.work


class TestEvalFuzz:
    @given(
        n=st.integers(0, 6),
        m=st.integers(1, 8),
        rho=st.floats(0.0, 1.0),
        theta=st.floats(allow_nan=False, allow_infinity=False),
    )
    @settings(max_examples=150, deadline=None)
    def test_auto_exits_cleanly(self, n, m, rho, theta):
        x = rho * (27 / 4) ** m * cmath.exp(1j * theta)
        argv = ["eval", "--n", str(n), "--m", str(m), "--x", fmt_complex(x), "--output", "json"]
        out, err = io.StringIO(), io.StringIO()
        with mock.patch.dict(os.environ, {"SERIES_MAX_TERMS": "20000"}):
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = main(argv)  # an uncaught exception fails the test
        assert code in (EXIT_OK, EXIT_USAGE, EXIT_DOMAIN), err.getvalue()
        assert "Traceback" not in err.getvalue()
        if code == EXIT_OK:
            assert json.loads(out.getvalue())["method"] in METHODS

    @given(
        method=st.sampled_from(["quad-cardano", "folding"]),
        n=st.integers(0, 6),
        m=st.integers(1, 8),
        rho=st.floats(0.0, 1.0),
        theta=st.floats(allow_nan=False, allow_infinity=False),
    )
    @settings(max_examples=150, deadline=None)
    def test_explicit_quadrature_methods_exit_cleanly(self, method, n, m, rho, theta):
        x = rho * (27 / 4) ** m * cmath.exp(1j * theta)
        argv = ["eval", "--n", str(n), "--m", str(m), "--x", fmt_complex(x)]
        argv += ["--method", method, "--output", "json"]
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)  # an uncaught exception fails the test
        assert code in (EXIT_OK, EXIT_USAGE, EXIT_DOMAIN), err.getvalue()
        assert "Traceback" not in err.getvalue()
        if code == EXIT_OK:
            assert json.loads(out.getvalue())["method"] == method


class TestTable:
    def test_thirteen_rows_with_zero_at_zero(self, capsys):
        code, out, _ = run(
            capsys,
            "table", "--n", "2", "--m", "1",
            "--x-from", "-6", "--x-to", "6", "--steps", "13",
            "--output", "csv",
        )
        assert code == EXIT_OK
        rows = list(csv.reader(io.StringIO(out)))
        assert len(rows) == 14  # header + 13 points
        xs = [float(r[0]) for r in rows[1:]]
        assert xs == sorted(xs)
        zero_row = rows[1 + xs.index(0.0)]
        assert float(zero_row[1]) == 0.0 and float(zero_row[2]) == 0.0

    def test_single_point(self, capsys):
        code, out, _ = run(
            capsys,
            "table", "--n", "0", "--m", "1",
            "--x-from", "0.5", "--x-to", "0.5", "--steps", "1",
            "--output", "csv",
        )
        assert code == EXIT_OK
        rows = list(csv.reader(io.StringIO(out)))
        assert len(rows) == 2
        expected = 2 / 25 - (6 / 125) * math.log(2) + (11 / 250) * math.pi
        assert abs(float(rows[1][1]) - expected) < 1e-12

    def test_grid_leaving_the_domain_exits_two(self, capsys):
        code, out, err = run(
            capsys,
            "table", "--n", "2", "--m", "1",
            "--x-from", "0", "--x-to", "7", "--steps", "8",
        )
        assert code == EXIT_DOMAIN
        assert out == ""
        assert "6.75" in err

    def test_rim_allowed_for_weight_two(self, capsys):
        code, out, _ = run(
            capsys,
            "table", "--n", "2", "--m", "1",
            "--x-from", "6.75", "--x-to", "6.75", "--steps", "1",
            "--output", "csv",
        )
        assert code == EXIT_OK

    def test_bad_steps_exits_one(self, capsys):
        code, _, _ = run(
            capsys,
            "table", "--n", "2", "--m", "1",
            "--x-from", "0", "--x-to", "1", "--steps", "0",
        )
        assert code == EXIT_USAGE

    @pytest.mark.parametrize(
        "argv",
        [
            GOLDEN_TABLE,
            "table --n 3 --m 2 --x-from -40 --x-to 40 --steps 101 --method direct-sum --output csv",
        ],
    )
    def test_a_table_reads_the_term_cap_once(self, argv, capsys, monkeypatch):
        reads, read = [], cli._max_terms

        def counted():
            reads.append(None)
            return read()

        monkeypatch.setattr(cli, "_max_terms", counted)
        code, out, _ = run(capsys, *argv.split())
        assert code == EXIT_OK and len(out.splitlines()) == 102
        assert len(reads) == 1
        if argv == GOLDEN_TABLE:
            assert hashlib.sha256(out.encode()).hexdigest() == GOLDEN[argv]

    def test_json_rows(self, capsys):
        code, out, _ = run(
            capsys,
            "table", "--n", "1", "--m", "2",
            "--x-from", "-1", "--x-to", "1", "--steps", "3",
            "--output", "json",
        )
        assert code == EXIT_OK
        payload = json.loads(out)
        assert [r["x_re"] for r in payload["rows"]] == [-1.0, 0.0, 1.0]
        assert payload["rows"][1]["value_re"] == 0.0


class TestNegativeLiterals:
    """argparse's own pattern for negative numbers (-12, -1.5) reads these as options;
    every one must be taken as the value it is, as with --x=<literal>."""

    @pytest.mark.parametrize(
        "literal", ["-1e-3", "-1E+0", "-1+2i", "-2i", "-.5", "-6.75", "-i", "-j", "-I", "-J"]
    )
    def test_eval_x(self, capsys, literal):
        code, out, err = run(capsys, "eval", "--n", "2", "--x", literal, "--output", "json")
        assert code == EXIT_OK, err
        payload = json.loads(out)
        assert complex(payload["x_re"], payload["x_im"]) == parse_complex(literal)
        assert run(capsys, "eval", "--n", "2", f"--x={literal}", "--output", "json")[1] == out

    def test_eval_x_minus_i_is_minus_one_j(self, capsys):
        code, out, err = run(capsys, "eval", "--n", "2", "--x", "-i", "--output", "json")
        assert code == EXIT_OK, err
        payload = json.loads(out)
        assert (payload["x_re"], payload["x_im"]) == (0.0, -1.0)

    @pytest.mark.parametrize("tol", ["-inf", "-nan", "-INF", "-NaN"])
    def test_tol_non_finite(self, capsys, tol):
        code, out, err = run(capsys, "eval", "--n", "2", "--x", "0.5", "--tol", tol)
        assert (code, out) == (EXIT_DOMAIN, "")
        assert "tol must be positive" in err
        assert run(capsys, "eval", "--n", "2", "--x", "0.5", f"--tol={tol}")[:2] == (code, out)

    def test_table_x_from_minus_inf(self, capsys):
        argv = ["table", "--n", "2", "--x-to", "1", "--steps", "3"]
        code, out, err = run(capsys, *argv, "--x-from", "-inf")
        assert (code, out) == (EXIT_DOMAIN, "")
        assert "expected one argument" not in err
        # the bound itself is named, not a NaN that the grid would make of it
        assert "inf" in err and "nan" not in err
        assert run(capsys, *argv, "--x-from=-inf")[:2] == (code, out)

    def test_table_x_from(self, capsys):
        argv = ["table", "--n", "1", "--x-to", "1e-3", "--steps", "3", "--output", "csv"]
        code, out, err = run(capsys, *argv, "--x-from", "-1e-3")
        assert code == EXIT_OK, err
        assert [row[0] for row in csv.reader(io.StringIO(out))][1:] == ["-0.001", "0", "0.001"]
        assert run(capsys, *argv, "--x-from=-1e-3")[1] == out


class TestVerify:
    def test_special_values_json(self, capsys):
        code, out, _ = run(
            capsys, "verify", "--suite", "special-values", "--tol", "1e-9", "--output", "json"
        )
        assert code == EXIT_OK
        payload = json.loads(out)
        assert payload["suite"] == "special-values"
        assert payload["summary"] == {"pass": 11, "fail": 0}

    def test_unknown_suite_exits_one(self, capsys):
        code, _, _ = run(capsys, "verify", "--suite", "bogus")
        assert code == EXIT_USAGE

    def test_deleted_suite_and_method_exit_one(self, capsys):
        code, out, _ = run(capsys, "verify", "--suite", "polylog")
        assert (code, out) == (EXIT_USAGE, "")
        code, out, _ = run(capsys, "eval", "--n", "2", "--m", "1", "--x", "0.5", "--method", "pfq")
        assert (code, out) == (EXIT_USAGE, "")

    @pytest.mark.parametrize("tol", ["-1", "0", "nan", "-1e-3"])
    def test_non_positive_tolerance_exits_two(self, capsys, tol):
        code, out, err = run(capsys, "verify", "--suite", "cross-routes", "--tol", tol)
        assert code == EXIT_DOMAIN
        assert out == ""
        assert "tol must be positive" in err

    def test_impossible_tolerance_exits_three(self, capsys):
        code, out, _ = run(
            capsys, "verify", "--suite", "borwein-girgensohn", "--tol", "1e-30"
        )
        assert code == EXIT_VERIFY

    def test_csv_output(self, capsys):
        code, out, _ = run(
            capsys, "verify", "--suite", "borwein-girgensohn", "--output", "csv"
        )
        assert code == EXIT_OK
        rows = list(csv.reader(io.StringIO(out)))
        assert rows[0][0] == "suite"
        assert len(rows) == 5

    def test_json_output_is_byte_identical(self, capsys):
        _, first, _ = run(capsys, "verify", "--suite", "cross-routes", "--output", "json")
        _, second, _ = run(capsys, "verify", "--suite", "cross-routes", "--output", "json")
        assert first == second

    def test_text_output_has_summary(self, capsys):
        code, out, _ = run(capsys, "verify", "--suite", "special-values")
        assert code == EXIT_OK
        assert "11 pass, 0 fail" in out


class TestHelp:
    def test_help_exits_zero(self, capsys):
        code, _, _ = run(capsys, "--help")
        assert code == 0

    def test_no_command_exits_one(self, capsys):
        code, _, _ = run(capsys)
        assert code == EXIT_USAGE


class TestComplexFormatting:
    def test_fmt_complex_round_trip(self):
        from invbinom.cli import fmt_complex

        for z in (0.5 + 0.25j, -1.5 - 2e-17j, 3j, -0.1 + 0j, 123456.789 - 0.333j):
            assert parse_complex(fmt_complex(z)) == z

    def test_eval_prints_a_plus_bi(self, capsys):
        code, out, _ = run(capsys, "eval", "--n", "2", "--m", "1", "--x", "1+1i")
        assert code == EXIT_OK
        first = out.splitlines()[0]
        assert first.startswith("value = ")
        assert first.endswith("i")

    def test_table_text_output(self, capsys):
        code, out, _ = run(
            capsys,
            "table", "--n", "2", "--m", "1",
            "--x-from", "0", "--x-to", "1", "--steps", "2",
        )
        assert code == EXIT_OK
        assert out.splitlines()[0].split() == ["x", "value", "abs_error_est", "method", "work"]


class TestToleranceThreading:
    def test_loose_tol_reduces_quadrature_work(self, capsys):
        _, tight, _ = run(
            capsys, "eval", "--n", "2", "--m", "1", "--x", "6",
            "--method", "quad-polylog", "--output", "json",
        )
        _, loose, _ = run(
            capsys, "eval", "--n", "2", "--m", "1", "--x", "6",
            "--method", "quad-polylog", "--tol", "1e-6", "--output", "json",
        )
        assert json.loads(loose)["work"] < json.loads(tight)["work"]
        assert abs(json.loads(loose)["value_re"] - json.loads(tight)["value_re"]) < 1e-6


class TestReadmeCommands:
    def test_the_block_is_found(self):
        assert len(README_COMMANDS) >= 5

    @pytest.mark.parametrize("argv", README_COMMANDS, ids=" ".join)
    def test_readme_command_exits_zero(self, capsys, argv):
        code, out, err = run(capsys, *argv)
        assert code == EXIT_OK, err
        assert out
