"""Command-line front end.

Subcommands:

* ``eval``   evaluate S(n, m; x) by one route (or "auto")
* ``verify`` run a verification suite; exit 3 on any failing entry
* ``table``  tabulate S(n, m; x) over a real grid of x

Data goes to stdout, diagnostics to stderr. Exit codes: 0 success,
1 malformed input, 2 domain violation (the message names the violated
bound), 3 verification failures. Identical invocations produce
byte-identical stdout, except the wall-time line in plain-text verify
summaries. Complex x is accepted as an ``a+bi`` literal and printed with
17 significant digits, which round-trips binary64 exactly.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import os
import re
import sys

from . import verify as verify_suites
from .errors import ArgumentError, DomainError, SeriesError
from .routes import METHODS, evaluate
from .series import Evaluation, SeriesParams

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DOMAIN = 2
EXIT_VERIFY = 3

OUTPUTS = ("text", "json", "csv")
CSV_HEADER = ("x", "value_re", "value_im", "abs_error_est", "method", "work")


class _Parser(argparse.ArgumentParser):
    """argparse exits with status 2 on bad usage; the contract here is 1. A token that starts
    -<digit> or -.<digit>, or is -i, -j, -inf or -nan in any case, is a value (argparse's
    pattern reads -1e-3, -1+2i and -inf as options)."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._negative_number_matcher = re.compile(r"^-(\.?\d|(i|j|inf|nan)$)", re.IGNORECASE)

    def error(self, message):  # noqa: A003 - argparse API
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(EXIT_USAGE)


def positive_int(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"not an integer: {text!r}") from None
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {value}")
    return value


def parse_complex(text: str) -> complex:
    """Accept 'a', 'bi', 'a+bi', 'a-bi' (a 'j' suffix works too)."""
    cleaned = text.strip().replace(" ", "").replace("i", "j").replace("I", "j")
    try:
        return complex(cleaned)
    except ValueError:
        raise argparse.ArgumentTypeError(f"not a complex literal: {text!r}") from None


def fmt_float(v: float) -> str:
    return f"{v + 0.0:.17g}"  # v + 0.0 normalizes signed zero


def fmt_complex(z: complex) -> str:
    if z.imag == 0.0:
        return fmt_float(z.real)
    sign = "+" if z.imag >= 0 else "-"
    return f"{fmt_float(z.real)}{sign}{fmt_float(abs(z.imag))}i"


def build_parser() -> _Parser:
    parser = _Parser(
        prog="invbinom",
        description="Evaluate and cross-verify the series S(n,m;x) = sum x^k / (k^n C(3mk,mk)).",
    )
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    common = dict(formatter_class=argparse.ArgumentDefaultsHelpFormatter)

    p_eval = sub.add_parser("eval", help="evaluate one value", **common)
    p_eval.add_argument("--n", type=int, required=True, help="polylog-like weight, n >= 0")
    p_eval.add_argument("--m", type=int, default=1, help="binomial stride, m >= 1")
    p_eval.add_argument("--x", type=parse_complex, required=True, help="argument, real or a+bi")
    p_eval.add_argument(
        "--method", choices=METHODS + ("auto",), default="auto", help="evaluation route"
    )
    p_eval.add_argument("--tol", type=float, default=None, help="tolerance override")
    p_eval.add_argument("--output", choices=OUTPUTS, default="text")

    p_verify = sub.add_parser("verify", help="run a verification suite", **common)
    p_verify.add_argument(
        "--suite", choices=verify_suites.SUITE_NAMES, default="all", help="which suite"
    )
    p_verify.add_argument("--tol", type=float, default=None, help="tolerance override")
    p_verify.add_argument("--output", choices=OUTPUTS, default="text")

    p_table = sub.add_parser("table", help="tabulate values over a real grid", **common)
    p_table.add_argument("--n", type=int, required=True)
    p_table.add_argument("--m", type=int, default=1)
    p_table.add_argument("--x-from", type=float, required=True, dest="x_from")
    p_table.add_argument("--x-to", type=float, required=True, dest="x_to")
    p_table.add_argument("--steps", type=positive_int, default=11, help="number of grid points")
    p_table.add_argument("--method", choices=METHODS + ("auto",), default="auto")
    p_table.add_argument("--tol", type=float, default=None)
    p_table.add_argument("--output", choices=OUTPUTS, default="text")
    return parser


def _csv_rows(rows: list[tuple[complex, Evaluation]]) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(CSV_HEADER)
    for x, (value, err, method, work) in rows:
        row = map(fmt_float, (value.real, value.imag, err))
        writer.writerow((fmt_complex(x), *row, method, work))
    return buf.getvalue()


def _row_json(x: complex, ev: Evaluation) -> dict:
    return {
        "x_re": x.real + 0.0,
        "x_im": x.imag + 0.0,
        "value_re": ev.value.real + 0.0,
        "value_im": ev.value.imag + 0.0,
        "abs_error_est": ev.abs_error_est,
        "method": ev.method,
        "work": ev.work,
    }


def _max_terms() -> int | None:
    """The term cap SERIES_MAX_TERMS sets for one eval or table, None when it is unset."""
    raw = os.environ.get("SERIES_MAX_TERMS")
    try:
        cap = None if raw is None else int(raw)
    except ValueError as exc:
        raise ArgumentError(f"SERIES_MAX_TERMS must be an integer, got {raw!r}") from exc
    if cap is not None and cap < 1:
        raise ArgumentError(f"SERIES_MAX_TERMS must be >= 1, got {cap}")
    return cap


def cmd_eval(req: argparse.Namespace) -> int:
    ev = evaluate(req.n, req.m, req.x, req.method, tol=req.tol, max_terms=_max_terms())
    if req.output == "json":
        payload = {"n": req.n, "m": req.m}
        payload.update(_row_json(req.x, ev))
        print(json.dumps(payload, indent=2))
    elif req.output == "csv":
        sys.stdout.write(_csv_rows([(req.x, ev)]))
    else:
        print(f"value = {fmt_complex(ev.value)}")
        print(f"abs_error_est = {fmt_float(ev.abs_error_est)}")
        print(f"method = {ev.method}")
        print(f"work = {ev.work}")
    return EXIT_OK


def _grid(x_from: float, x_to: float, steps: int) -> list[float]:
    if steps == 1:
        return [x_from]
    h = (x_to - x_from) / (steps - 1)
    xs = [x_from + i * h for i in range(steps)]
    xs[-1] = x_to  # exact endpoint
    return sorted(xs)


def cmd_table(req: argparse.Namespace) -> int:
    # the bounds first: an infinite one would make the grid's points NaN
    SeriesParams.require_summable(req.n, req.m, req.x_from)
    SeriesParams.require_summable(req.n, req.m, req.x_to)
    xs = _grid(req.x_from, req.x_to, req.steps)
    # reject the whole grid before evaluating anything
    for x in xs:
        SeriesParams.require_summable(req.n, req.m, x)
    cap = _max_terms()  # once for the whole table
    xs = list(map(complex, xs))
    rows = [(x, evaluate(req.n, req.m, x, req.method, tol=req.tol, max_terms=cap)) for x in xs]
    if req.output == "json":
        payload = {
            "n": req.n,
            "m": req.m,
            "method": req.method,
            "rows": [_row_json(x, ev) for x, ev in rows],
        }
        print(json.dumps(payload, indent=2))
    elif req.output == "csv":
        sys.stdout.write(_csv_rows(rows))
    else:
        print(f"{'x':>24} {'value':>24} {'abs_error_est':>14} {'method':>14} {'work':>8}")
        for x, ev in rows:
            print(
                f"{fmt_complex(x):>24} {fmt_complex(ev.value):>24} "
                f"{ev.abs_error_est:>14.3e} {ev.method:>14} {ev.work:>8}"
            )
    return EXIT_OK


def cmd_verify(req: argparse.Namespace) -> int:
    report = verify_suites.SUITES[req.suite](req.tol)
    if req.output == "json":
        print(report.serialize())
    elif req.output == "csv":
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(
            ("suite", "id", "n", "m", "x_re", "x_im", "lhs_re", "lhs_im", "rhs_re", "rhs_im",
             "abs_diff", "tol", "pass")
        )
        for e in report.entries:
            numbers = (e.x.real, e.x.imag, e.lhs.real, e.lhs.imag, e.rhs.real, e.rhs.imag)
            row = map(fmt_float, (*numbers, e.abs_diff, e.tol))
            writer.writerow((report.suite, e.id, e.n, e.m, *row, "true" if e.passed else "false"))
        sys.stdout.write(buf.getvalue())
    else:
        print(report.to_text())
    return EXIT_OK if report.all_passed else EXIT_VERIFY


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        ns = parser.parse_args(argv)
    except SystemExit as exc:  # --help exits 0; parse errors exit 1 via _Parser.error
        return int(exc.code or 0)
    try:
        if ns.command == "eval":
            return cmd_eval(ns)
        if ns.command == "table":
            return cmd_table(ns)
        return cmd_verify(ns)
    except DomainError as exc:
        print(f"domain error: {exc}", file=sys.stderr)
        return EXIT_DOMAIN
    except SeriesError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DOMAIN
    except BrokenPipeError:
        # downstream consumer went away (e.g. piping into head); die quietly
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_USAGE


if __name__ == "__main__":
    raise SystemExit(main())
