"""Acceptance gate: one test per criterion, at the stated tolerances.

Run with ``pytest tests/test_acceptance.py -s`` to see one pass/fail line
per criterion; each test also asserts, so the suite fails loudly.
"""

import cmath
import math
import time

from invbinom import (
    SPECIAL_VALUES,
    METHODS,
    evaluate,
    fold,
    phi,
    quad_polylog,
    quad_two_term,
    s01,
    s11,
    s21,
    sum_direct,
)
from invbinom.cli import main
from invbinom.series import _first_term
from test_series import _series_terms


def report(number: int, description: str, failures: list) -> None:
    status = "PASS" if not failures else "FAIL"
    print(f"\nACCEPTANCE {number}: {status} - {description}")
    assert not failures, failures[:10]


def test_criterion_1_special_values():
    """Exact forms vs the matching series route: 1e-12 interior, 1e-9 rim, < 5 s."""
    failures = []
    start = time.perf_counter()
    for rec in SPECIAL_VALUES:
        exact = rec.exact
        if rec.boundary:
            got = quad_polylog(rec.params.n, rec.params.x).value
            tol = 1e-9
        else:
            got = sum_direct(rec.params.n, rec.params.m, rec.params.x).value
            tol = 1e-12
        diff = abs(exact - got)
        if diff > tol:
            failures.append((rec.id, diff))
    elapsed = time.perf_counter() - start
    if elapsed >= 5.0:
        failures.append(("runtime", elapsed))
    report(1, f"11 special values at stated tolerances in {elapsed:.2f} s", failures)


def test_criterion_2_two_term_route_equivalence():
    """Two-term quadrature vs direct summation (1e-8), and vs the polylog
    route at the rim (1e-8); this pins the angular-limit orientation."""
    failures = []
    for n in (2, 3, 4):
        for x in (0.5, 1.0, 3.0, 6.0):
            ref = sum_direct(n, 1, x).value
            got = quad_two_term(n, x).value
            if abs(got - ref) > 1e-8:
                failures.append((n, x, abs(got - ref)))
    rim_a = quad_two_term(2, 27 / 4).value
    rim_b = quad_polylog(2, 27 / 4).value
    if abs(rim_a - rim_b) > 1e-8:
        failures.append(("rim", abs(rim_a - rim_b)))
    report(2, "two-term route equivalence, orientation fixed at n = 3", failures)


def test_criterion_3_folding():
    """Folding vs direct summation at 1e-10; folded real results are exactly
    real after the residue check."""
    failures = []
    cases = [(2, 2), (2, 3), (1, 2), (3, 2)]
    for n, m in cases:
        for x in (-1.0, 1.0, 6.0, 100.0):
            if abs(x) > (27 / 4) ** m:
                continue
            ref = sum_direct(n, m, x).value
            inner = "closed-form" if n <= 2 else "quad-polylog"
            for ev in (fold(n, m, x, inner), fold(n, m, x, "direct-sum")):
                if abs(ev.value - ref) > 1e-10:
                    failures.append((n, m, x, ev.method, abs(ev.value - ref)))
                if ev.value.imag != 0.0:
                    failures.append((n, m, x, "imag", ev.value.imag))
    report(3, "folding vs direct sums", failures)


def test_criterion_6_derivative_ladder():
    """Central differences reproduce the next closed form down at 1e-6."""
    failures = []
    h = 1e-5
    for x in (-1.0, 0.5, 2.0, 5.0):
        slope = (s21(x + h).value - s21(x - h).value) / (2 * h)
        diff = abs(x * slope - s11(x).value)
        if diff > 1e-6:
            failures.append(("weight 2 -> 1", x, diff))
        slope = (s11(x + h).value - s11(x - h).value) / (2 * h)
        diff = abs(x * slope - s01(x).value)
        if diff > 1e-6:
            failures.append(("weight 1 -> 0", x, diff))
    report(6, "derivative ladder by finite differences", failures)


def test_criterion_7_property_suite():
    """First term vs exact binomials, term recurrence vs exact binomials, radical
    residual, and x = 0 short-circuits on every route."""
    failures = []
    for k in range(1, 51):
        exact = 1.0 / math.comb(3 * k, k)
        if abs(_first_term(k, 1.0 + 0j) - exact) > 1e-12 * exact:
            failures.append(("first term", k))
    for m in (1, 2, 3):
        for x in (1.0, -2.5, 0.4 + 0.3j):
            terms = _series_terms(3, m, x, 30)
            for k, t in enumerate(terms, start=1):
                exact = x**k / (k**3 * math.comb(3 * m * k, m * k))
                if abs(t - exact) > 1e-13 * (1.0 + abs(exact)):
                    failures.append(("recurrence", m, x, k))
    for x in (0.5, 6.0, -0.25, 27 / 4, 1 + 1j, -2 - 3j, 0.1j):
        x = complex(x)
        rad = cmath.sqrt(81.0 - 12.0 * x)
        resid = abs(2 * x * phi(x).phi ** 3 + 2 * x - 27 - 3 * rad)
        if not resid <= 1e-9 * (1.0 + abs(x)):
            failures.append(("radical residual", x, resid))
    for method in METHODS:
        ev = evaluate(2, 2, 0.0, method)
        if ev.value != 0 or ev.abs_error_est != 0.0:
            failures.append(("zero", method))
    report(7, "first term, term recurrence, radical residual, zero short-circuit", failures)


def test_criterion_8_full_verify_suite(capsys):
    """`verify --suite all` exits 0 in under 60 seconds, single-threaded."""
    start = time.perf_counter()
    code = main(["verify", "--suite", "all"])
    elapsed = time.perf_counter() - start
    capsys.readouterr()
    failures = []
    if code != 0:
        failures.append(("exit", code))
    if elapsed >= 60.0:
        failures.append(("runtime", elapsed))
    with capsys.disabled():
        report(8, f"verify --suite all exits {code} in {elapsed:.1f} s", failures)
