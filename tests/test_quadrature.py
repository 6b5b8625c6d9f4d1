"""Adaptive Gauss-Kronrod kernel."""

import cmath
import heapq
import inspect
import math
from fractions import Fraction

import pytest

from invbinom import ArgumentError, ConvergenceError
from invbinom import quadrature
from invbinom.quadrature import _EPS, _WG, _WGK, _XGK, QUAD_FLOOR, QUAD_TOL, _gk21, adaptive_quad


def test_polynomial_is_exact_on_one_panel():
    value, err, neval = adaptive_quad(lambda t: 5 * t**4, 0.0, 1.0)
    assert value.real == pytest.approx(1.0, abs=1e-15)
    assert neval == 21


def test_smooth_oscillatory():
    value, err, _ = adaptive_quad(math.sin, 0.0, 10.0)
    exact = 1.0 - math.cos(10.0)
    assert abs(value.real - exact) <= max(err, 1e-13)


def test_log_singularity_at_endpoint():
    value, err, _ = adaptive_quad(math.log, 0.0, 1.0)
    assert abs(value.real + 1.0) < 1e-12
    assert err >= abs(value.real + 1.0)


def test_inverse_sqrt_singularity(monkeypatch):
    monkeypatch.setattr(quadrature, "MAX_SUBDIVISIONS", 5000)
    value, err, _ = adaptive_quad(lambda t: 1.0 / math.sqrt(t), 0.0, 1.0, tol=1e-9)
    assert abs(value.real - 2.0) < 1e-8


def test_complex_integrand():
    value, _, _ = adaptive_quad(lambda t: complex(math.cos(t), math.sin(t)), 0.0, 1.0)
    assert value.real == pytest.approx(math.sin(1.0), abs=1e-13)
    assert value.imag == pytest.approx(1.0 - math.cos(1.0), abs=1e-13)


def test_empty_interval_is_zero():
    assert adaptive_quad(math.sin, 2.0, 2.0) == (0j, 0.0, 0)


def test_reversed_interval_raises():
    with pytest.raises(ArgumentError):
        adaptive_quad(math.sin, 1.0, 0.0)


def test_budget_exhaustion_raises(monkeypatch):
    monkeypatch.setattr(quadrature, "MAX_SUBDIVISIONS", 5)
    with pytest.raises(ConvergenceError, match="after 5 subdivisions"):
        adaptive_quad(lambda t: 1.0 / math.sqrt(t), 0.0, 1.0, tol=QUAD_FLOOR)


def test_deterministic_rerun():
    f = lambda t: math.log(t) ** 2 / (1.0 + t)  # noqa: E731
    first = adaptive_quad(f, 0.0, 1.0)
    second = adaptive_quad(f, 0.0, 1.0)
    assert first == second


@pytest.mark.parametrize("a,b", [(0.0, math.nan), (math.nan, 1.0), (0.0, math.inf), (-math.inf, 0.0)])
def test_non_finite_bounds_raise(a, b):
    # a NaN bound gave ((nan+0j), nan, 21)
    with pytest.raises(ArgumentError, match="finite bounds"):
        adaptive_quad(math.sin, a, b)


def _opposite_infinities(t):
    # +inf and -inf at the centres of the two halves, which the first panel does not sample
    return math.inf if t == 0.25 else -math.inf if t == 0.75 else abs(t - 0.3) ** 0.5


@pytest.mark.parametrize(
    "f", [lambda t: math.nan, lambda t: math.inf, _opposite_infinities], ids=["nan", "inf", "+-inf"]
)
def test_non_finite_integrand_raises(f):
    # gave ((nan+0j), nan, 21), ((inf+0j), nan, 21) and a ValueError from math.fsum
    with pytest.raises(ConvergenceError, match="not finite"):
        adaptive_quad(f, 0.0, 1.0)


def test_tolerance_validation():
    for tol in (0.0, -1.0, math.nan):
        with pytest.raises(ArgumentError, match="tol must be positive"):
            adaptive_quad(math.sin, 0.0, 1.0, tol)
    # the rounding floor of the panel estimates: refused at once below it, met at it
    for tol in (1e-15, 1e-14, math.nextafter(QUAD_FLOOR, 0.0)):
        with pytest.raises(ArgumentError, match=f"tol >= QUAD_FLOOR = {QUAD_FLOOR:.3g}"):
            adaptive_quad(math.sin, 0.0, 1.0, tol)
    assert 50 * _EPS < QUAD_FLOOR < 1e-13
    assert adaptive_quad(math.sin, 0.0, 1.0, QUAD_FLOOR)[0] == pytest.approx(1 - math.cos(1))
    assert list(inspect.signature(adaptive_quad).parameters) == ["f", "a", "b", "tol"]


# -- the literals: exact on polynomials up to the rule's degree, and no further ---------


def _moment_errors(k):
    """|K21(t**k) - 2/(k+1)| and |G10(t**k) - 2/(k+1)| on [-1, 1], exactly, over the
    float literals."""
    xs = [Fraction(x) for x in _XGK]
    exact = Fraction(2, k + 1)
    kronrod = Fraction(_WGK[10]) * (k == 0) + sum(
        2 * Fraction(w) * x**k for w, x in zip(_WGK[:10], xs[:10])
    )
    gauss = sum(2 * Fraction(w) * x**k for w, x in zip(_WG, xs[1:10:2]))
    return abs(kronrod - exact), abs(gauss - exact)


def test_literals_integrate_monomials_to_the_rule_degree():
    assert len(_XGK) == len(_WGK) == 11 and len(_WG) == 5 and _XGK[10] == 0.0
    assert list(_XGK) == sorted(_XGK, reverse=True)
    for k in range(0, 31, 2):
        kronrod, gauss = _moment_errors(k)
        assert kronrod <= 4 * Fraction(_EPS), k
        if k <= 18:
            assert gauss <= 4 * Fraction(_EPS), k
    # odd powers vanish by symmetry; the first even power past each rule's degree misses
    assert _moment_errors(32)[0] > 1e-12
    assert _moment_errors(20)[1] > 1e-6


# -- bit identity with the plain loops ---------------------------------------------------


def _gk21_loop(f, a, b):
    """The panel as a loop over the node pairs, with a second loop for the variation."""
    c = 0.5 * (a + b)
    h = 0.5 * (b - a)
    fc = f(c)
    gk = _WGK[10] * fc
    g = 0.0
    pairs = []
    for i in range(10):
        xi = h * _XGK[i]
        f1 = f(c - xi)
        f2 = f(c + xi)
        pairs.append((f1, f2))
        gk += _WGK[i] * (f1 + f2)
        if i % 2 == 1:
            g += _WG[i // 2] * (f1 + f2)
    value = gk * h
    resabs = abs(value)
    mean = gk * 0.5
    resasc = _WGK[10] * abs(fc - mean)
    for i in range(10):
        f1, f2 = pairs[i]
        resasc += _WGK[i] * (abs(f1 - mean) + abs(f2 - mean))
    resasc *= abs(h)
    err = abs((gk - g) * h)
    if resasc != 0.0 and err != 0.0:
        err = resasc * min(1.0, (200.0 * err / resasc) ** 1.5)
    err = max(err, 50.0 * _EPS * resabs)
    return value, err, resabs


def _adaptive_quad_loop(f, a, b, tol=None):
    """Bisection of the worst panel until the tolerance holds, with no early exit, and a
    left-to-right resummation over the sorted partition."""
    tol = QUAD_TOL if tol is None else tol
    value, err, _ = _gk21_loop(f, a, b)
    heap = [(-err, 0, a, b, value, err)]
    total_val, total_err, neval, counter, splits = value, err, 21, 1, 0
    while total_err > max(tol, tol * abs(total_val)):
        if splits >= quadrature.MAX_SUBDIVISIONS:
            raise ConvergenceError("budget")
        _, _, lo, hi, v0, e0 = heapq.heappop(heap)
        if e0 == 0.0:
            raise ConvergenceError("frozen")
        mid = 0.5 * (lo + hi)
        if mid <= lo or mid >= hi:
            heapq.heappush(heap, (0.0, counter, lo, hi, v0, 0.0))
            counter += 1
            total_err -= e0
            continue
        v1, e1, _ = _gk21_loop(f, lo, mid)
        v2, e2, _ = _gk21_loop(f, mid, hi)
        neval += 42
        splits += 1
        total_val += v1 + v2 - v0
        total_err += e1 + e2 - e0
        heapq.heappush(heap, (-e1, counter, lo, mid, v1, e1))
        heapq.heappush(heap, (-e2, counter + 1, mid, hi, v2, e2))
        counter += 2
    panels = sorted(heap, key=lambda entry: entry[2])
    re = math.fsum(e[4].real if isinstance(e[4], complex) else e[4] for e in panels)
    im = math.fsum(e[4].imag if isinstance(e[4], complex) else 0.0 for e in panels)
    return complex(re, im), math.fsum(e[5] for e in panels), neval


def _bits(v):
    """A value's bits, with the sign of zero: 0.0 == -0.0, but not here."""
    v = complex(v)
    return v.real.hex(), v.imag.hex()


_INTEGRANDS = [
    ("poly", lambda t: 5 * t**4),
    ("sin", math.sin),
    ("log", math.log),
    ("inv-sqrt", lambda t: 1.0 / math.sqrt(t)),
    ("log2/(1+t)", lambda t: math.log(t) ** 2 / (1.0 + t)),
    ("zero", lambda t: 0.0),
    ("minus-zero", lambda t: -0.0),
    ("cis", lambda t: complex(math.cos(t), math.sin(t))),
    ("complex-log", lambda t: cmath.log(complex(t, -0.3)) ** 2),
    ("complex-pole", lambda t: 1.0 / complex(t - 0.5, 1e-3)),
    ("neg-zero-imag", lambda t: complex(t * t, -0.0)),
]
_INTERVALS = [(0.0, 1.0), (0.25, 0.2500001), (-3.0, 7.5), (1e-9, 2e-9), (0.5, 40.0)]


@pytest.mark.parametrize("name,f", _INTEGRANDS)
def test_panel_equals_the_loop_bit_for_bit(name, f):
    for a, b in _INTERVALS:
        if a <= 0.0 and name in ("log", "inv-sqrt", "log2/(1+t)"):
            a = 1e-3
        got = _gk21(f, a, b)
        ref = _gk21_loop(f, a, b)
        assert _bits(got[0]) == _bits(ref[0]), (name, a, b)
        assert got[1:] == ref[1:] and got[1].hex() == ref[1].hex(), (name, a, b)


@pytest.mark.parametrize("name,f", _INTEGRANDS)
@pytest.mark.parametrize("tol", [None, 1e-6, QUAD_FLOOR])
def test_adaptive_quad_equals_the_loop_bit_for_bit(name, f, tol):
    for a, b in _INTERVALS:
        if a <= 0.0 and name in ("log", "inv-sqrt", "log2/(1+t)"):
            a = 0.0 if name == "log" else 1e-3
        try:
            ref = _adaptive_quad_loop(f, a, b, tol)
        except ConvergenceError:
            with pytest.raises(ConvergenceError):
                adaptive_quad(f, a, b, tol)
            continue
        got = adaptive_quad(f, a, b, tol)
        assert isinstance(got[0], complex)
        assert _bits(got[0]) == _bits(ref[0]), (name, a, b)
        assert got[1].hex() == ref[1].hex() and got[2] == ref[2], (name, a, b)


def test_one_and_many_panels_are_both_covered():
    one = adaptive_quad(lambda t: 5 * t**4, 0.0, 1.0)
    many = adaptive_quad(math.log, 0.0, 1.0)
    assert one[2] == 21 and many[2] > 21
    assert _adaptive_quad_loop(lambda t: 5 * t**4, 0.0, 1.0)[2] == 21
