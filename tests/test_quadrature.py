"""Adaptive Gauss-Kronrod kernel."""

import cmath
import heapq
import inspect
import math

import pytest

from invbinom import ArgumentError, ConvergenceError, adaptive_quad
from invbinom import quadrature
from invbinom.quadrature import _EPS, _WG, _WGK, _XGK, QUAD_TOL, _gk15


def test_polynomial_is_exact_on_one_panel():
    value, err, neval = adaptive_quad(lambda t: 5 * t**4, 0.0, 1.0)
    assert value.real == pytest.approx(1.0, abs=1e-15)
    assert neval == 15


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
        adaptive_quad(lambda t: 1.0 / math.sqrt(t), 0.0, 1.0, tol=1e-14)


def test_deterministic_rerun():
    f = lambda t: math.log(t) ** 2 / (1.0 + t)  # noqa: E731
    first = adaptive_quad(f, 0.0, 1.0)
    second = adaptive_quad(f, 0.0, 1.0)
    assert first == second


def test_tolerance_validation():
    for tol in (0.0, -1.0, math.nan):
        with pytest.raises(ArgumentError, match="tol must be positive"):
            adaptive_quad(math.sin, 0.0, 1.0, tol)
    assert list(inspect.signature(adaptive_quad).parameters) == ["f", "a", "b", "tol"]


# -- bit identity with the plain loops ---------------------------------------------------


def _gk15_loop(f, a, b):
    """The panel as a loop over the node pairs, with a second loop for the variation."""
    c = 0.5 * (a + b)
    h = 0.5 * (b - a)
    fc = f(c)
    gk = _WGK[7] * fc
    g = _WG[3] * fc
    pairs = []
    for i in range(7):
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
    resasc = _WGK[7] * abs(fc - mean)
    for i in range(7):
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
    value, err, _ = _gk15_loop(f, a, b)
    heap = [(-err, 0, a, b, value, err)]
    total_val, total_err, neval, counter, splits = value, err, 15, 1, 0
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
        v1, e1, _ = _gk15_loop(f, lo, mid)
        v2, e2, _ = _gk15_loop(f, mid, hi)
        neval += 30
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
        got = _gk15(f, a, b)
        ref = _gk15_loop(f, a, b)
        assert _bits(got[0]) == _bits(ref[0]), (name, a, b)
        assert got[1:] == ref[1:] and got[1].hex() == ref[1].hex(), (name, a, b)


@pytest.mark.parametrize("name,f", _INTEGRANDS)
@pytest.mark.parametrize("tol", [None, 1e-6, 1e-14])
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
    assert one[2] == 15 and many[2] > 15
    assert _adaptive_quad_loop(lambda t: 5 * t**4, 0.0, 1.0)[2] == 15
