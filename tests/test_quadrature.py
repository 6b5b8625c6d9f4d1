"""Adaptive Gauss-Kronrod kernel."""

import math

import pytest

from invbinom import ArgumentError, ConvergenceError, QuadratureSpec, adaptive_quad


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


def test_inverse_sqrt_singularity():
    spec = QuadratureSpec(abs_tol=1e-9, rel_tol=1e-9, max_subdivisions=5000)
    value, err, _ = adaptive_quad(lambda t: 1.0 / math.sqrt(t), 0.0, 1.0, spec)
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


def test_budget_exhaustion_raises():
    spec = QuadratureSpec(abs_tol=1e-14, rel_tol=1e-14, max_subdivisions=5)
    with pytest.raises(ConvergenceError):
        adaptive_quad(lambda t: 1.0 / math.sqrt(t), 0.0, 1.0, spec)


def test_deterministic_rerun():
    f = lambda t: math.log(t) ** 2 / (1.0 + t)  # noqa: E731
    first = adaptive_quad(f, 0.0, 1.0)
    second = adaptive_quad(f, 0.0, 1.0)
    assert first == second


def test_spec_validation():
    with pytest.raises(ArgumentError):
        QuadratureSpec(abs_tol=0.0)
    with pytest.raises(ArgumentError):
        QuadratureSpec(max_subdivisions=20_000)
