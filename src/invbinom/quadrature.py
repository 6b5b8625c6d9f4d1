"""Adaptive quadrature with a nested embedded rule.

A 7-point Gauss rule is embedded in its 15-point Kronrod extension. Every
subinterval carries its Kronrod value and |K15 - G7| as a (deliberately
conservative) local error estimate; refinement always bisects the interval
with the largest local error, which resolves integrable endpoint and
interior singularities without special casing. All nodes are interior, so
an integrand singular exactly at an endpoint is never sampled there.

Complex-valued integrands work unchanged: the rule is linear and the error
metric is the complex modulus. For a fixed tolerance the refinement order is
deterministic, so results are bit-reproducible run to run. One ``tol`` bounds
the error both absolutely and relative to the value (QUAD_TOL by default); the
subdivision budget is the constant MAX_SUBDIVISIONS.

Most integrals the package takes meet their tolerance on the first panel, so
that panel is returned at once, with no heap; the panel itself makes its 15
calls and both sums written out, in a fixed left-to-right order.
"""

from __future__ import annotations

import heapq
import math
from operator import attrgetter, itemgetter
from typing import Callable

from .errors import ArgumentError, ConvergenceError, checked_tol

_EPS = 2.220446049250313e-16

# 15-point Kronrod extension of 7-point Gauss, positive half of the nodes.
# Odd indices (and the centre) are the embedded Gauss nodes.
_XGK = (
    0.9914553711208126,
    0.9491079123427585,
    0.8648644233597691,
    0.7415311855993944,
    0.5860872354676911,
    0.4058451513773972,
    0.2077849550078985,
    0.0,
)
_WGK = (
    0.022935322010529225,
    0.06309209262997855,
    0.10479001032225018,
    0.14065325971552592,
    0.1690047266392679,
    0.19035057806478542,
    0.20443294007529889,
    0.20948214108472782,
)
_WG = (
    0.12948496616886969,
    0.2797053914892767,
    0.3818300505051189,
    0.4179591836734694,
)
_X0, _X1, _X2, _X3, _X4, _X5, _X6 = _XGK[:7]
_K0, _K1, _K2, _K3, _K4, _K5, _K6, _K7 = _WGK
_G0, _G1, _G2, _G3 = _WG


# Bisections ``adaptive_quad`` makes before it gives up with ConvergenceError.
MAX_SUBDIVISIONS = 2000

# The tolerance of every quadrature when its caller passes none.
QUAD_TOL = 1e-12

# Fields of a heap entry, and parts of a panel value, for the final resummation.
_VALUE, _ERR = itemgetter(4), itemgetter(5)
_REAL, _IMAG = attrgetter("real"), attrgetter("imag")


def _gk15(f: Callable[[float], complex], a: float, b: float):
    """One panel: (Kronrod value, error estimate, |K15|).

    The raw |K15 - G7| difference estimates the Gauss error, which badly
    overstates the Kronrod error on smooth panels; it is rescaled against
    the total variation of the integrand on the panel (the classical
    (200 d / v)**1.5 deflation), then floored at the rounding level.

    The 15 calls and both sums are written out, in the order of a loop over
    the node pairs from the outermost in: each sum adds its terms left to right.
    """
    c = 0.5 * (a + b)
    h = 0.5 * (b - a)
    fc = f(c)
    x = h * _X0
    f0a = f(c - x)
    f0b = f(c + x)
    x = h * _X1
    f1a = f(c - x)
    f1b = f(c + x)
    x = h * _X2
    f2a = f(c - x)
    f2b = f(c + x)
    x = h * _X3
    f3a = f(c - x)
    f3b = f(c + x)
    x = h * _X4
    f4a = f(c - x)
    f4b = f(c + x)
    x = h * _X5
    f5a = f(c - x)
    f5b = f(c + x)
    x = h * _X6
    f6a = f(c - x)
    f6b = f(c + x)
    s1 = f1a + f1b
    s3 = f3a + f3b
    s5 = f5a + f5b
    gk = (
        _K7 * fc
        + _K0 * (f0a + f0b)
        + _K1 * s1
        + _K2 * (f2a + f2b)
        + _K3 * s3
        + _K4 * (f4a + f4b)
        + _K5 * s5
        + _K6 * (f6a + f6b)
    )
    g = _G3 * fc + _G0 * s1 + _G1 * s3 + _G2 * s5
    value = gk * h
    resabs = abs(value)
    mean = gk * 0.5
    resasc = (
        _K7 * abs(fc - mean)
        + _K0 * (abs(f0a - mean) + abs(f0b - mean))
        + _K1 * (abs(f1a - mean) + abs(f1b - mean))
        + _K2 * (abs(f2a - mean) + abs(f2b - mean))
        + _K3 * (abs(f3a - mean) + abs(f3b - mean))
        + _K4 * (abs(f4a - mean) + abs(f4b - mean))
        + _K5 * (abs(f5a - mean) + abs(f5b - mean))
        + _K6 * (abs(f6a - mean) + abs(f6b - mean))
    ) * abs(h)
    err = abs((gk - g) * h)
    if resasc != 0.0 and err != 0.0:
        err = resasc * min(1.0, (200.0 * err / resasc) ** 1.5)
    err = max(err, 50.0 * _EPS * resabs)
    return value, err, resabs


def adaptive_quad(
    f: Callable[[float], complex],
    a: float,
    b: float,
    tol: float | None = None,
) -> tuple[complex, float, int]:
    """Integrate ``f`` over [a, b].

    Returns ``(value, abs_error_estimate, evaluations)``. Orientation is
    the caller's job: a > b raises, flip the interval and negate instead.

    Raises:
        ConvergenceError: MAX_SUBDIVISIONS bisections made before the requested
            tolerance (max of tol and tol * |value|) was met.
    """
    tol = checked_tol(tol, QUAD_TOL)
    if a == b:
        return 0j, 0.0, 0
    if a > b:
        raise ArgumentError("adaptive_quad requires a <= b; flip and negate at the call site")

    value, err, _ = _gk15(f, a, b)
    if not err > max(tol, tol * abs(value)):
        # one panel: the loop below would not run, and the math.fsum of one value is
        # that value (with -0.0 read as 0.0, which ``+ 0.0`` reproduces)
        return complex(value.real + 0.0, value.imag + 0.0), err, 15
    # heap entries: (-local_err, insertion_index, lo, hi, value, local_err)
    heap = [(-err, 0, a, b, value, err)]
    total_val = value
    total_err = err
    neval = 15
    counter = 1
    splits = 0
    while total_err > max(tol, tol * abs(total_val)):
        if splits >= MAX_SUBDIVISIONS:
            raise ConvergenceError(
                f"quadrature tolerance not met after {splits} subdivisions "
                f"(error estimate {total_err:.3e})"
            )
        _, _, lo, hi, v0, e0 = heapq.heappop(heap)
        if e0 == 0.0:
            # every remaining interval is frozen; nothing left to refine
            heapq.heappush(heap, (0.0, counter, lo, hi, v0, 0.0))
            raise ConvergenceError(
                "quadrature intervals reached float resolution before the "
                f"tolerance was met (error estimate {total_err:.3e})"
            )
        mid = 0.5 * (lo + hi)
        if mid <= lo or mid >= hi:
            # interval at float resolution: freeze it, keep its value
            heapq.heappush(heap, (0.0, counter, lo, hi, v0, 0.0))
            counter += 1
            total_err -= e0
            continue
        v1, e1, _ = _gk15(f, lo, mid)
        v2, e2, _ = _gk15(f, mid, hi)
        neval += 30
        splits += 1
        total_val += v1 + v2 - v0
        total_err += e1 + e2 - e0
        heapq.heappush(heap, (-e1, counter, lo, mid, v1, e1))
        heapq.heappush(heap, (-e2, counter + 1, mid, hi, v2, e2))
        counter += 2

    # Resummation over the final partition: math.fsum rounds the exact sum once, so
    # the order of the panels does not matter. A float panel value has .real and
    # .imag (0.0) as a complex one does.
    values = list(map(_VALUE, heap))
    re = math.fsum(map(_REAL, values))
    im = math.fsum(map(_IMAG, values))
    return complex(re, im), math.fsum(map(_ERR, heap)), neval
