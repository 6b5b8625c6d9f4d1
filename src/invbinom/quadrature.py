"""Adaptive quadrature with a nested embedded rule.

The panel is QUADPACK's qk21 (Piessens, de Doncker-Kapenga, Ueberhuber and Kahaner,
1983), the default rule of its qags: a 10-point Gauss rule embedded in its 21-point
Kronrod extension. Every subinterval carries its Kronrod value and |K21 - G10| as a
(deliberately conservative) local error estimate; refinement always bisects the interval
with the largest local error, which resolves integrable endpoint and interior
singularities without special casing, an interior one slowly, as bisection never lands
on it (quad-polylog maps the one on its rim to an endpoint). All nodes are interior, so
an integrand singular exactly at an endpoint is never sampled there.

Complex-valued integrands work unchanged: the rule is linear and the error
metric is the complex modulus. For a fixed tolerance the refinement order is
deterministic, so results are bit-reproducible run to run. One ``tol`` bounds
the error both absolutely and relative to the value (QUAD_TOL by default, and
never below QUAD_FLOOR, the rounding floor of the panel estimates); the
subdivision budget is the constant MAX_SUBDIVISIONS.

Most integrals the package takes meet their tolerance on the first panel, so
that panel is returned at once, with no heap; the panel itself makes its 21
calls and both sums written out, in a fixed left-to-right order.
"""

from __future__ import annotations

import cmath
import heapq
import math
from collections.abc import Callable
from operator import attrgetter, itemgetter

from .errors import ArgumentError, ConvergenceError, checked_tol
from .series import _EPS

# QUADPACK qk21: the 21-point Kronrod extension of 10-point Gauss, positive half of the
# nodes (the centre last). Odd indices are the embedded Gauss nodes; the centre is not one.
_XGK = (
    0.995657163025808080735527280689003,
    0.973906528517171720077964012084452,
    0.930157491355708226001207180059508,
    0.865063366688984510732096688423493,
    0.780817726586416897063717578345042,
    0.679409568299024406234327365114874,
    0.562757134668604683339000099272694,
    0.433395394129247190799265943165784,
    0.294392862701460198131126603103866,
    0.148874338981631210884826001129720,
    0.0,
)
_WGK = (
    0.011694638867371874278064396062192,
    0.032558162307964727478818972459390,
    0.054755896574351996031381300244580,
    0.075039674810919952767043140916190,
    0.093125454583697605535065465083366,
    0.109387158802297641899210590325805,
    0.123491976262065851077958109831074,
    0.134709217311473325928054001771707,
    0.142775938577060080797094273138717,
    0.147739104901338491374841515972068,
    0.149445554002916905664936468389821,
)
_WG = (
    0.066671344308688137593568809893332,
    0.149451349150580593145776339657697,
    0.219086362515982043995534934228163,
    0.269266719309996355091226921569469,
    0.295524224714752870173892994651338,
)
_X0, _X1, _X2, _X3, _X4, _X5, _X6, _X7, _X8, _X9 = _XGK[:10]
_K0, _K1, _K2, _K3, _K4, _K5, _K6, _K7, _K8, _K9, _K10 = _WGK
_G0, _G1, _G2, _G3, _G4 = _WG

# Integrand calls of one panel (a pair per node off the centre, and the centre), and of a
# bisection, which replaces one panel by two.
_PANEL_CALLS = 2 * len(_XGK) - 1
_SPLIT_CALLS = 2 * _PANEL_CALLS

# Bisections ``adaptive_quad`` makes before it gives up with ConvergenceError.
MAX_SUBDIVISIONS = 2000

# The tolerance of every quadrature when its caller passes none.
QUAD_TOL = 1e-12

# Each panel's error estimate is at least _PANEL_FLOOR times its absolute integral (the
# rounding level), so no tol much below it can be met: 1e-14 ran out of subdivisions at
# S(3,1;6.0) by the old Cardano-root quadrature, and 1.5e-14 met every one of 315 points
# of the two quadrature routes (quad-polylog at n 1..6, quad-two-term at n 2..6 on the real
# axis; |x|/(27/4) from 0.01 to the rim, five angles). QUAD_FLOOR, twice the panel floor
# (about 2.2e-14), is the least tol a quadrature accepts.
_PANEL_FLOOR = 50.0 * _EPS
QUAD_FLOOR = 2.0 * _PANEL_FLOOR

# Fields of a heap entry, and parts of a panel value, for the final resummation.
_VALUE, _ERR = itemgetter(4), itemgetter(5)
_REAL, _IMAG = attrgetter("real"), attrgetter("imag")


def _gk21(f: Callable[[float], complex], a: float, b: float):
    """One panel: (Kronrod value, error estimate, |K21|).

    The raw |K21 - G10| difference estimates the Gauss error, which badly
    overstates the Kronrod error on smooth panels; it is rescaled against
    the total variation of the integrand on the panel (the classical
    (200 d / v)**1.5 deflation), then floored at the rounding level.

    The 21 calls and both sums are written out, in the order of a loop over
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
    x = h * _X7
    f7a = f(c - x)
    f7b = f(c + x)
    x = h * _X8
    f8a = f(c - x)
    f8b = f(c + x)
    x = h * _X9
    f9a = f(c - x)
    f9b = f(c + x)
    s1 = f1a + f1b
    s3 = f3a + f3b
    s5 = f5a + f5b
    s7 = f7a + f7b
    s9 = f9a + f9b
    gk = (
        _K10 * fc
        + _K0 * (f0a + f0b)
        + _K1 * s1
        + _K2 * (f2a + f2b)
        + _K3 * s3
        + _K4 * (f4a + f4b)
        + _K5 * s5
        + _K6 * (f6a + f6b)
        + _K7 * s7
        + _K8 * (f8a + f8b)
        + _K9 * s9
    )
    g = _G0 * s1 + _G1 * s3 + _G2 * s5 + _G3 * s7 + _G4 * s9
    value = gk * h
    resabs = abs(value)
    mean = gk * 0.5
    resasc = (
        _K10 * abs(fc - mean)
        + _K0 * (abs(f0a - mean) + abs(f0b - mean))
        + _K1 * (abs(f1a - mean) + abs(f1b - mean))
        + _K2 * (abs(f2a - mean) + abs(f2b - mean))
        + _K3 * (abs(f3a - mean) + abs(f3b - mean))
        + _K4 * (abs(f4a - mean) + abs(f4b - mean))
        + _K5 * (abs(f5a - mean) + abs(f5b - mean))
        + _K6 * (abs(f6a - mean) + abs(f6b - mean))
        + _K7 * (abs(f7a - mean) + abs(f7b - mean))
        + _K8 * (abs(f8a - mean) + abs(f8b - mean))
        + _K9 * (abs(f9a - mean) + abs(f9b - mean))
    ) * abs(h)
    err = abs((gk - g) * h)
    if resasc != 0.0 and err != 0.0:
        err = resasc * min(1.0, (200.0 * err / resasc) ** 1.5)
    err = max(err, _PANEL_FLOOR * resabs)
    return value, err, resabs


def quad_tol(tol: float | None) -> float:
    """The tolerance rule of every quadrature: ``checked_tol`` with the default QUAD_TOL,
    and ArgumentError for a tol below QUAD_FLOOR, which no quadrature can meet."""
    tol = checked_tol(tol, QUAD_TOL)
    if tol < QUAD_FLOOR:
        raise ArgumentError(
            f"quadrature needs tol >= QUAD_FLOOR = {QUAD_FLOOR:.3g}, its rounding floor; "
            f"got {tol!r}"
        )
    return tol


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
        ArgumentError: tol not > 0 (NaN included) or below QUAD_FLOOR, or a bound not
            finite.
        ConvergenceError: MAX_SUBDIVISIONS bisections made before the requested
            tolerance (max of tol and tol * |value|) was met, or an estimate that is
            not finite (the integrand returned NaN or an infinity).
    """
    tol = quad_tol(tol)
    if not (math.isfinite(a) and math.isfinite(b)):
        raise ArgumentError(f"adaptive_quad needs finite bounds, got [{a!r}, {b!r}]")
    if a == b:
        return 0j, 0.0, 0
    if a > b:
        raise ArgumentError("adaptive_quad requires a <= b; flip and negate at the call site")

    value, err, _ = _gk21(f, a, b)
    if err <= max(tol, tol * abs(value)):
        # one panel: the loop below would not run, and the math.fsum of one value is
        # that value (with -0.0 read as 0.0, which ``+ 0.0`` reproduces). A panel value
        # that is not finite has a NaN or infinite err, so it goes on to the check below.
        return complex(value.real + 0.0, value.imag + 0.0), err, _PANEL_CALLS
    # heap entries: (-local_err, insertion_index, lo, hi, value, local_err)
    heap = [(-err, 0, a, b, value, err)]
    total_val = value
    total_err = err
    neval = _PANEL_CALLS
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
        v1, e1, _ = _gk21(f, lo, mid)
        v2, e2, _ = _gk21(f, mid, hi)
        neval += _SPLIT_CALLS
        splits += 1
        total_val += v1 + v2 - v0
        total_err += e1 + e2 - e0
        heapq.heappush(heap, (-e1, counter, lo, mid, v1, e1))
        heapq.heappush(heap, (-e2, counter + 1, mid, hi, v2, e2))
        counter += 2

    # A panel that is not finite makes the running sums NaN or infinite for good, and
    # panels of +inf and -inf would stop math.fsum below with a ValueError.
    if not (cmath.isfinite(total_val) and math.isfinite(total_err)):
        raise ConvergenceError(
            f"quadrature estimate {total_val!r} not finite (error estimate {total_err!r})"
        )
    # Resummation over the final partition: math.fsum rounds the exact sum once, so
    # the order of the panels does not matter. A float panel value has .real and
    # .imag (0.0) as a complex one does.
    values = list(map(_VALUE, heap))
    re = math.fsum(map(_REAL, values))
    im = math.fsum(map(_IMAG, values))
    return complex(re, im), math.fsum(map(_ERR, heap)), neval
