"""Cardano auxiliary root, explicit closed forms, and root-of-unity folding
to general stride.

Everything here is driven by the auxiliary cubic root

    phi(x) = ((27 - 2x + 3*sqrt(81 - 12x)) / (2x)) ** (1/3).

Real arguments take the real, sign-preserving cube root (the known values
phi(1/2) = 2 + sqrt(3) and phi(-1/4) = -(5 + sqrt(21))/2 force that
choice); complex arguments take principal branches throughout. On the closed
disk |x| <= 27/4 that choice gives |phi| >= 1, the branch the closed forms
need, with equality only at x = 27/4; a tier-1 test pins the invariant on a
grid of the disk, its rim and both axes.

Closed forms exist for weights 0, 1, 2 at stride 1 (``s01``, ``s11``,
``s21``). ``fold`` reduces S(n, m; x) to m stride-1 evaluations at rotated
m-th roots of x, at real x to one per conjugate pair (the real root of |x|
correctly rounded), and answers |x| < 1e-8 from exact leading terms.
"""

from __future__ import annotations

import cmath
import math
from collections import namedtuple

from .errors import ArgumentError, DomainError, checked_number
from .polylog import root_of_unity
from .series import _EPS, RADIUS_BASE, Evaluation, _inside

SQRT3 = math.sqrt(3.0)
REAL_BRANCH = "real-cube-root"
PRINCIPAL_BRANCH = "principal-complex"

# Below this the closed forms and ``fold`` switch to exact leading series terms: the
# explicit expressions cancel to ~x/3 out of pieces of size x**(2/3), so
# their relative accuracy degrades like eps * |x|**(-1/3), and phi itself
# eventually overflows binary64; the m rotated terms of a fold cancel likewise.
_TINY_X = 1e-8
# Below this |x|, phi(x)**3 ~ 27 / |x| comes within a factor 10 of the binary64 range.
PHI_MIN_X = 1e-306


def _leading_terms(n: int, m: int, x: complex) -> tuple[complex, float, int]:
    """Three exact leading terms, as a kernel triple; for |x| < _TINY_X the remainder is ~|x|**4."""
    t1 = x / math.comb(3 * m, m)
    t2 = x * x / (2**n * math.comb(6 * m, 2 * m))
    t3 = x**3 / (3**n * math.comb(9 * m, 3 * m))
    err = 2.0 * abs(x) ** 4 / (4**n * math.comb(12 * m, 4 * m))
    # each term rounds a few times (the binomial, the power, the division), the sum twice
    err += 4.0 * _EPS * (abs(t1) + abs(t2) + abs(t3))
    return t1 + t2 + t3, err, 3


class CardanoRoot(namedtuple("CardanoRoot", "x phi branch")):
    """phi(x) together with the branch that produced it: (x, phi, branch)."""

    __slots__ = ()


def _real_cbrt(v: float) -> float:
    return math.copysign(abs(v) ** (1.0 / 3.0), v)


def _radical(xc: complex) -> complex:
    """sqrt(81 - 12x), the radical of ``phi``: real for real x <= 27/4, principal otherwise.

    81 - 12x is formed as (81 - 8x) - 4x: near the branch point x = 27/4 both steps are
    exact (8x and 4x are, and Sterbenz's lemma holds), where a rounded 12x would lose about
    half the digits of the root. For complex x this is the real part.
    """
    xr = xc.real
    disc = (81.0 - 8.0 * xr) - 4.0 * xr
    if xc.imag == 0.0 and xr <= RADIUS_BASE:
        return complex(math.sqrt(disc))
    return cmath.sqrt(complex(disc, 0.0 - 12.0 * xc.imag))


def phi(x: complex) -> CardanoRoot:
    """Cardano root phi(x); real branch on the real axis, principal otherwise.

    On (0, 27/4] the value is real with phi >= 1 and phi(27/4) = 1; for
    real x < 0 it is real and negative; elsewhere on |x| <= 27/4, |phi| > 1.
    Raises DomainError at x = 0 (phi diverges there; callers own the x -> 0
    limit of whatever they build from it), for x not finite, and where the
    value leaves the binary64 range (|x| < PHI_MIN_X, or |x| >~ 1.5e307,
    where 12x overflows in the radical); ArgumentError for a non-number.
    """
    xc = checked_number(x)
    if xc == 0:
        raise DomainError("phi(x) diverges as x -> 0; the series limit there is 0")
    if not cmath.isfinite(xc):  # before abs, as in ``require_summable``
        raise DomainError(f"phi(x) needs a finite x, got {xc!r}")
    if abs(xc) < PHI_MIN_X:
        raise DomainError(f"phi(x) exceeds the binary64 range for |x| < {PHI_MIN_X:g}")
    s = _radical(xc)
    xr = xc.real
    if xc.imag == 0.0 and xr <= RADIUS_BASE:
        value = complex(_real_cbrt((27.0 - 2.0 * xr + 3.0 * s.real) / (2.0 * xr)))
        branch = REAL_BRANCH
    else:
        value = ((27.0 - 2.0 * xc + 3.0 * s) / (2.0 * xc)) ** (1.0 / 3.0)
        branch = PRINCIPAL_BRANCH
    if not cmath.isfinite(value):
        raise DomainError(f"phi(x) exceeds the binary64 range at x = {xc!r}")
    return CardanoRoot(xc, value, branch)


def _atan_log_parts(p: complex, real_branch: bool) -> tuple[complex, complex]:
    """arctan(sqrt3 / (2 phi - 1)) and log((phi**3 + 1) / (phi + 1)**3).

    |2 phi - 1| >= 1 on the closed disk (phi >= 1 or phi < 0 on the real branch,
    |phi| >= 1 elsewhere), so the arctan argument stays finite.
    """
    if real_branch:
        pr = p.real
        at = complex(math.atan(SQRT3 / (2.0 * pr - 1.0)))
        lg = complex(math.log((pr**3 + 1.0) / (pr + 1.0) ** 3))
    else:
        at = cmath.atan(SQRT3 / (2.0 * p - 1.0))
        lg = cmath.log((p**3 + 1.0) / (p + 1.0) ** 3)
    return at, lg


def _closed_kernel(n: int, xc: complex) -> tuple[complex, float, int]:
    """The unchecked (value, abs_error_est, work) of s01, s11 and s21 (n = 0, 1, 2) at x != 0."""
    if abs(xc) < _TINY_X:
        return _leading_terms(n, 1, xc)
    root = phi(xc)
    real = root.branch == REAL_BRANCH
    at, lg = _atan_log_parts(root.phi, real)
    p = complex(root.phi.real) if real else root.phi
    value, err = (_s01, _s11, _s21)[n](xc, p, at, lg, real)
    return value, err, 1


def s21(x: complex) -> Evaluation:
    """Closed form of S(2, 1; x) on |x| <= 27/4:

        6*arctan(sqrt3/(2 phi - 1))**2 - log((phi**3+1)/(phi+1)**3)**2 / 2.

    x = 0 short-circuits to 0 (phi is undefined there, the series is not).
    """
    return routes.evaluate(2, 1, x, "closed-form")


def s11(x: complex) -> Evaluation:
    """Closed form of S(1, 1; x) on |x| < 27/4 (strictly inside)."""
    return routes.evaluate(1, 1, x, "closed-form")


def s01(x: complex) -> Evaluation:
    """Closed form of S(0, 1; x) on |x| < 27/4 (strictly inside).

    Four pieces: an arctan group, a log group, and the rational tail
    108 phi**3 / ((27 - 4x) (1 + phi**3)**2).
    """
    return routes.evaluate(0, 1, x, "closed-form")


def _s21(xc: complex, p: complex, at: complex, lg: complex, real: bool) -> tuple[complex, float]:
    value = 6.0 * at * at - 0.5 * lg * lg
    return value, 8.0 * _EPS * (6.0 * abs(at) ** 2 + 0.5 * abs(lg) ** 2) + _EPS


def _s11(xc: complex, p: complex, at: complex, lg: complex, real: bool) -> tuple[complex, float]:
    sq = complex(math.sqrt(27.0 - 4.0 * xc.real)) if real else cmath.sqrt(27.0 - 4.0 * xc)
    t_at = at * 18.0 * p / (1.0 - p + p * p)
    t_lg = lg * 3.0 * SQRT3 * p * (1.0 - p) / (1.0 + p**3)
    value = (t_at - t_lg) / sq
    return value, 8.0 * _EPS * (abs(t_at) + abs(t_lg)) / abs(sq) + _EPS


def _s01(xc: complex, p: complex, at: complex, lg: complex, real: bool) -> tuple[complex, float]:
    if real:
        q = complex(27.0 - 4.0 * xc.real)
        q32 = complex(q.real * math.sqrt(q.real))
    else:
        q = 27.0 - 4.0 * xc
        q32 = q**1.5
    p3 = p**3
    one_p3 = 1.0 + p3
    quad = 1.0 - p + p * p
    coeff_at = 36.0 * p * xc / (q32 * quad) - 18.0 * SQRT3 * (1.0 - p * p) * p / (quad * quad * q)
    coeff_lg = 9.0 * p * (1.0 - 2.0 * p - 2.0 * p3 + p**4) / (one_p3 * one_p3 * q) - 6.0 * SQRT3 * (
        1.0 - p
    ) * p * xc / (q32 * one_p3)
    tail = 108.0 * p3 / (q * one_p3 * one_p3)
    value = coeff_at * at + coeff_lg * lg + tail
    return value, 8.0 * _EPS * (abs(coeff_at * at) + abs(coeff_lg * lg) + abs(tail)) + _EPS


def _real_root(x: float, m: int) -> float:
    """The correctly rounded m-th root of x > 0: x ** (1/m) is not, as 1/m is rounded
    ((R**3) ** (1/3) is 6.749999999999999), and one ulp moves S(2, 1) near phi's branch point
    by about sqrt(eps). ``math.sqrt`` is (IEEE 754); above, r steps the way an exact test of
    r**m against x says it rounded, while the root lies past a midpoint (never on one)."""
    if m == 2:
        return math.sqrt(x)
    xn, xd = x.as_integer_ratio()

    def beyond(v: float, half: int) -> bool:
        """True when the m-th root of x exceeds v, or with half = 1 the midpoint above v."""
        f, e = math.frexp(v)  # v = j * 2**(e - 54) with j = f * 2**54 even
        c, s = (int(f * 2.0**54) + half) ** m * xd, m * (e - 54)
        return xn > c << s if s >= 0 else xn << -s > c

    r = x ** (1.0 / m)
    up = beyond(r, 0)  # r rounded down; else up, or it is the root
    while beyond(r if up else math.nextafter(r, 0.0), 1) == up:  # past the midpoint
        r = math.nextafter(r, math.inf if up else 0.0)
    return r


def _principal_root(xc: complex, m: int) -> complex:
    """Principal m-th root of x, which ``fold`` takes at complex x only."""
    if m == 2:
        return cmath.sqrt(xc)
    return xc ** (1.0 / m)


def _pulled_in(n: int, arg: complex) -> complex:
    """A rotated root of summable x, moved back where rounding left it unsummable."""
    while abs(arg) >= RADIUS_BASE and not _inside(n, abs(arg), RADIUS_BASE):
        arg *= 1.0 - _EPS
    return arg


def fold(
    n: int,
    m: int,
    x: complex,
    inner: str = "closed-form",
    *,
    tol: float | None = None,
) -> Evaluation:
    """S(n, m; x) as m**(n-1) * sum_{j=1..m} S(n, 1; w**j * x**(1/m)).

    ``evaluate`` on the folding route, over ``inner``: the stride-1 route of
    ``routes.ROUTES`` whose kernel evaluates each term (ArgumentError where it refuses
    one). At complex x, x**(1/m) is the principal root and w**j are the m-th roots of
    unity. At real x the roots pair up conjugate, and every stride-1 route gives
    S(n, 1; conj y) = conj S(n, 1; y) bit for bit: only the roots with Im >= 0 are
    evaluated, the real root of |x| correctly rounded and turned by exp(i pi k / m),
    exact on the axes so that real arguments stay on the real branch of phi. Each one off
    the axis counts twice its real part and twice its estimate, and the value is real.
    Only the total is checked. Below |x| = 1e-8, once ``inner`` has accepted every root,
    the exact leading terms. ``tol`` and the default term cap go to the inner route's kernel.
    """
    if inner not in routes.ROUTES:
        raise ArgumentError(f"unknown inner route {inner!r}; choose from {routes.METHODS}")
    folding = routes.ROUTES["folding"]._replace(
        kernel=lambda n, m, x, tol, cap: _fold_kernel(n, m, x, inner, tol, cap)
    )
    return routes._served(n, m, x, "folding", folding, tol, None)


def _fold_kernel(n: int, m: int, xc: complex, inner: str, tol, cap) -> tuple[complex, float, int]:
    """``fold``'s (value, abs_error_est, work) at summable x != 0 and 1 <= m <= 6."""
    route = routes.ROUTES[inner]
    paired = xc.imag == 0.0
    if paired:  # the roots with Im >= 0, w**k * |x|**(1/m) for w = exp(i pi / m)
        root, turn, ks = _real_root(abs(xc.real), m), 2 * m, range(xc.real < 0.0, m + 1, 2)
    else:
        root, turn, ks = _principal_root(xc, m), m, range(1, m + 1)
    tiny = abs(xc) < _TINY_X
    total = 0j
    err = 0.0
    work = 0
    for k in ks:
        arg = _pulled_in(n, root_of_unity(k, turn) * root)
        reason = route.limits(n, 1, arg)  # arg != 0
        if reason is not None:
            raise ArgumentError(reason)
        if not tiny:
            value, e, w = route.kernel(n, 1, arg, tol, cap)
            if paired:  # a root off the axis stands for its conjugate too
                value, e = (2.0 * value.real, 2.0 * e) if k % m else (value.real, e)
            total += value
            err += e
            work += w
    if tiny:
        return _leading_terms(n, m, xc)
    scale = float(m ** (n - 1))
    return total * scale, err * scale, work


# Last, as the route table imports the kernels above; fold and the closed forms read it at
# call time.
from . import routes  # noqa: E402
