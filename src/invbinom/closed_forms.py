"""Cardano auxiliary root, explicit closed forms, and root-of-unity folding
to general stride.

Everything here is driven by the auxiliary cubic root

    phi(x) = ((27 - 2x + 3*sqrt(81 - 12x)) / (2x)) ** (1/3).

Real arguments take the real, sign-preserving cube root (the known values
phi(1/2) = 2 + sqrt(3) and phi(-1/4) = -(5 + sqrt(21))/2 force that
choice); complex arguments take principal branches throughout. The branch
policy is validated numerically, by the radical-identity residual inside
``phi`` and by the imaginary-residue check after folding, rather than
trusted on formal grounds.

Closed forms exist for weights 0, 1, 2 at stride 1 (``s01``, ``s11``,
``s21``). ``fold`` reduces S(n, m; x) to m stride-1 evaluations at rotated
m-th roots of x (the real root of positive x correctly rounded), and answers
|x| < 1e-8 from exact leading terms.
"""

from __future__ import annotations

import cmath
import math
from typing import NamedTuple

from .errors import ArgumentError, BranchFailure, DomainError, checked_tol
from .polylog import root_of_unity
from .series import RADIUS_BASE, Evaluation, SeriesParams, _inside

SQRT3 = math.sqrt(3.0)
REAL_BRANCH = "real-cube-root"
PRINCIPAL_BRANCH = "principal-complex"
FOLD_IMAG_TOL = 1e-9
_RESIDUAL_TOL = 1e-9
_EPS = 2.220446049250313e-16

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


class CardanoRoot(NamedTuple):
    """phi(x) together with the branch that produced it."""

    x: complex
    phi: complex
    branch: str


def _real_cbrt(v: float) -> float:
    return math.copysign(abs(v) ** (1.0 / 3.0), v)


def phi(x: complex) -> CardanoRoot:
    """Cardano root phi(x); real branch on the real axis, principal otherwise.

    On (0, 27/4] the value is real with phi >= 1 and phi(27/4) = 1; for
    real x < 0 it is real and negative. Raises DomainError at x = 0 (phi
    diverges there; callers own the x -> 0 limit of whatever they build
    from it) and BranchFailure when the radical identity
    2x*phi**3 + 2x - 27 - 3*sqrt(81 - 12x) = 0 fails on the branch taken.
    """
    xc = complex(x)
    if xc == 0:
        raise DomainError("phi(x) diverges as x -> 0; the series limit there is 0")
    if abs(xc) < PHI_MIN_X:
        raise DomainError(f"phi(x) exceeds the binary64 range for |x| < {PHI_MIN_X:g}")
    # 81 - 12x as (81 - 8x) - 4x: near the branch point x = 27/4 both steps are exact
    # (8x and 4x are, and Sterbenz's lemma holds), where a rounded 12x would lose about
    # half the digits of s = sqrt(81 - 12x). For complex x this is the real part.
    xr = xc.real
    disc = (81.0 - 8.0 * xr) - 4.0 * xr
    if xc.imag == 0.0 and xr <= RADIUS_BASE:
        s = complex(math.sqrt(disc))
        value = complex(_real_cbrt((27.0 - 2.0 * xr + 3.0 * s.real) / (2.0 * xr)))
        branch = REAL_BRANCH
    else:
        s = cmath.sqrt(complex(disc, 0.0 - 12.0 * xc.imag))
        value = ((27.0 - 2.0 * xc + 3.0 * s) / (2.0 * xc)) ** (1.0 / 3.0)
        branch = PRINCIPAL_BRANCH
    residual = abs(2.0 * xc * value**3 + 2.0 * xc - 27.0 - 3.0 * s)
    if residual > _RESIDUAL_TOL * (1.0 + abs(xc)):
        raise BranchFailure(f"radical identity residual {residual:.3e} at x = {xc}")
    return CardanoRoot(xc, value, branch)


def _atan_log_parts(p: complex, real_branch: bool) -> tuple[complex, complex]:
    """arctan(sqrt3 / (2 phi - 1)) and log((phi**3 + 1) / (phi + 1)**3).

    The arctan argument has a removable point at phi = 1/2; the one-sided
    limit pi/2 is substituted there.
    """
    if real_branch:
        pr = p.real
        den = 2.0 * pr - 1.0
        at = complex(math.pi / 2 if den == 0.0 else math.atan(SQRT3 / den))
        lg = complex(math.log((pr**3 + 1.0) / (pr + 1.0) ** 3))
    else:
        den = 2.0 * p - 1.0
        at = complex(math.pi / 2) if den == 0 else cmath.atan(SQRT3 / den)
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
    """The correctly rounded m-th root of x > 0. x ** (1/m) is not, as 1/m is rounded
    ((R**3) ** (1/3) is 6.749999999999999), and one ulp of the root moves S(2, 1) near the
    branch point of phi by about sqrt(eps) relative. No root of a float is a midpoint
    between floats, so the exact comparisons below meet no ties."""
    xn, xd = x.as_integer_ratio()

    def beyond(a: float, b: float) -> bool:
        """True when the m-th root of x exceeds (a + b) / 2, in exact integer arithmetic."""
        an, ad = a.as_integer_ratio()
        bn, bd = b.as_integer_ratio()
        return xn * (2 * ad * bd) ** m > (an * bd + bn * ad) ** m * xd

    r = x ** (1.0 / m)
    while not beyond(below := math.nextafter(r, 0.0), r):
        r = below
    while beyond(r, above := math.nextafter(r, math.inf)):
        r = above
    return r


def _principal_root(xc: complex, m: int) -> complex:
    """Principal m-th root, correctly rounded and exactly real for positive real input."""
    if xc.imag == 0.0 and xc.real > 0.0:
        return complex(_real_root(xc.real, m))
    if m == 2:
        return cmath.sqrt(xc)
    return xc ** (1.0 / m)


def _discard_imag(total: complex, err: float, x: complex) -> tuple[complex, float]:
    """For real x the rotated terms pair up conjugate; enforce cancellation.

    The imaginary residue is checked against FOLD_IMAG_TOL, folded into the
    error estimate, and discarded.
    """
    resid = abs(total.imag)
    if resid > FOLD_IMAG_TOL * (1.0 + abs(total)):
        raise BranchFailure(f"imaginary residue {resid:.3e} after folding real x = {x.real!r}")
    return complex(total.real, 0.0), err + resid


def _pulled_in(n: int, arg: complex) -> complex:
    """A rotated root of summable x, moved back where rounding left it unsummable."""
    while abs(arg) >= RADIUS_BASE and not _inside(n, abs(arg), RADIUS_BASE):
        arg *= 1.0 - _EPS
    return arg


def stride_refusal(m: int) -> str | None:
    """Why ``fold`` refuses stride m, or None."""
    return None if 1 <= m <= 6 else f"folding stride must be in [1, 6], got {m}"


def fold(
    n: int,
    m: int,
    x: complex,
    inner: str = "closed-form",
    *,
    tol: float | None = None,
) -> Evaluation:
    """S(n, m; x) as m**(n-1) * sum_{j=1..m} S(n, 1; w**j * x**(1/m)).

    ``inner`` names the stride-1 route of ``routes.ROUTES`` whose kernel evaluates
    each term; ArgumentError when it refuses one. x**(1/m) is the principal root;
    w**j are the m-th roots of unity, exact on the axes so that real rotated
    arguments stay on the real branch of phi. Only the total is checked. Below
    |x| = 1e-8, once ``inner`` has accepted every root, the exact leading terms. ``tol``
    goes to the inner route, which takes its own default for None.
    """
    checked_tol(tol, None)
    reason = stride_refusal(m)
    if reason is not None:
        raise ArgumentError(reason)
    route = routes.ROUTES.get(inner)
    if route is None:
        raise ArgumentError(f"unknown inner route {inner!r}; choose from {routes.METHODS}")
    xc = complex(x)
    if n < 0 or not _inside(n, abs(xc), RADIUS_BASE**m):
        SeriesParams.require_summable(n, m, xc)  # raises
    if xc == 0:
        return Evaluation(0j, 0.0, "folding", 0)

    root = _principal_root(xc, m)
    tiny = abs(xc) < _TINY_X
    total = 0j
    err = 0.0
    work = 0
    for j in range(1, m + 1):
        arg = _pulled_in(n, root_of_unity(j, m) * root)
        reason = route.limits(n, 1, arg)  # arg != 0
        if reason is not None:
            raise ArgumentError(reason)
        if not tiny:
            value, e, w = route.kernel(n, 1, arg, tol, None)
            total += value
            err += e
            work += w
    if tiny:
        value, err, work = _leading_terms(n, m, xc)
        return Evaluation(value, err, "folding", work)
    scale = float(m ** (n - 1))
    total *= scale
    err *= scale
    if xc.imag == 0.0:
        total, err = _discard_imag(total, err, xc)
    return Evaluation(total, err, "folding", work)


# Last, as the route table imports the functions above; fold and the closed forms read it
# at call time.
from . import routes  # noqa: E402
