"""Registry of the explicit special values, as tiny expression trees.

Each record carries the parameters of one evaluable series value and an
exact-form descriptor: a nested-tuple expression over rationals, pi, log,
arctan, arccot, square roots, cube roots and integer powers. ``render``
turns a descriptor into its binary64 value; no symbolic engine is
involved, and the rendering is reproducible from the descriptor alone.

The registry is data compiled into the package on purpose: these values
are the whole point of the library and must not drift from the code.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .series import SeriesParams, _on_rim

Expr = tuple

# -- constructors -----------------------------------------------------------


def rat(p: int, q: int = 1) -> Expr:
    return ("rat", p, q)


def pi() -> Expr:
    return ("pi",)


def add(*terms: Expr) -> Expr:
    return ("add",) + terms


def mul(*factors: Expr) -> Expr:
    return ("mul",) + factors


def neg(e: Expr) -> Expr:
    return ("neg", e)


def powi(e: Expr, k: int) -> Expr:
    return ("powi", e, k)


def log(e: Expr) -> Expr:
    return ("log", e)


def atan(e: Expr) -> Expr:
    return ("atan", e)


def acot(e: Expr) -> Expr:
    return ("acot", e)


def sqrt(e: Expr) -> Expr:
    return ("sqrt", e)


def cbrt(e: Expr) -> Expr:
    return ("cbrt", e)


def sub(a: Expr, b: Expr) -> Expr:
    return add(a, neg(b))


def div(a: Expr, b: Expr) -> Expr:
    return mul(a, powi(b, -1))


def render(expr: Expr) -> float:
    """Evaluate a descriptor in binary64."""
    op = expr[0]
    if op == "rat":
        return expr[1] / expr[2]
    if op == "pi":
        return math.pi
    if op == "add":
        return math.fsum(render(e) for e in expr[1:])
    if op == "mul":
        out = 1.0
        for e in expr[1:]:
            out *= render(e)
        return out
    if op == "neg":
        return -render(expr[1])
    if op == "powi":
        return render(expr[1]) ** expr[2]
    if op == "log":
        return math.log(render(expr[1]))
    if op == "atan":
        return math.atan(render(expr[1]))
    if op == "acot":
        return math.atan2(1.0, render(expr[1]))
    if op == "sqrt":
        return math.sqrt(render(expr[1]))
    if op == "cbrt":
        v = render(expr[1])
        return math.copysign(abs(v) ** (1.0 / 3.0), v)
    raise ValueError(f"unknown expression node {op!r}")


@dataclass(frozen=True)
class IdentityRecord:
    """One verifiable special value: parameters, exact form, short label."""

    id: str
    params: SeriesParams
    exact: Expr
    label: str

    def value(self) -> float:
        return render(self.exact)

    @property
    def boundary(self) -> bool:
        return _on_rim(self.params.m, self.params.x)


# -- shared subexpressions --------------------------------------------------

_SQRT3 = sqrt(rat(3))
_LOG2 = log(rat(2))
_CBRT2 = cbrt(rat(2))
_TWO_43 = mul(rat(2), _CBRT2)  # 2**(4/3)
_ATAN_X6 = atan(div(_SQRT3, sub(_TWO_43, rat(1))))
_LOG_X6 = log(sub(_CBRT2, rat(1)))
_ACOT_NEG_QUARTER = acot(add(mul(rat(2), _SQRT3), sqrt(rat(7))))
# cube root of 100 + 12*sqrt(69); equals twice the Cardano root at x = 1
_R_X1 = cbrt(add(rat(100), mul(rat(12), sqrt(rat(69)))))
# the Cardano root itself at x = 1
_TAU = cbrt(div(add(rat(25), mul(rat(3), sqrt(rat(69)))), rat(2)))

_TAU_QUAD = add(rat(1), neg(_TAU), powi(_TAU, 2))  # 1 - tau + tau**2
_TAU_CUBE1 = add(rat(1), powi(_TAU, 3))  # 1 + tau**3

SPECIAL_VALUES: tuple[IdentityRecord, ...] = (
    IdentityRecord(
        id="S(2,1;27/4)",
        params=SeriesParams(2, 1, 27 / 4),
        exact=sub(mul(rat(2, 3), powi(pi(), 2)), mul(rat(2), powi(_LOG2, 2))),
        label="weight 2 at the rim of the disk",
    ),
    IdentityRecord(
        id="S(2,1;6)",
        params=SeriesParams(2, 1, 6.0),
        exact=sub(
            mul(rat(6), powi(_ATAN_X6, 2)),
            mul(rat(1, 2), powi(_LOG_X6, 2)),
        ),
        label="weight 2 at x = 6",
    ),
    IdentityRecord(
        id="S(2,1;1/2)",
        params=SeriesParams(2, 1, 0.5),
        exact=sub(mul(rat(1, 24), powi(pi(), 2)), mul(rat(1, 2), powi(_LOG2, 2))),
        label="weight 2 at x = 1/2",
    ),
    IdentityRecord(
        id="S(2,1;1)",
        params=SeriesParams(2, 1, 1.0),
        exact=sub(
            mul(rat(6), powi(atan(div(_SQRT3, sub(rat(1), _R_X1))), 2)),
            mul(
                rat(1, 2),
                powi(
                    log(
                        div(
                            mul(rat(12), add(rat(9), sqrt(rat(69)))),
                            powi(add(rat(2), _R_X1), 3),
                        )
                    ),
                    2,
                ),
            ),
        ),
        label="weight 2 at x = 1",
    ),
    IdentityRecord(
        id="S(2,1;-1/4)",
        params=SeriesParams(2, 1, -0.25),
        exact=sub(mul(rat(6), powi(_ACOT_NEG_QUARTER, 2)), mul(rat(1, 2), powi(_LOG2, 2))),
        label="weight 2, alternating, at x = -1/4",
    ),
    IdentityRecord(
        id="S(1,1;1/2)",
        params=SeriesParams(1, 1, 0.5),
        exact=sub(mul(rat(1, 10), pi()), mul(rat(1, 5), _LOG2)),
        label="weight 1 at x = 1/2",
    ),
    IdentityRecord(
        id="S(1,1;6)",
        params=SeriesParams(1, 1, 6.0),
        exact=sub(
            mul(_SQRT3, _TWO_43, add(rat(1), _CBRT2), _ATAN_X6),
            mul(_CBRT2, sub(rat(1), _CBRT2), _LOG_X6),
        ),
        label="weight 1 at x = 6",
    ),
    IdentityRecord(
        id="S(0,1;1/2)",
        params=SeriesParams(0, 1, 0.5),
        exact=add(rat(2, 25), neg(mul(rat(6, 125), _LOG2)), mul(rat(11, 250), pi())),
        label="weight 0 at x = 1/2",
    ),
    IdentityRecord(
        id="S(0,1;-1/4)",
        params=SeriesParams(0, 1, -0.25),
        exact=add(
            neg(rat(1, 28)),
            neg(mul(rat(3, 32), _LOG2)),
            mul(rat(39, 112), powi(sqrt(rat(7)), -1), _ACOT_NEG_QUARTER),
        ),
        label="weight 0, alternating, at x = -1/4",
    ),
    IdentityRecord(
        id="S(0,1;6)",
        params=SeriesParams(0, 1, 6.0),
        exact=add(
            mul(
                rat(2),
                sqrt(add(rat(240), mul(rat(96), _CBRT2), mul(rat(75), powi(_CBRT2, 2)))),
                _ATAN_X6,
            ),
            mul(_CBRT2, sub(mul(rat(4), _CBRT2), rat(5)), _LOG_X6),
            rat(8),
        ),
        label="weight 0 at x = 6",
    ),
    IdentityRecord(
        id="S(0,1;1)",
        params=SeriesParams(0, 1, 1.0),
        exact=add(
            mul(
                sub(
                    div(mul(rat(36), sqrt(rat(23)), _TAU), mul(rat(529), _TAU_QUAD)),
                    div(
                        mul(rat(18), _SQRT3, sub(rat(1), powi(_TAU, 2)), _TAU),
                        mul(rat(23), powi(_TAU_QUAD, 2)),
                    ),
                ),
                atan(div(_SQRT3, sub(mul(rat(2), _TAU), rat(1)))),
            ),
            mul(
                sub(
                    div(
                        mul(
                            rat(9),
                            _TAU,
                            add(
                                rat(1),
                                neg(mul(rat(2), _TAU)),
                                neg(mul(rat(2), powi(_TAU, 3))),
                                powi(_TAU, 4),
                            ),
                        ),
                        mul(rat(23), powi(_TAU_CUBE1, 2)),
                    ),
                    div(
                        mul(rat(6), sqrt(rat(69)), sub(rat(1), _TAU), _TAU),
                        mul(rat(529), _TAU_CUBE1),
                    ),
                ),
                log(div(_TAU_CUBE1, powi(add(rat(1), _TAU), 3))),
            ),
            div(mul(rat(108), powi(_TAU, 3)), mul(rat(23), powi(_TAU_CUBE1, 2))),
        ),
        label="weight 0 at x = 1",
    ),
)

# The subset first reported from integer-relation experiments. The
# borwein-girgensohn suite checks them on their own, by the same direct sum and
# at the same 1e-12 that the special-values suite applies to them.
EXPERIMENTAL_IDS: tuple[str, ...] = (
    "S(2,1;1/2)",
    "S(1,1;1/2)",
    "S(0,1;1/2)",
    "S(0,1;-1/4)",
)


def record_by_id(identity_id: str) -> IdentityRecord:
    for rec in SPECIAL_VALUES:
        if rec.id == identity_id:
            return rec
    raise KeyError(identity_id)
