"""The registry of explicit special values.

Each record holds the parameters of one series value and its closed form, written as a
plain ``math`` expression and evaluated once at import. A sum of three or more terms is
``math.fsum``; regrouping a product or a quotient can move a value's last bit. The registry
is compiled into the package on purpose: these values are the whole point of the library
and must not drift from the code.
"""

from __future__ import annotations

import math
from collections import namedtuple

from .series import SeriesParams, _on_rim


def _cbrt(v: float) -> float:
    return math.copysign(abs(v) ** (1 / 3), v)


class IdentityRecord(namedtuple("IdentityRecord", "id params exact label")):
    """One verifiable special value: id, parameters (a SeriesParams), exact value, short label."""

    __slots__ = ()

    def value(self) -> float:
        """``exact``: the package reads the field; the benchmark harness's oracle test
        reads this name."""
        return self.exact

    @property
    def boundary(self) -> bool:
        return _on_rim(self.params.m, self.params.x)


# -- shared subexpressions --------------------------------------------------

_SQRT3 = math.sqrt(3)
_LOG2 = math.log(2)
_CBRT2 = _cbrt(2)
_TWO_43 = 2 * _CBRT2  # 2**(4/3)
_ATAN_X6 = math.atan(_SQRT3 / (_TWO_43 - 1))
_LOG_X6 = math.log(_CBRT2 - 1)
_ACOT_NEG_QUARTER = math.atan2(1.0, 2 * _SQRT3 + math.sqrt(7))  # arccot, in (0, pi)
# cube root of 100 + 12*sqrt(69); equals twice the Cardano root at x = 1
_R_X1 = _cbrt(100 + 12 * math.sqrt(69))
# the Cardano root itself at x = 1
_TAU = _cbrt((25 + 3 * math.sqrt(69)) / 2)

_TAU_QUAD = math.fsum((1, -_TAU, _TAU**2))  # 1 - tau + tau**2
_TAU_CUBE1 = 1 + _TAU**3  # 1 + tau**3

SPECIAL_VALUES: tuple[IdentityRecord, ...] = (
    IdentityRecord(
        "S(2,1;27/4)", SeriesParams(2, 1, 27 / 4),
        (2 / 3) * math.pi**2 - 2 * _LOG2**2,
        "weight 2 at the rim of the disk",
    ),
    IdentityRecord(
        "S(2,1;6)", SeriesParams(2, 1, 6.0),
        6 * _ATAN_X6**2 - _LOG_X6**2 / 2,
        "weight 2 at x = 6",
    ),
    IdentityRecord(
        "S(2,1;1/2)", SeriesParams(2, 1, 0.5),
        (1 / 24) * math.pi**2 - _LOG2**2 / 2,
        "weight 2 at x = 1/2",
    ),
    IdentityRecord(
        "S(2,1;1)", SeriesParams(2, 1, 1.0),
        6 * math.atan(_SQRT3 / (1 - _R_X1)) ** 2
        - math.log(12 * (9 + math.sqrt(69)) / (2 + _R_X1) ** 3) ** 2 / 2,
        "weight 2 at x = 1",
    ),
    IdentityRecord(
        "S(2,1;-1/4)", SeriesParams(2, 1, -0.25),
        6 * _ACOT_NEG_QUARTER**2 - _LOG2**2 / 2,
        "weight 2, alternating, at x = -1/4",
    ),
    IdentityRecord(
        "S(1,1;1/2)", SeriesParams(1, 1, 0.5),
        (1 / 10) * math.pi - (1 / 5) * _LOG2,
        "weight 1 at x = 1/2",
    ),
    IdentityRecord(
        "S(1,1;6)", SeriesParams(1, 1, 6.0),
        _SQRT3 * _TWO_43 * (1 + _CBRT2) * _ATAN_X6 - _CBRT2 * (1 - _CBRT2) * _LOG_X6,
        "weight 1 at x = 6",
    ),
    IdentityRecord(
        "S(0,1;1/2)", SeriesParams(0, 1, 0.5),
        math.fsum((2 / 25, -(6 / 125) * _LOG2, (11 / 250) * math.pi)),
        "weight 0 at x = 1/2",
    ),
    IdentityRecord(
        "S(0,1;-1/4)", SeriesParams(0, 1, -0.25),
        math.fsum((-1 / 28, -(3 / 32) * _LOG2, (39 / 112) / math.sqrt(7) * _ACOT_NEG_QUARTER)),
        "weight 0, alternating, at x = -1/4",
    ),
    IdentityRecord(
        "S(0,1;6)", SeriesParams(0, 1, 6.0),
        math.fsum((
            2 * math.sqrt(math.fsum((240, 96 * _CBRT2, 75 * _CBRT2**2))) * _ATAN_X6,
            _CBRT2 * (4 * _CBRT2 - 5) * _LOG_X6,
            8,
        )),
        "weight 0 at x = 6",
    ),
    IdentityRecord(
        "S(0,1;1)", SeriesParams(0, 1, 1.0),
        math.fsum((
            (
                36 * math.sqrt(23) * _TAU / (529 * _TAU_QUAD)
                # times the reciprocal: a division rounds this term 1 ulp apart
                - 18 * _SQRT3 * (1 - _TAU**2) * _TAU * (23 * _TAU_QUAD**2) ** -1
            )
            * math.atan(_SQRT3 / (2 * _TAU - 1)),
            (
                9 * _TAU * math.fsum((1, -2 * _TAU, -2 * _TAU**3, _TAU**4)) / (23 * _TAU_CUBE1**2)
                - 6 * math.sqrt(69) * (1 - _TAU) * _TAU / (529 * _TAU_CUBE1)
            )
            * math.log(_TAU_CUBE1 / (1 + _TAU) ** 3),
            108 * _TAU**3 / (23 * _TAU_CUBE1**2),
        )),
        "weight 0 at x = 1",
    ),
)

# The subset first reported from integer-relation experiments. The
# borwein-girgensohn suite checks them on their own, by the same direct sum and
# at the same 1e-12 that the special-values suite applies to them.
EXPERIMENTAL_IDS: tuple[str, ...] = ("S(2,1;1/2)", "S(1,1;1/2)", "S(0,1;1/2)", "S(0,1;-1/4)")


def record_by_id(identity_id: str) -> IdentityRecord:
    for rec in SPECIAL_VALUES:
        if rec.id == identity_id:
            return rec
    raise KeyError(identity_id)
