"""Cross-validation engine: the value registry against the series routes,
every route against every other on a parameter grid, and the polylog
factorization identity.

Tolerances are tiered by route class and reflect honest binary64 error
budgets: 1e-12 for series / closed-form / hypergeometric pairs, 1e-10 once
folding enters (m rotated complex evaluations; every stride-m route but direct
summation), 1e-9 for anything touching the polylog-kernel or Cardano-root
quadrature, and 1e-8 for the two-term route (two stacked adaptive integrals).

Failures are report entries, never exceptions; a report serializes to the
documented JSON shape and parses back to an equal report (wall times are
carried in memory and in the plain-text rendering only, and are excluded
from equality).
"""

from __future__ import annotations

import json
import sys
import time
from dataclasses import dataclass, field
from typing import Callable, Iterable, Sequence

from .closed_forms import fold
from .errors import checked_tol
from .identities import EXPERIMENTAL_IDS, SPECIAL_VALUES, record_by_id
from .polylog import li, li_factorized
from .routes import ROUTES, evaluate
from .series import SeriesParams, _on_rim

TOL_SERIES = 1e-12
TOL_FOLDING = 1e-10
TOL_QUAD = 1e-9
TOL_TWO_TERM = 1e-8

ENVIRONMENT = {"precision": "binary64", "machine_epsilon": sys.float_info.epsilon}


@dataclass(frozen=True)
class CheckEntry:
    """One comparison: an identity, or a route pair, at one parameter point."""

    id: str
    n: int
    m: int
    x: complex
    lhs: complex
    rhs: complex
    abs_diff: float
    tol: float
    passed: bool
    wall_ms: float = field(default=0.0, compare=False)

    def to_json_dict(self) -> dict:
        out: dict = {
            "id": self.id,
            "params": {"n": self.n, "m": self.m, "x_re": self.x.real, "x_im": self.x.imag},
            "lhs": self.lhs.real,
            "rhs": self.rhs.real,
        }
        if self.lhs.imag != 0.0:
            out["lhs_im"] = self.lhs.imag
        if self.rhs.imag != 0.0:
            out["rhs_im"] = self.rhs.imag
        out["abs_diff"] = self.abs_diff
        out["tol"] = self.tol
        out["pass"] = self.passed
        return out

    @classmethod
    def from_json_dict(cls, data: dict) -> "CheckEntry":
        params = data["params"]
        return cls(
            id=data["id"],
            n=params["n"],
            m=params["m"],
            x=complex(params["x_re"], params["x_im"]),
            lhs=complex(data["lhs"], data.get("lhs_im", 0.0)),
            rhs=complex(data["rhs"], data.get("rhs_im", 0.0)),
            abs_diff=data["abs_diff"],
            tol=data["tol"],
            passed=data["pass"],
        )


@dataclass(frozen=True)
class VerificationReport:
    suite: str
    entries: tuple[CheckEntry, ...]
    environment: dict = field(default_factory=lambda: dict(ENVIRONMENT))

    @property
    def n_pass(self) -> int:
        return sum(1 for e in self.entries if e.passed)

    @property
    def n_fail(self) -> int:
        return len(self.entries) - self.n_pass

    @property
    def all_passed(self) -> bool:
        return self.n_fail == 0

    @property
    def wall_s(self) -> float:
        return sum(e.wall_ms for e in self.entries) / 1000.0

    def to_json_dict(self) -> dict:
        return {
            "suite": self.suite,
            "entries": [e.to_json_dict() for e in self.entries],
            "summary": {"pass": self.n_pass, "fail": self.n_fail},
            "environment": dict(self.environment),
        }

    def serialize(self) -> str:
        return json.dumps(self.to_json_dict(), indent=2)

    @classmethod
    def from_json_dict(cls, data: dict) -> "VerificationReport":
        return cls(
            suite=data["suite"],
            entries=tuple(CheckEntry.from_json_dict(e) for e in data["entries"]),
            environment=dict(data.get("environment", {})),
        )

    @classmethod
    def parse(cls, text: str) -> "VerificationReport":
        return cls.from_json_dict(json.loads(text))

    def to_text(self) -> str:
        """Fixed-width table plus a summary footer.

        The wall-time line at the bottom is the one run-dependent piece of
        output; data rows are deterministic.
        """
        lines = [f"suite: {self.suite}"]
        header = f"{'id':<44} {'lhs':>24} {'rhs':>24} {'abs_diff':>10} {'tol':>8} status"
        lines.append(header)
        lines.append("-" * len(header))
        for e in self.entries:
            lines.append(
                f"{e.id:<44} {e.lhs.real:>24.17g} {e.rhs.real:>24.17g} "
                f"{e.abs_diff:>10.2e} {e.tol:>8.0e} {'pass' if e.passed else 'FAIL'}"
            )
        lines.append("-" * len(header))
        lines.append(f"summary: {self.n_pass} pass, {self.n_fail} fail ({len(self.entries)} entries)")
        lines.append(f"wall time: {self.wall_s:.2f} s (run-dependent; not part of JSON/CSV output)")
        return "\n".join(lines)


def _entry(
    identity_id: str,
    params: SeriesParams,
    lhs: complex,
    rhs: complex,
    tol: float,
    wall_ms: float,
) -> CheckEntry:
    lhs = complex(lhs)
    rhs = complex(rhs)
    diff = abs(lhs - rhs)
    return CheckEntry(
        id=identity_id,
        n=params.n,
        m=params.m,
        x=params.x,
        lhs=lhs,
        rhs=rhs,
        abs_diff=diff,
        tol=tol,
        passed=diff <= tol,
        wall_ms=wall_ms,
    )


def _special_value_entries(records: Iterable, tol: float | None) -> list[CheckEntry]:
    entries = []
    for rec in records:
        start = time.perf_counter()
        exact = rec.value()
        p = rec.params
        route = evaluate(p.n, p.m, p.x, "quad-polylog" if rec.boundary else "direct-sum")
        this_tol = tol if tol is not None else TOL_QUAD if rec.boundary else TOL_SERIES
        wall = (time.perf_counter() - start) * 1000.0
        entries.append(_entry(rec.id, rec.params, exact, route.value, this_tol, wall))
    return entries


def run_special_values(tol: float | None = None) -> VerificationReport:
    """Every registry value, rendered from its exact form, against the
    matching series route: direct summation inside the disk, the
    polylog-kernel quadrature on the rim. ``tol`` overrides the tiered
    defaults uniformly when given."""
    entries = _special_value_entries(SPECIAL_VALUES, checked_tol(tol, None))
    return VerificationReport("special-values", tuple(entries))


def run_borwein_girgensohn(tol: float | None = None) -> VerificationReport:
    """The four special values first reported from integer-relation
    experiments, re-verified independently at one tolerance, TOL_SERIES by default."""
    records = [record_by_id(i) for i in EXPERIMENTAL_IDS]
    entries = _special_value_entries(records, checked_tol(tol, TOL_SERIES))
    return VerificationReport("borwein-girgensohn", tuple(entries))


def _format_x(x: complex) -> str:
    if x.imag == 0.0:
        return f"{x.real:g}"
    return f"{x.real:g}{'+' if x.imag >= 0 else '-'}{abs(x.imag):g}i"


# Stride-1 routes the cross-route check folds over at stride m >= 2.
FOLD_INNERS = ("closed-form", "quad-polylog", "quad-cardano", "direct-sum")


def _applicable_routes(p: SeriesParams) -> dict[str, Callable[[], complex]]:
    """Zero-argument evaluators for every route of the table that serves p.

    A stride-1 fold repeats its inner route and is left out. At m >= 2 a fold
    runs per route in ``FOLD_INNERS`` (keyed "folding[<inner>]", so pair
    tolerances can be tiered).
    Direct summation is left out on the rim, where terms decay like k**(1/2 - n).
    """
    n, m, x = p.n, p.m, p.x
    slow = ("direct-sum",) if _on_rim(m, x) else ()
    served = [
        name for name, route in ROUTES.items() if route.limits(n, m, x) is None and name not in slow
    ]
    routes: dict[str, Callable[[], complex]] = {}
    for name in served:
        if name == "folding" and m > 1:
            root = abs(x) ** (1.0 / m)
            for i in FOLD_INNERS:
                if ROUTES[i].limits(n, 1, root) is None and i not in slow:
                    routes[f"folding[{i}]"] = lambda i=i: fold(n, m, x, i).value
        elif name != "folding":
            routes[name] = lambda name=name: evaluate(n, m, x, name).value
    return routes


def pair_tolerance(route_a: str, route_b: str) -> float:
    keys = (route_a, route_b)
    if any("quad-two-term" in k for k in keys):
        return TOL_TWO_TERM
    if any("quad-polylog" in k or "quad-cardano" in k for k in keys):
        return TOL_QUAD
    if any(k.startswith("folding") for k in keys):
        return TOL_FOLDING
    return TOL_SERIES


def default_grid() -> tuple[SeriesParams, ...]:
    """The default 60-point cross-route grid (real arguments, all in domain)."""
    pts: list[SeriesParams] = []
    for n in (0, 1, 2):
        for x in (-6.0, -1.0, -0.25, 0.5, 1.0, 3.0, 6.0):
            pts.append(SeriesParams(n, 1, x))
    for n in (3, 4, 5):
        for x in (-1.0, 0.5, 1.0, 6.0):
            pts.append(SeriesParams(n, 1, x))
    pts.append(SeriesParams(0, 1, 0.0))
    for n in (1, 2, 3):
        for x in (-1.0, 1.0, 6.0, 20.0):
            pts.append(SeriesParams(n, 2, x))
    for n in (1, 2, 3):
        for x in (-1.0, 1.0, 100.0):
            pts.append(SeriesParams(n, 3, x))
    pts.append(SeriesParams(0, 2, 1.0))
    pts.append(SeriesParams(0, 2, 6.0))
    pts.append(SeriesParams(0, 3, 1.0))
    pts.append(SeriesParams(4, 2, 6.0))
    pts.append(SeriesParams(2, 3, 6.0))
    return tuple(pts)


def run_cross_routes(
    grid: Sequence[SeriesParams] | None = None,
    tol: float | None = None,
) -> VerificationReport:
    """All applicable routes at every grid point, compared pairwise; ``tol`` overrides
    the tiered pair tolerances uniformly when given."""
    checked_tol(tol, None)
    points = tuple(grid) if grid is not None else default_grid()
    entries: list[CheckEntry] = []
    for p in points:
        values: dict[str, complex] = {}
        costs: dict[str, float] = {}
        for name, fn in _applicable_routes(p).items():
            start = time.perf_counter()
            values[name] = complex(fn())
            costs[name] = (time.perf_counter() - start) * 1000.0
        names = list(values)
        for i, a in enumerate(names):
            for b in names[i + 1 :]:
                this_tol = pair_tolerance(a, b) if tol is None else tol
                ident = f"S({p.n},{p.m};{_format_x(p.x)}) {a}|{b}"
                entries.append(
                    _entry(ident, p, values[a], values[b], this_tol, costs[a] + costs[b])
                )
                costs[a] = costs[b] = 0.0  # charge each evaluation once
    return VerificationReport("cross-routes", tuple(entries))


# Twelve deterministic points with |z| <= 0.9 for the factorization suite.
FACTORIZATION_POINTS: tuple[complex, ...] = (
    0.5 + 0j,
    -0.5 + 0j,
    0.9 + 0j,
    -0.9 + 0j,
    0.3 + 0.4j,
    -0.2 + 0.85j,
    0.6 - 0.35j,
    -0.7 - 0.3j,
    0.85j,
    -0.45j,
    0.25 - 0.6j,
    -0.8 + 0.1j,
)


def run_polylog_factorization(tol: float | None = None) -> VerificationReport:
    """li_factorized(n, z, m) against li(n, z**m) over the documented grid, at
    TOL_SERIES by default."""
    tol = checked_tol(tol, TOL_SERIES)
    entries: list[CheckEntry] = []
    for n in (2, 3, 4):
        for m in (2, 3, 4, 6):
            for z in FACTORIZATION_POINTS:
                start = time.perf_counter()
                lhs = li_factorized(n, z, m)
                rhs = li(n, z**m)
                wall = (time.perf_counter() - start) * 1000.0
                ident = f"Li_{n} fold m={m} z={_format_x(z)}"
                params = SeriesParams(n, m, z)
                entries.append(_entry(ident, params, lhs, rhs, tol, wall))
    return VerificationReport("polylog", tuple(entries))


def run_all(tol: float | None = None) -> VerificationReport:
    """Special values, the default cross-route grid, and the factorization
    suite, concatenated. Each registry identity appears exactly once."""
    parts = (run_special_values(tol), run_cross_routes(tol=tol), run_polylog_factorization(tol))
    return VerificationReport("all", tuple(e for part in parts for e in part.entries))


# Each suite by its CLI name. The lambdas look the suites up in this module at call
# time, so that a wrapper bound over one of them here (a tracer's) sees the call.
SUITES: dict[str, Callable[[float | None], VerificationReport]] = {
    "special-values": lambda tol: run_special_values(tol),
    "cross-routes": lambda tol: run_cross_routes(tol=tol),
    "borwein-girgensohn": lambda tol: run_borwein_girgensohn(tol),
    "polylog": lambda tol: run_polylog_factorization(tol),
    "all": lambda tol: run_all(tol),
}
SUITE_NAMES = tuple(SUITES)
