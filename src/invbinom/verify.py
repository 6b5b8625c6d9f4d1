"""Cross-validation engine: the value registry against the series routes, and
every route against every other on a parameter grid.

Tolerances are tiered by route class and reflect honest binary64 error
budgets: 1e-12 for series / closed-form pairs, 1e-10 once
folding enters (m rotated complex evaluations), 1e-9 for anything touching the
polylog-kernel quadrature (quad-polylog, at stride m its one Beta integral, a pair
that shares no code with fold) or the Cardano-root series (quad-cardano), and 1e-8
for the two-term route (two stacked adaptive integrals).

Failures are report entries, never exceptions. ``serialize`` writes exactly
``json.dumps(to_json_dict(), indent=2)``, the documented JSON shape, and ``parse``
reads it back to an equal report (wall times are carried in memory and in the
plain-text rendering only, and are excluded from equality). With ``indent`` json
runs its pure-Python encoder, so it lays out the frame alone; each entry fills a template.
"""

from __future__ import annotations

import json
import math
import sys
import time
from dataclasses import dataclass, field
from typing import Callable, Iterable, Sequence

from .closed_forms import fold
from .errors import checked_tol
from .identities import EXPERIMENTAL_IDS, SPECIAL_VALUES, record_by_id
from .routes import ROUTES, evaluate
from .series import SeriesParams, _on_rim

TOL_SERIES = 1e-12
TOL_FOLDING = 1e-10
TOL_QUAD = 1e-9
TOL_TWO_TERM = 1e-8

ENVIRONMENT = {"precision": "binary64", "machine_epsilon": sys.float_info.epsilon}


def _json_number(v: float) -> str:
    """``json.dumps(v)``: for finite floats (and ints) json prints the repr too."""
    return repr(v) if math.isfinite(v) else json.dumps(v)


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

    def _json_block(self) -> str:
        """``to_json_dict()`` as it stands in ``json.dumps(report, indent=2)``'s entries."""
        num, lhs, rhs = _json_number, self.lhs, self.rhs
        return (
            f'    {{\n      "id": {json.dumps(self.id)},\n'
            f'      "params": {{\n        "n": {self.n:d},\n        "m": {self.m:d},\n'
            f'        "x_re": {num(self.x.real)},\n        "x_im": {num(self.x.imag)}\n      }},\n'
            f'      "lhs": {num(lhs.real)},\n      "rhs": {num(rhs.real)},\n'
            + (f'      "lhs_im": {num(lhs.imag)},\n' if lhs.imag != 0.0 else "")
            + (f'      "rhs_im": {num(rhs.imag)},\n' if rhs.imag != 0.0 else "")
            + f'      "abs_diff": {num(self.abs_diff)},\n      "tol": {num(self.tol)},\n'
            f'      "pass": {"true" if self.passed else "false"}\n    }}'
        )

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
        return self._json_frame([e.to_json_dict() for e in self.entries])

    def _json_frame(self, entries: list) -> dict:
        return {
            "suite": self.suite,
            "entries": entries,
            "summary": {"pass": self.n_pass, "fail": self.n_fail},
            "environment": dict(self.environment),
        }

    def serialize(self) -> str:
        """``json.dumps(self.to_json_dict(), indent=2)``, byte for byte (see the module)."""
        frame = json.dumps(self._json_frame([]), indent=2)
        block = ",\n".join([e._json_block() for e in self.entries])
        return frame.replace('"entries": []', f'"entries": [\n{block}\n  ]', 1) if block else frame

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
    """Every registry value, a binary64 expression evaluated at import, against
    the matching series route: direct summation inside the disk, the
    polylog-kernel quadrature on the rim. ``tol`` overrides the tiered
    defaults uniformly when given."""
    entries = _special_value_entries(SPECIAL_VALUES, checked_tol(tol, None))
    return VerificationReport("special-values", tuple(entries))


def run_borwein_girgensohn(tol: float | None = None) -> VerificationReport:
    """The four special values first reported from integer-relation
    experiments, on their own: the same direct-sum route and, by default, the same
    TOL_SERIES that ``run_special_values`` applies to them. ``tol`` overrides it."""
    records = [record_by_id(i) for i in EXPERIMENTAL_IDS]
    entries = _special_value_entries(records, checked_tol(tol, TOL_SERIES))
    return VerificationReport("borwein-girgensohn", tuple(entries))


def _format_x(x: complex) -> str:
    if x.imag == 0.0:
        return f"{x.real:g}"
    return f"{x.real:g}{'+' if x.imag >= 0 else '-'}{abs(x.imag):g}i"


# Stride-1 routes the cross-route check folds over at stride m >= 2. quad-polylog is not
# one: it serves the stride itself, in one quadrature where its fold ran m.
FOLD_INNERS = ("closed-form", "quad-cardano", "direct-sum")


def _applicable_routes(p: SeriesParams) -> dict[str, Callable[[], complex]]:
    """Zero-argument evaluators for every route of the table that serves p.

    A stride-1 fold repeats its inner route and is left out. At m >= 2 a fold
    runs per route in ``FOLD_INNERS`` (keyed "folding[<inner>]", so pair
    tolerances can be tiered); quad-polylog runs at the stride itself.
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


def run_all(tol: float | None = None) -> VerificationReport:
    """Special values and the default cross-route grid, concatenated. Each
    registry identity appears exactly once."""
    parts = (run_special_values(tol), run_cross_routes(tol=tol))
    return VerificationReport("all", tuple(e for part in parts for e in part.entries))


# Each suite by its CLI name. The lambdas look the suites up in this module at call
# time, so that a wrapper bound over one of them here (a tracer's) sees the call.
SUITES: dict[str, Callable[[float | None], VerificationReport]] = {
    "special-values": lambda tol: run_special_values(tol),
    "cross-routes": lambda tol: run_cross_routes(tol=tol),
    "borwein-girgensohn": lambda tol: run_borwein_girgensohn(tol),
    "all": lambda tol: run_all(tol),
}
SUITE_NAMES = tuple(SUITES)
