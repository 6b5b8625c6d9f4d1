"""Per-layer tracing of invbinom from outside the package.

``Tracer.install`` replaces each traced public function by a wrapper at
every module attribute that is bound to it: the defining module and every
``from .x import f`` binding in the other modules of the package (the late
``from .integral_reps import quad_polylog`` inside ``fold`` reads the
patched attribute). ``uninstall`` puts the originals back.

Each wrapped call records a span: name, start, end, parent span and the op
it belongs to. Spans stay in memory (up to ``SPAN_CAP``) and are written
out by ``write_spans`` when the run ends. Alongside, every span name keeps
aggregates: calls, busy time (outermost calls of that name only, so
recursion is not counted twice), self time (duration minus the time of
traced children), failures, and counts read from return values.
"""

from __future__ import annotations

import json
import sys
import time
from collections import defaultdict
from dataclasses import dataclass, field

SPAN_CAP = 20_000
PACKAGE = "invbinom"

# (module, function): the functions wrapped, by the module that defines them.
TARGETS = (
    ("series", "sum_direct"),
    ("closed_forms", "phi"),
    ("closed_forms", "s01"),
    ("closed_forms", "s11"),
    ("closed_forms", "s21"),
    ("closed_forms", "s2m_closed"),
    ("closed_forms", "fold"),
    ("polylog", "li"),
    ("polylog", "li_factorized"),
    ("quadrature", "adaptive_quad"),
    ("integral_reps", "quad_polylog"),
    ("integral_reps", "quad_two_term"),
    ("routes", "evaluate"),
    ("routes", "resolve_auto"),
    ("routes", "hypergeometric_value"),
    ("verify", "run_all"),
    ("verify", "run_special_values"),
    ("verify", "run_cross_routes"),
    ("verify", "run_borwein_girgensohn"),
    ("verify", "run_polylog_factorization"),
    ("cli", "main"),
)

QUAD_ROUTES = ("integral_reps.quad_polylog", "integral_reps.quad_two_term")


def li_band(z: complex) -> str:
    """Band of |z| for Li_n(z); fixed bounds, independent of where the
    library switches from series to integral."""
    r = abs(z)
    if r <= 0.5:
        return "z_le_0.5"
    if r <= 0.99:
        return "z_0.5_0.99"
    return "z_gt_0.99"


@dataclass
class Stat:
    calls: int = 0
    busy: float = 0.0
    self_time: float = 0.0
    failed: int = 0
    counts: dict = field(default_factory=lambda: defaultdict(int))


class _Frame:
    __slots__ = ("name", "span", "child", "neval")

    def __init__(self, name: str, span: int) -> None:
        self.name = name
        self.span = span
        self.child = 0.0  # time covered by traced children
        self.neval = 0  # adaptive_quad evaluations below this frame


class Tracer:
    def __init__(self) -> None:
        self.stats: dict[str, Stat] = defaultdict(Stat)
        self.spans: list[tuple] = []
        self.op = -1  # id of the op in progress; spans of one op share it
        self._stack: list[_Frame] = []  # frames of the calls in progress
        self._depth: dict[str, int] = defaultdict(int)
        self._next_span = 0
        self._patches: list[tuple[object, str, object]] = []

    # -- install / uninstall ------------------------------------------------

    def install(self) -> None:
        modules = [
            mod
            for name, mod in list(sys.modules.items())
            if mod is not None and (name == PACKAGE or name.startswith(PACKAGE + "."))
        ]
        for modname, funcname in TARGETS:
            mod = sys.modules.get(f"{PACKAGE}.{modname}")
            orig = getattr(mod, funcname, None) if mod is not None else None
            if orig is None:
                continue  # the package no longer has it; its metrics stay 0
            wrapper = self._wrap(f"{modname}.{funcname}", orig)
            for m in modules:
                for attr, value in list(vars(m).items()):
                    if value is orig:
                        self._patches.append((m, attr, orig))
                        setattr(m, attr, wrapper)

    def uninstall(self) -> None:
        for mod, attr, orig in reversed(self._patches):
            setattr(mod, attr, orig)
        self._patches.clear()

    # -- recording ----------------------------------------------------------

    def _wrap(self, name: str, fn):
        tracer = self
        stack = self._stack
        depth = self._depth
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            key = name
            if name == "polylog.li":
                key = f"polylog.li.{li_band(complex(args[1] if len(args) > 1 else kwargs['z']))}"
            frame = _Frame(key, tracer._next_span)
            tracer._next_span += 1
            parent = stack[-1].span if stack else -1
            stack.append(frame)
            depth[name] += 1
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                tracer._close(name, frame, parent, t0, clock(), exc)
                raise
            t1 = clock()
            tracer._on_result(name, frame, result, args, kwargs)
            tracer._close(name, frame, parent, t0, t1, None)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def _close(self, name: str, frame: _Frame, parent: int, t0: float, t1: float, error) -> None:
        self._stack.pop()
        self._depth[name] -= 1
        dt = t1 - t0
        st = self.stats[frame.name]
        st.calls += 1
        st.self_time += dt - frame.child
        if self._depth[name] == 0:
            st.busy += dt
        if self._stack:
            self._stack[-1].child += dt
            self._stack[-1].neval += frame.neval
        if error is not None:
            st.failed += 1
            st.counts[type(error).__name__] += 1
        if len(self.spans) < SPAN_CAP:
            self.spans.append((self.op, frame.span, parent, frame.name, t0, t1))

    def _on_result(self, name: str, frame: _Frame, result, args, kwargs) -> None:
        """Counts read from return values; ``frame`` is still on the stack."""
        counts = self.stats[frame.name].counts
        if name == "quadrature.adaptive_quad":
            frame.neval += result[2]
            counts["neval"] += result[2]
            if self._depth[name] > 1:
                counts["nested_calls"] += 1
        elif name == "series.sum_direct":
            counts["terms"] += result.work
        elif name == "routes.hypergeometric_value":
            counts["terms"] += result[1]
        elif name in QUAD_ROUTES:
            if sum(f.name in QUAD_ROUTES for f in self._stack) == 1:
                counts["hidden_neval"] += frame.neval
                counts["reported_work"] += result.work
        elif name == "routes.evaluate":
            method = args[3] if len(args) > 3 else kwargs.get("method", "auto")
            if method == "auto":
                self.stats[f"routes.auto.{result.method}"].calls += 1

    # -- output -------------------------------------------------------------

    def write_spans(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for op, span, parent, name, t0, t1 in self.spans:
                fh.write(
                    json.dumps(
                        {"op": op, "span": span, "parent": parent, "name": name, "start": t0, "end": t1}
                    )
                    + "\n"
                )
