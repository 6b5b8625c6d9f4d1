"""Benchmark of invbinom: one workload, one seed, one run.

    python3 perfbench/run.py --workload {interior,rim,verify,direct} \\
        --seed N --seconds S --trace {0,1}

Run from the root of a source checkout; the package is imported from
``src/`` of that checkout and nowhere else. One process, one caller, a
closed loop, no threads: each op starts when the previous one returns.

An op is one ``evaluate(n, m, x, method)`` call; in ``verify`` it is one
in-process ``cli.main(["verify", "--suite", "all", "--output", "json"])``
with stdout captured. A workload's cases form a *pass*; the timed loop
replays whole passes until ``--seconds`` have elapsed, at least
``MIN_PASSES`` passes and at least ``MIN_OPS`` ops have run.

Timings are made robust to a machine shared with other work, whose speed
swings by up to half for tens of seconds. Every ``CAL_EVERY`` seconds of op
time the loop times the kernel of ``calibration.py``, and each op's latency
is scaled by ``CAL_REF`` over the kernel's time around it: all times are
reported at the *reference speed*, at which the kernel takes ``CAL_REF``
seconds. A case's latency is the median of its scaled runs. ``ops_per_s`` is the cases of a
pass over the sum of their latencies; ``op_ms_p50`` and ``op_ms_p90`` are
percentiles of the case latencies (at least 100 cases per pass, so at least
10 lie above the p90). ``verify`` has a single case, so its percentiles are
over all its runs. The unscaled figures are printed too.

Every op is checked against a reference that does not use ``src/``
(``oracle.py``): its value must lie within the README tolerance tier of the
route that ran, scaled by max(1, |reference|); repeated ops must repeat
their first result bit for bit. The last line of stdout is one JSON object:
``correct``, ``attempted``, ``failed`` and ``metrics``. With ``--trace 0``
the metrics are the end-to-end ones, from an untraced loop. With
``--trace 1`` half of the time runs untraced and half traced
(``tracer.py``); the metrics are the per-layer ones, per pass of the traced
loop, and the traced values must equal the untraced ones bit for bit.
Spans of the traced loop are written to ``.perfbench-out/`` in the checkout.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import math
import statistics
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import oracle
import tracer as tracing
import workloads
from calibration import CAL_REF, kernel_time

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
RIM_TABLE = HERE / "rim_refs.json"
SPAN_DIR = ROOT / ".perfbench-out"

MIN_OPS = 100
MIN_PASSES = 4
SETUP_RUNS = 9
CAL_EVERY = 0.05  # seconds of op time between two timings of the kernel

# README tolerance tiers, by the route that ran.
TIERS = {
    "direct-sum": 1e-12,
    "closed-form": 1e-12,
    "pfq": 1e-12,
    "folding": 1e-10,
    "quad-polylog": 1e-9,
    "quad-two-term": 1e-8,
}
LOOSEST_TIER = 1e-8

END_TO_END = {
    "setup_s": "s",
    "ops_per_s": "1/s",
    "op_ms_p50": "ms",
    "op_ms_p90": "ms",
    "est_ok_frac": "fraction",
}


def fail(message: str) -> None:
    print(f"perfbench: {message}", file=sys.stderr)
    raise SystemExit(2)


def import_package():
    if not (SRC / "invbinom" / "__init__.py").is_file():
        fail(f"no invbinom package under {SRC}; run from the root of a source checkout")
    sys.path.insert(0, str(SRC))
    import invbinom
    from invbinom import cli, routes

    if not Path(invbinom.__file__).resolve().is_relative_to(SRC):
        fail(f"invbinom was imported from {invbinom.__file__}, not from {SRC}")
    return routes, cli


def tier(method: str, n: int) -> float:
    if method == "folding" and n >= 3:
        return TIERS["quad-polylog"]  # no closed form for n >= 3: the fold runs quadrature
    return TIERS.get(method, LOOSEST_TIER)


# -- set-up time ----------------------------------------------------------------

SETUP_CHILD = """
import contextlib, io, sys, time
sys.path.insert(0, sys.argv[1])
from calibration import kernel_time
cal = kernel_time()
t0 = time.perf_counter()
sys.path.insert(0, sys.argv[2])
import invbinom
if sys.argv[3] == "verify":
    from invbinom import cli
    with contextlib.redirect_stdout(io.StringIO()):
        cli.main(sys.argv[4:])
else:
    n, m, re, im, method = sys.argv[4:]
    invbinom.evaluate(int(n), int(m), complex(float.fromhex(re), float.fromhex(im)), method)
elapsed = time.perf_counter() - t0
print(repr(elapsed), repr(min(cal, kernel_time())))
"""


def measure_setup(first: workloads.Case) -> tuple[float, float]:
    """Median over fresh processes of: import invbinom, then the first op;
    at the reference speed, and as measured.

    One discarded run first, so that every measured run finds the compiled
    bytecode a user's installation has.
    """
    if first.method == "verify":
        op_args = ["verify", *workloads.VERIFY_ARGV]
    else:
        op_args = ["eval", str(first.n), str(first.m), first.x.real.hex(), first.x.imag.hex(), first.method]
    cmd = [sys.executable, "-I", "-c", SETUP_CHILD, str(HERE), str(SRC), *op_args]
    scaled, raw = [], []
    for i in range(SETUP_RUNS + 1):
        done = subprocess.run(cmd, capture_output=True, text=True, timeout=120, cwd=ROOT)
        if done.returncode != 0:
            fail(f"set-up run failed:\n{done.stderr}")
        if i:
            elapsed, cal = map(float, done.stdout.split()[-2:])
            raw.append(elapsed)
            scaled.append(elapsed * CAL_REF / cal)
    return statistics.median(scaled), statistics.median(raw)


# -- the timed loop ---------------------------------------------------------------


class Loop:
    """Latencies and first-pass results of one closed-loop run."""

    def __init__(self) -> None:
        self.latencies: list[float] = []  # as measured, in run order
        self.blocks: list[int] = []  # per op: index of the kernel timing before it
        self.kernel: list[float] = []  # kernel timings, every CAL_EVERY of op time
        self.passes = 0
        self.results: list = []  # per case: the first pass's result or exception
        self.failed = 0
        self.mismatched = 0  # later ops whose result differs from the first pass
        self.elapsed = 0.0

    @property
    def attempted(self) -> int:
        return len(self.latencies)

    def scaled(self) -> list[float]:
        """Latencies at the reference speed, each scaled by the mean of the
        kernel timings on either side of it."""
        k = self.kernel
        return [2.0 * t * CAL_REF / (k[b] + k[b + 1]) for t, b in zip(self.latencies, self.blocks)]

    def case_latencies(self, lat: list[float]) -> list[float]:
        """Per case, the median of its runs."""
        n = len(self.results)
        return [statistics.median(lat[i::n]) for i in range(n)]

    def timings(self, scaled: bool = True) -> dict:
        lat = self.scaled() if scaled else self.latencies
        cases = self.case_latencies(lat)
        samples = cases if len(cases) >= MIN_OPS else lat
        p90 = statistics.quantiles(samples, n=10)[8]
        return {
            "ops_per_s": len(cases) / math.fsum(cases),
            "op_ms_p50": 1e3 * statistics.median(samples),
            "op_ms_p90": 1e3 * p90,
            "samples": len(samples),
            "above_p90": sum(v > p90 for v in samples),
        }


def same(a, b) -> bool:
    if isinstance(a, Exception) or isinstance(b, Exception):
        return type(a) is type(b) and str(a) == str(b)
    return a == b


def run_loop(
    op, cases: list, seconds: float, min_passes: int, trace: tracing.Tracer | None = None
) -> Loop:
    loop = Loop()
    clock = time.perf_counter
    start = clock()
    loop.kernel.append(kernel_time())
    since_kernel = 0.0
    while True:
        first = loop.passes == 0
        for i, case in enumerate(cases):
            if trace is not None:
                trace.op = len(loop.latencies)
            t0 = clock()
            try:
                result = op(case)
            except Exception as exc:  # an op that raises is a failed op, not a crash
                result = exc
            t1 = clock()
            loop.latencies.append(t1 - t0)
            loop.blocks.append(len(loop.kernel) - 1)
            since_kernel += t1 - t0
            if since_kernel >= CAL_EVERY:
                loop.kernel.append(kernel_time())
                since_kernel = 0.0
            if isinstance(result, Exception):
                loop.failed += 1
            if first:
                loop.results.append(result)
            elif not same(result, loop.results[i]):
                loop.mismatched += 1
        loop.passes += 1
        loop.elapsed = clock() - start
        if loop.elapsed >= seconds and loop.passes >= min_passes and loop.attempted >= MIN_OPS:
            loop.kernel.append(kernel_time())
            return loop


def make_op(workload: str, routes, cli):
    if workload == "verify":
        argv = list(workloads.VERIFY_ARGV)

        def op(case):
            buf = io.StringIO()
            with contextlib.redirect_stdout(buf):
                code = cli.main(argv)
            return code, buf.getvalue()

        return op

    def op(case):
        ev = routes.evaluate(case.n, case.m, case.x, case.method)
        return (ev.value, ev.abs_error_est, ev.method, ev.work)

    return op


# -- correctness ------------------------------------------------------------------


def load_oracle() -> oracle.Oracle:
    table = {}
    if RIM_TABLE.is_file():
        for key, (re, im, err) in json.loads(RIM_TABLE.read_text()).items():
            table[key] = oracle.Reference(Fraction(re), Fraction(im), float(err))
    return oracle.Oracle(table)


def check_evaluations(cases, loop: Loop, refs) -> dict:
    """Tier and estimate checks of the first pass (later passes repeat it)."""
    tol_bad = est_bad = completed = 0
    worst = []
    for case, result, ref in zip(cases, loop.results, refs):
        if isinstance(result, Exception):
            continue
        completed += 1
        value, est, method, _ = result
        dist = ref.distance(value)
        if dist > tier(method, case.n) * max(1.0, abs(ref.value)):
            tol_bad += 1
            worst.append(f"S({case.n},{case.m};{case.x!r}) via {method}: off by {dist:.3e}")
        if dist > est + ref.err:
            est_bad += 1
    return {"completed": completed, "tol_violations": tol_bad, "est_violations": est_bad, "detail": worst}


def check_verify(loop: Loop, refs: oracle.Oracle) -> dict:
    """Exit code, failing entries, and the entries' values against the oracle."""
    if isinstance(loop.results[0], Exception):
        return {"tol_violations": loop.attempted, "entries": 0, "stdout_bytes": 0,
                "detail": [f"verify raised {loop.results[0]!r}"]}
    code, text = loop.results[0]
    report = json.loads(text)
    bad = []
    if code != 0:
        bad.append(f"verify exited {code}")
    bad += [f"entry {e['id']} failed" for e in report["entries"] if not e["pass"]]
    polylog = []
    for e in report["entries"]:
        p = e["params"]
        n, m, x = p["n"], p["m"], complex(p["x_re"], p["x_im"])
        lhs = complex(e["lhs"], e.get("lhs_im", 0.0))
        rhs = complex(e["rhs"], e.get("rhs_im", 0.0))
        if e["id"].startswith("Li_"):
            polylog.append((e["id"], n, m, x, lhs, rhs))
            continue
        ref = refs(n, m, x)
        for side, value in (("lhs", lhs), ("rhs", rhs)):
            if ref.distance(value) > e["tol"] * max(1.0, abs(ref.value)):
                bad.append(f"{e['id']} {side} off the reference by {ref.distance(value):.3e}")
    bad += check_polylog_entries(polylog)
    return {
        "tol_violations": len(bad) + loop.failed + loop.mismatched,
        "entries": len(report["entries"]),
        "stdout_bytes": len(text.encode()),
        "detail": bad,
    }


def check_polylog_entries(entries) -> list[str]:
    """li_factorized(n, z, m) and li(n, z**m) against mpmath's Li_n(z**m)."""
    import mpmath

    bad = []
    with mpmath.mp.workdps(30):
        for ident, n, m, z, lhs, rhs in entries:
            ref = complex(mpmath.polylog(n, mpmath.mpc(z.real, z.imag) ** m))
            for side, value in (("lhs", lhs), ("rhs", rhs)):
                if abs(value - ref) > 1e-12 * max(1.0, abs(ref)):
                    bad.append(f"{ident} {side} off mpmath by {abs(value - ref):.3e}")
    return bad


# -- metrics -----------------------------------------------------------------------


def end_to_end(loop: Loop, setup_s: float, est_ok: float) -> dict:
    t = loop.timings()
    return {
        "setup_s": setup_s,
        "ops_per_s": t["ops_per_s"],
        "op_ms_p50": t["op_ms_p50"],
        "op_ms_p90": t["op_ms_p90"],
        "est_ok_frac": est_ok,
    }


PER_LAYER_UNITS = {}  # name -> unit, filled in declaration order below


def _declare(unit: str, *names: str) -> None:
    for name in names:
        PER_LAYER_UNITS[name] = unit


_declare("count", "series.sum_direct.calls", "series.sum_direct.terms")
_declare("s", "series.sum_direct.busy_s")
_declare("ns", "series.sum_direct.ns_per_term")
_declare("count", "closed_forms.phi.calls")
_declare("s", "closed_forms.phi.busy_s")
_declare("count", "closed_forms.fold.calls")
_declare("s", "closed_forms.fold.self_s")
_declare("count", "closed_forms.fold.branch_failures")
for _band in ("z_le_0.5", "z_0.5_0.99", "z_gt_0.99"):
    _declare("count", f"polylog.li.calls.{_band}")
    _declare("s", f"polylog.li.busy_s.{_band}")
_declare("s", "polylog.li_factorized.busy_s")
_declare(
    "count",
    "quadrature.adaptive_quad.calls",
    "quadrature.adaptive_quad.nested_calls",
    "quadrature.adaptive_quad.neval",
)
_declare("s", "quadrature.adaptive_quad.self_s")
_declare("count", "quadrature.adaptive_quad.failed")
_declare("ratio", "quadrature.hidden_work_ratio")
_declare("count", "quadrature.hidden_work_base")
_declare("count", "quadrature.probe_neval.S3_1_rim", "quadrature.probe_neval.S3_2_rim")
_declare("count", "integral_reps.quad_polylog.calls")
_declare("s", "integral_reps.quad_polylog.busy_s", "integral_reps.quad_polylog.self_s")
_declare("count", "integral_reps.quad_two_term.calls")
_declare("s", "integral_reps.quad_two_term.busy_s")
_declare("s", "routes.evaluate.self_s")
for _method in TIERS:
    _declare("count", f"routes.auto.{_method}.calls")
_declare("count", "routes.hypergeometric_value.terms")
_declare(
    "s",
    "verify.run_special_values.busy_s",
    "verify.run_cross_routes.busy_s",
    "verify.run_polylog_factorization.busy_s",
    "cli.main.self_s",
)
_declare("bytes", "cli.stdout_bytes")
_declare("fraction", "trace_overhead_frac")

# The two rim points whose nested quadrature ROADMAP item 1 targets.
PROBES = {
    "quadrature.probe_neval.S3_1_rim": (3, 1, workloads.radius(1)),
    "quadrature.probe_neval.S3_2_rim": (3, 2, workloads.radius(2)),
}


def per_layer(trace: tracing.Tracer, traced: Loop, untraced: Loop, probes: dict, stdout_bytes: int) -> dict:
    st = trace.stats
    per = 1.0 / traced.passes

    def calls(name):
        return st[name].calls * per if name in st else 0.0

    def busy(name):
        return st[name].busy * per if name in st else 0.0

    def self_s(name):
        return st[name].self_time * per if name in st else 0.0

    def count(name, key):
        return st[name].counts.get(key, 0) * per if name in st else 0.0

    out = {
        "series.sum_direct.calls": calls("series.sum_direct"),
        "series.sum_direct.terms": count("series.sum_direct", "terms"),
        "series.sum_direct.busy_s": busy("series.sum_direct"),
    }
    terms = out["series.sum_direct.terms"]
    out["series.sum_direct.ns_per_term"] = 1e9 * out["series.sum_direct.busy_s"] / terms if terms else 0.0
    out["closed_forms.phi.calls"] = calls("closed_forms.phi")
    out["closed_forms.phi.busy_s"] = busy("closed_forms.phi")
    out["closed_forms.fold.calls"] = calls("closed_forms.fold")
    out["closed_forms.fold.self_s"] = self_s("closed_forms.fold")
    out["closed_forms.fold.branch_failures"] = count("closed_forms.fold", "BranchFailure")
    for band in ("z_le_0.5", "z_0.5_0.99", "z_gt_0.99"):
        out[f"polylog.li.calls.{band}"] = calls(f"polylog.li.{band}")
        out[f"polylog.li.busy_s.{band}"] = busy(f"polylog.li.{band}")
    out["polylog.li_factorized.busy_s"] = busy("polylog.li_factorized")
    aq = "quadrature.adaptive_quad"
    out[f"{aq}.calls"] = calls(aq)
    out[f"{aq}.nested_calls"] = count(aq, "nested_calls")
    out[f"{aq}.neval"] = count(aq, "neval")
    out[f"{aq}.self_s"] = self_s(aq)
    out[f"{aq}.failed"] = st[aq].failed * per if aq in st else 0.0
    hidden = sum(count(name, "hidden_neval") for name in tracing.QUAD_ROUTES)
    base = sum(count(name, "reported_work") for name in tracing.QUAD_ROUTES)
    out["quadrature.hidden_work_ratio"] = hidden / base if base else 0.0
    out["quadrature.hidden_work_base"] = base
    out.update(probes)
    qp, qt = "integral_reps.quad_polylog", "integral_reps.quad_two_term"
    out[f"{qp}.calls"] = calls(qp)
    out[f"{qp}.busy_s"] = busy(qp)
    out[f"{qp}.self_s"] = self_s(qp)
    out[f"{qt}.calls"] = calls(qt)
    out[f"{qt}.busy_s"] = busy(qt)
    out["routes.evaluate.self_s"] = self_s("routes.evaluate")
    for method in TIERS:
        out[f"routes.auto.{method}.calls"] = calls(f"routes.auto.{method}")
    out["routes.hypergeometric_value.terms"] = count("routes.hypergeometric_value", "terms")
    for name in ("run_special_values", "run_cross_routes", "run_polylog_factorization"):
        out[f"verify.{name}.busy_s"] = busy(f"verify.{name}")
    out["cli.main.self_s"] = self_s("cli.main")
    out["cli.stdout_bytes"] = stdout_bytes
    out["trace_overhead_frac"] = 1.0 - traced.timings()["ops_per_s"] / untraced.timings()["ops_per_s"]
    return {name: out[name] for name in PER_LAYER_UNITS}


def run_probes(routes) -> dict:
    """neval under one traced auto evaluation at each probe point."""
    out = {}
    for name, (n, m, x) in PROBES.items():
        trace = tracing.Tracer()
        trace.install()
        try:
            routes.evaluate(n, m, x)
        finally:
            trace.uninstall()
        out[name] = trace.stats["quadrature.adaptive_quad"].counts.get("neval", 0)
    return out


# -- main -----------------------------------------------------------------------------


def report(metrics: dict, units: dict, notes: dict) -> None:
    for name, value in metrics.items():
        note = f"  ({notes[name]})" if name in notes else ""
        print(f"{name:<44} {value:>16.6g} {units[name]}{note}")


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(workloads.GENERATORS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    routes, cli = import_package()
    cases = workloads.GENERATORS[args.workload](args.seed)
    op = make_op(args.workload, routes, cli)
    refs = load_oracle()
    case_refs = [] if args.workload == "verify" else [refs(c.n, c.m, c.x) for c in cases]

    if args.trace:
        untraced = run_loop(op, cases, args.seconds / 2, 1)
        trace = tracing.Tracer()
        trace.install()
        try:
            traced = run_loop(op, cases, args.seconds / 2, 1, trace)
        finally:
            trace.uninstall()
        probes = run_probes(routes)
        SPAN_DIR.mkdir(exist_ok=True)
        trace.write_spans(SPAN_DIR / f"spans-{args.workload}-{args.seed}.jsonl")
        loops = (untraced, traced)
    else:
        setup_s, setup_raw = measure_setup(cases[0])
        untraced = run_loop(op, cases, args.seconds, MIN_PASSES)
        loops = (untraced,)

    problems = []
    if args.workload == "verify":
        checked = check_verify(untraced, refs)
        est_ok = 1.0  # verify entries carry no error estimate
        stdout_bytes = checked["stdout_bytes"]
    else:
        checked = check_evaluations(cases, untraced, case_refs)
        est_ok = 1.0 - checked["est_violations"] / checked["completed"] if checked["completed"] else 0.0
        stdout_bytes = 0
        if checked["tol_violations"]:
            problems.append(f"{checked['tol_violations']} ops outside their tolerance tier")
    problems += checked["detail"][:20]
    for loop in loops:
        if loop.mismatched:
            problems.append(f"{loop.mismatched} repeated ops differ from the first pass")
    if args.trace and not all(same(a, b) for a, b in zip(untraced.results, traced.results)):
        problems.append("traced results differ from untraced ones")

    attempted = sum(loop.attempted for loop in loops)
    failed = sum(loop.failed for loop in loops)
    print(f"workload {args.workload}, seed {args.seed}, {len(cases)} cases per pass")
    for label, loop in zip(("untraced", "traced"), loops):
        print(
            f"{label}: {loop.attempted} ops in {loop.passes} passes, {loop.elapsed:.2f} s, "
            f"{loop.failed} failed"
        )
    print(f"failed_frac {failed / attempted:.6g}, tol_violations {checked['tol_violations']}", end="")
    if args.workload == "verify":
        print(f" ({checked['entries']} entries per op), est_violations n/a")
    else:
        print(f", est_violations {checked['est_violations']} of {checked['completed']}")
    for p in problems:
        print(f"PROBLEM: {p}")

    if args.trace:
        metrics = per_layer(trace, traced, untraced, probes, stdout_bytes)
        units = PER_LAYER_UNITS
        notes = {}
    else:
        metrics = end_to_end(untraced, setup_s, est_ok)
        units = END_TO_END
        t = untraced.timings()
        raw = untraced.timings(scaled=False)
        notes = {
            "setup_s": f"median of {SETUP_RUNS} fresh processes; {setup_raw:.6g} s as measured",
            "ops_per_s": f"{raw['ops_per_s']:.6g} as measured",
            "op_ms_p50": f"{t['samples']} samples; {raw['op_ms_p50']:.6g} as measured",
            "op_ms_p90": f"{t['samples']} samples, {t['above_p90']} above; {raw['op_ms_p90']:.6g} as measured",
        }
    report(metrics, units, notes)
    result = {
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
