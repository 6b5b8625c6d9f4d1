"""Tests of the benchmark itself: python3 -m pytest perfbench"""

from __future__ import annotations

import cmath
import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import oracle
import run
import tracer as tracing
import workloads

HERE = Path(__file__).resolve().parent
BENCHMARK = json.loads((HERE.parent / "BENCHMARK.json").read_text())

routes, cli = run.import_package()
import invbinom  # noqa: E402  (importable once run.import_package put src/ on the path)


@pytest.mark.parametrize("name", sorted(workloads.GENERATORS))
def test_generator_is_deterministic(name):
    gen = workloads.GENERATORS[name]
    assert gen(7) == gen(7)
    if name != "verify":  # verify ignores its seed
        assert gen(7) != gen(8)


@pytest.mark.parametrize("name", sorted(workloads.GENERATORS))
def test_generated_points_lie_on_the_closed_disk(name):
    for seed in range(5):
        for case in workloads.GENERATORS[name](seed):
            if case.method != "verify":
                assert abs(case.x) <= workloads.radius(case.m)


def test_clamp_keeps_rim_points_on_the_closed_disk():
    rounded_out = 0
    for m in range(1, 9):
        rad = workloads.radius(m)
        for i in range(2000):
            theta = 2 * math.pi * (i + 0.5) / 2000
            raw = rad * cmath.exp(1j * theta)
            rounded_out += abs(raw) > rad
            x = workloads.clamp(raw, rad)
            assert abs(x) <= rad
            assert abs(x - raw) <= 4 * rad * sys.float_info.epsilon
    assert rounded_out  # the clamp has work to do


def test_oracle_reproduces_the_registry():
    refs = oracle.Oracle()
    for rec in invbinom.SPECIAL_VALUES:
        p = rec.params
        ref = refs(p.n, p.m, p.x)
        assert ref.distance(complex(rec.value())) <= 4e-15 * max(1.0, abs(ref.value)), rec.id


def test_oracle_methods_agree_where_both_apply():
    x = 0.99 * workloads.radius(2) * cmath.exp(0.7j)
    a = oracle.fixed_point_sum(3, 2, x)
    b = oracle.mpmath_fold(3, 2, x)
    assert a.distance(b.value) <= 1e-15 * abs(a.value)
    assert a.err < 1e-30 and b.err < 1e-20


def test_rim_table_covers_the_rim_workload_and_matches_live_values():
    table = json.loads(run.RIM_TABLE.read_text())
    keys = {oracle.key(n, m, x) for n, m, x in workloads.rim_universe()}
    assert keys == set(table)
    refs = run.load_oracle()
    for n, m, x in workloads.rim_universe()[::97]:
        live = oracle.mpmath_fold(n, m, x)
        assert refs(n, m, x).distance(live.value) <= 1e-15 * abs(live.value)


def test_metric_names_match_benchmark_json():
    assert {w["name"] for w in BENCHMARK["workloads"]} == set(workloads.GENERATORS)
    assert {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]} == run.PER_LAYER_UNITS


def test_tracer_leaves_values_and_bindings_unchanged():
    cases = workloads.interior(3)[::40] + workloads.rim(3)[:4] + workloads.direct(3)[::60]
    op = run.make_op("interior", routes, cli)
    before = {name: dict(vars(mod)) for name, mod in sys.modules.items() if name.startswith("invbinom")}
    plain = [op(c) for c in cases]
    trace = tracing.Tracer()
    trace.install()
    try:
        traced = [op(c) for c in cases]
    finally:
        trace.uninstall()
    assert traced == plain
    after = {name: dict(vars(mod)) for name, mod in sys.modules.items() if name.startswith("invbinom")}
    assert after == before
    assert trace.stats["routes.evaluate"].calls == len(cases)


def test_tracer_counts_nested_quadrature():
    """The seed's polylog kernel quadrature reports 405 and 540 integrand
    calls at these rim points but runs 379,290 and 386,715."""
    if invbinom.evaluate(3, 1, 27 / 4).work != 405:
        pytest.skip("the rim quadrature has changed since these counts were taken")
    assert run.run_probes(routes) == {
        "quadrature.probe_neval.S3_1_rim": 379_290,
        "quadrature.probe_neval.S3_2_rim": 386_715,
    }


def test_refuses_to_run_without_the_package(tmp_path):
    shutil.copytree(HERE, tmp_path / HERE.name, ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    cmd = [sys.executable, *BENCHMARK["command"][1:], "--workload", "interior", "--seed", "1"]
    done = subprocess.run(
        [*cmd, "--seconds", "1", "--trace", "0"], cwd=tmp_path, capture_output=True, text=True, timeout=60
    )
    assert done.returncode != 0
    assert "metrics" not in done.stdout
