"""Verification suites, report shape, serialization round-trip."""

import json
import math

import pytest

from invbinom import (
    ArgumentError,
    SeriesParams,
    VerificationReport,
    default_grid,
    pair_tolerance,
    run_all,
    run_borwein_girgensohn,
    run_cross_routes,
    run_polylog_factorization,
    run_special_values,
)
from test_series import _summable


class TestSpecialValues:
    def test_all_pass_with_tiered_defaults(self):
        report = run_special_values()
        assert report.suite == "special-values"
        assert len(report.entries) == 11
        assert report.all_passed, report.to_text()

    def test_registry_ids_appear_exactly_once(self):
        report = run_special_values()
        ids = [e.id for e in report.entries]
        assert len(ids) == len(set(ids)) == 11

    def test_tolerance_tiers(self):
        report = run_special_values()
        by_id = {e.id: e for e in report.entries}
        assert by_id["S(2,1;27/4)"].tol == 1e-9
        assert by_id["S(1,1;1/2)"].tol == 1e-12

    def test_failures_are_entries_not_exceptions(self):
        report = run_special_values(tol=1e-30)
        assert not report.all_passed
        assert report.n_fail > 0

    def test_uniform_override(self):
        report = run_special_values(tol=1e-6)
        assert all(e.tol == 1e-6 for e in report.entries)
        assert report.all_passed


class TestExperimentalSubset:
    def test_four_entries_pass_at_tightened_tolerance(self):
        report = run_borwein_girgensohn()
        assert report.suite == "borwein-girgensohn"
        assert len(report.entries) == 4
        assert all(e.tol == 1e-12 for e in report.entries)
        assert report.all_passed, report.to_text()


class TestCrossRoutes:
    def test_default_grid_has_sixty_points(self):
        assert len(default_grid()) == 60

    def test_default_grid_is_summable(self):
        for p in default_grid():
            assert _summable(p.n, p.m, p.x), p

    def test_full_default_run_passes(self):
        report = run_cross_routes()
        assert report.all_passed, "\n".join(
            e.id for e in report.entries if not e.passed
        )

    def test_zero_point_compares_exactly(self):
        report = run_cross_routes(grid=[SeriesParams(0, 1, 0.0)])
        assert len(report.entries) >= 1
        assert all(e.abs_diff == 0.0 for e in report.entries)

    def test_single_point_routes(self):
        report = run_cross_routes(grid=[SeriesParams(2, 1, 0.5)])
        routes = set()
        for e in report.entries:
            a, b = e.id.rsplit(" ", 1)[1].split("|")
            routes.update((a, b))
        assert routes == {"direct-sum", "closed-form", "quad-polylog", "quad-two-term", "pfq"}

    @pytest.mark.parametrize(
        "p,expected",
        [
            (SeriesParams(2, 1, 27 / 4), {"closed-form", "quad-polylog", "quad-two-term"}),
            (SeriesParams(2, 2, 45.5625), {"folding[closed-form]", "folding[quad-polylog]"}),
            (SeriesParams(3, 1, 27 / 4), {"quad-polylog", "quad-cardano", "quad-two-term"}),
            (SeriesParams(3, 2, -45.5625), {"folding[quad-polylog]", "folding[quad-cardano]"}),
        ],
    )
    def test_rim_points_leave_out_direct_summation(self, p, expected):
        report = run_cross_routes(grid=[p])
        routes = set()
        for e in report.entries:
            routes.update(e.id.rsplit(" ", 1)[1].split("|"))
        assert routes == expected
        assert report.all_passed

    def test_pair_tolerance_tiers(self):
        assert pair_tolerance("direct-sum", "closed-form") == 1e-12
        assert pair_tolerance("direct-sum", "folding[closed-form]") == 1e-10
        assert pair_tolerance("folding[quad-polylog]", "direct-sum") == 1e-9
        assert pair_tolerance("quad-two-term", "quad-polylog") == 1e-8
        assert pair_tolerance("quad-cardano", "direct-sum") == 1e-9
        assert pair_tolerance("quad-two-term", "quad-cardano") == 1e-8


class TestPolylogSuite:
    def test_full_grid_passes(self):
        report = run_polylog_factorization()
        assert len(report.entries) == 3 * 4 * 12
        assert report.all_passed


class TestReport:
    def test_json_shape(self):
        report = run_special_values()
        data = report.to_json_dict()
        assert set(data) == {"suite", "entries", "summary", "environment"}
        assert data["summary"] == {"pass": 11, "fail": 0}
        entry = data["entries"][0]
        assert {"id", "params", "lhs", "rhs", "abs_diff", "tol", "pass"} <= set(entry)
        assert set(entry["params"]) == {"n", "m", "x_re", "x_im"}

    def test_serialization_round_trip(self):
        report = run_borwein_girgensohn()
        parsed = VerificationReport.parse(report.serialize())
        assert parsed == report  # wall times excluded from equality

    def test_round_trip_preserves_complex_values(self):
        report = run_polylog_factorization()
        parsed = VerificationReport.parse(report.serialize())
        assert parsed == report

    def test_serialize_is_deterministic(self):
        a = run_special_values().serialize()
        b = run_special_values().serialize()
        assert a == b

    def test_text_rendering_mentions_counts(self):
        report = run_borwein_girgensohn()
        text = report.to_text()
        assert "4 pass, 0 fail" in text
        assert "wall time" in text

    def test_json_is_valid_json(self):
        json.loads(run_special_values().serialize())


class TestRunAll:
    def test_zero_failures(self):
        report = run_all()
        assert report.suite == "all"
        assert report.all_passed, "\n".join(e.id for e in report.entries if not e.passed)

    def test_registry_once_in_the_full_run(self):
        report = run_all()
        special = [e for e in report.entries if e.id.startswith("S(") and "|" not in e.id]
        assert len(special) == 11

    def test_tol_override_rejects_nonpositive(self):
        with pytest.raises(ArgumentError):
            run_special_values(tol=0.0)
        with pytest.raises(ArgumentError):
            run_polylog_factorization(tol=-1.0)

    @pytest.mark.parametrize(
        "suite",
        [run_special_values, run_borwein_girgensohn, run_cross_routes, run_polylog_factorization],
    )
    def test_nan_tolerance_is_rejected_before_any_check_runs(self, suite):
        with pytest.raises(ArgumentError, match="tol must be positive"):
            suite(tol=math.nan)
