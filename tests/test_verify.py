"""Verification suites, report shape, serialization round-trip."""

import json
import math
import sys

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from invbinom import (
    ArgumentError,
    CheckEntry,
    SeriesParams,
    VerificationReport,
    run_all,
    run_borwein_girgensohn,
    run_cross_routes,
    run_special_values,
)
from invbinom.verify import ENVIRONMENT, SUITES, default_grid, pair_tolerance
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
        assert routes == {"direct-sum", "closed-form", "quad-polylog", "quad-two-term"}

    @pytest.mark.parametrize(
        "p,expected",
        [
            (SeriesParams(2, 1, 27 / 4), {"closed-form", "quad-polylog", "quad-two-term"}),
            (SeriesParams(2, 2, 45.5625), {"folding[closed-form]", "quad-polylog"}),
            (SeriesParams(3, 1, 27 / 4), {"quad-polylog", "quad-cardano", "quad-two-term"}),
            (SeriesParams(3, 2, -45.5625), {"quad-polylog", "folding[quad-cardano]"}),
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
        assert parsed == report

    def test_round_trip_preserves_complex_values(self):
        report = run_cross_routes(grid=[SeriesParams(2, 1, 1 + 1j)])
        assert any(e.lhs.imag != 0.0 for e in report.entries)
        assert '"lhs_im"' in report.serialize()
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

    def test_json_is_valid_json(self):
        json.loads(run_special_values().serialize())


# Text json must escape: quotes, backslashes, control characters, non-ASCII (a lone
# surrogate too) and the key the report's frame splices its entries into.
_TEXT = st.text(st.sampled_from('"\\\x00\x1f\n\x7fa :[]\xe9\u20ac\U0001f600\ud800')) | st.text()
_FLOAT = st.floats() | st.sampled_from(
    (0.0, -0.0, 5e-324, -2.2e-310, sys.float_info.max, math.inf, -math.inf, math.nan)
)
_IMAG = st.sampled_from((0.0, -0.0)) | _FLOAT
_ENTRY = st.builds(
    CheckEntry,
    id=_TEXT,
    n=st.integers(0, 10**6),
    m=st.integers(1, 10**6),
    x=st.builds(complex, _FLOAT, _FLOAT),
    lhs=st.builds(complex, _FLOAT, _IMAG),
    rhs=st.builds(complex, _FLOAT, _IMAG),
    abs_diff=_FLOAT,
    tol=_FLOAT,
    passed=st.booleans(),
)


class TestSerialize:
    """``serialize`` writes each entry from a template; ``to_json_dict`` is the schema."""

    @given(
        suite=_TEXT,
        entries=st.lists(_ENTRY, max_size=4),
        environment=st.just(ENVIRONMENT) | st.dictionaries(_TEXT, _FLOAT, max_size=3),
    )
    @example(
        suite='"entries": []',
        entries=[CheckEntry("[]", 0, 1, 1j, 0.5, 0.5, 0.0, 1e-12, True)],
        environment={'"entries": []': 0.0},
    )
    @settings(max_examples=100, deadline=None)
    def test_is_json_dumps_of_to_json_dict(self, suite, entries, environment):
        report = VerificationReport(suite, tuple(entries), environment)
        assert report.serialize() == json.dumps(report.to_json_dict(), indent=2)

    @pytest.mark.parametrize("name", SUITES)
    def test_every_suite(self, name):
        report = SUITES[name](None)
        assert report.serialize() == json.dumps(report.to_json_dict(), indent=2)

    def test_an_infinite_tol(self):
        report = run_borwein_girgensohn(tol=math.inf)
        assert '"tol": Infinity' in report.serialize()
        assert report.serialize() == json.dumps(report.to_json_dict(), indent=2)


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
            run_cross_routes(tol=-1.0)

    @pytest.mark.parametrize(
        "suite",
        [run_special_values, run_borwein_girgensohn, run_cross_routes],
    )
    def test_nan_tolerance_is_rejected_before_any_check_runs(self, suite):
        with pytest.raises(ArgumentError, match="tol must be positive"):
            suite(tol=math.nan)
