"""Exact-form descriptors and the special-value registry."""

import math

import pytest

from invbinom import EXPERIMENTAL_IDS, SPECIAL_VALUES, record_by_id, render
from invbinom.identities import acot, atan, cbrt, div, log, mul, pi, powi, rat, sqrt, sub
from test_series import _summable


class TestRender:
    def test_primitives(self):
        assert render(rat(3, 4)) == 0.75
        assert render(pi()) == math.pi
        assert render(log(rat(2))) == math.log(2)
        assert render(atan(rat(1))) == math.pi / 4
        assert render(sqrt(rat(9))) == 3.0
        assert render(cbrt(rat(8))) == pytest.approx(2.0, abs=1e-15)
        assert render(cbrt(rat(-8))) == pytest.approx(-2.0, abs=1e-15)

    def test_arccot_is_atan2_based(self):
        assert render(acot(rat(1))) == math.pi / 4
        assert render(acot(rat(-1))) == 3 * math.pi / 4  # arccot ranges over (0, pi)

    def test_compound(self):
        expr = sub(mul(rat(2, 3), powi(pi(), 2)), mul(rat(2), powi(log(rat(2)), 2)))
        assert render(expr) == pytest.approx(2 * math.pi**2 / 3 - 2 * math.log(2) ** 2, abs=1e-15)

    def test_division_sugar(self):
        assert render(div(rat(1), rat(8))) == 0.125

    def test_unknown_node_rejected(self):
        with pytest.raises(ValueError):
            render(("cos", rat(1)))


class TestRegistry:
    def test_eleven_records_with_unique_ids(self):
        assert len(SPECIAL_VALUES) == 11
        ids = [rec.id for rec in SPECIAL_VALUES]
        assert len(set(ids)) == 11

    def test_exactly_one_boundary_record(self):
        rim = [rec for rec in SPECIAL_VALUES if rec.boundary]
        assert [rec.id for rec in rim] == ["S(2,1;27/4)"]

    def test_render_is_reproducible(self):
        for rec in SPECIAL_VALUES:
            assert rec.value() == rec.value()

    def test_params_stay_in_domain(self):
        for rec in SPECIAL_VALUES:
            p = rec.params
            assert _summable(p.n, p.m, p.x), rec.id

    def test_rim_record_value(self):
        rec = record_by_id("S(2,1;27/4)")
        assert rec.value() == pytest.approx(2 * math.pi**2 / 3 - 2 * math.log(2) ** 2, abs=1e-15)

    def test_weight1_half_record_value(self):
        rec = record_by_id("S(1,1;1/2)")
        assert rec.value() == pytest.approx(math.pi / 10 - math.log(2) / 5, abs=1e-16)

    def test_experimental_subset(self):
        assert len(EXPERIMENTAL_IDS) == 4
        for identity_id in EXPERIMENTAL_IDS:
            record_by_id(identity_id)  # raises KeyError if missing

    def test_unknown_id_raises(self):
        with pytest.raises(KeyError):
            record_by_id("S(9,9;0)")
