"""The special-value registry."""

import math
from fractions import Fraction

import pytest

from invbinom import EXPERIMENTAL_IDS, SPECIAL_VALUES, record_by_id
from test_series import _summable

# Each value to 40 significant digits, from a one-off mpmath run at 60 digits: the direct
# sum inside the disk, and 2*pi**2/3 - 2*log(2)**2 at the rim, which an Euler-Maclaurin
# sum of the series (mpmath nsum) matches to 27 digits.
REFERENCES = {
    "S(2,1;27/4)": "5.618830239556502896555455613930770813415",
    "S(2,1;6)": "3.433029058562318821247190362751760008581",
    "S(2,1;1/2)": "0.1710070097529558967845525284981738114395",
    "S(2,1;1)": "0.3514640300570974404199447013216030347178",
    "S(2,1;-1/4)": "-0.08231185409561037511875264012161742637375",
    "S(1,1;1/2)": "0.1755298292469902619628179140363149748046",
    "S(1,1;6)": "7.948212595906669710187623682294565471979",
    "S(0,1;1/2)": "0.1849590120910735276403291670343056516371",
    "S(0,1;-1/4)": "-0.07934509970656522756162618735103324689912",
    "S(0,1;6)": "45.20271593479173687163464901955373392213",
    "S(0,1;1)": "0.4143220443218203918650039438312489508453",
}


class TestRegistry:
    def test_eleven_records_with_unique_ids(self):
        assert len(SPECIAL_VALUES) == 11
        ids = [rec.id for rec in SPECIAL_VALUES]
        assert len(set(ids)) == 11

    def test_exactly_one_boundary_record(self):
        rim = [rec for rec in SPECIAL_VALUES if rec.boundary]
        assert [rec.id for rec in rim] == ["S(2,1;27/4)"]

    def test_values_match_the_references_to_8_ulp(self):
        # the worst measured is 5.65 ulp, at S(2,1;1)
        assert sorted(REFERENCES) == sorted(rec.id for rec in SPECIAL_VALUES)
        for rec in SPECIAL_VALUES:
            ref = Fraction(REFERENCES[rec.id])
            assert rec.exact == rec.value()
            assert abs(Fraction(rec.value()) - ref) <= 8 * Fraction(math.ulp(rec.value())), rec.id

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
