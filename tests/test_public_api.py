"""The public surface: the names ``invbinom`` exports, each documented in the README."""

import re
from pathlib import Path

import pytest

import invbinom

README = Path(__file__).resolve().parent.parent / "README.md"

PUBLIC_NAMES = [
    "ArgumentError",
    "CardanoRoot",
    "CheckEntry",
    "ConvergenceError",
    "DomainError",
    "EXPERIMENTAL_IDS",
    "Evaluation",
    "IdentityRecord",
    "METHODS",
    "PRINCIPAL_BRANCH",
    "PoleError",
    "REAL_BRANCH",
    "SPECIAL_VALUES",
    "SeriesError",
    "SeriesParams",
    "TwoTermLimits",
    "VerificationReport",
    "adaptive_quad",
    "convergence_radius",
    "default_grid",
    "evaluate",
    "fold",
    "li",
    "pair_tolerance",
    "phi",
    "quad_cardano",
    "quad_polylog",
    "quad_two_term",
    "record_by_id",
    "resolve_auto",
    "root_of_unity",
    "run_all",
    "run_borwein_girgensohn",
    "run_cross_routes",
    "run_special_values",
    "s01",
    "s11",
    "s21",
    "sum_direct",
    "two_term_limits",
]


def _api_section() -> str:
    text = README.read_text(encoding="utf-8")
    match = re.search(r"^## Public API\n(.*?)^## ", text, re.S | re.M)
    assert match, "README has no '## Public API' section"
    return match.group(1)


def test_all_is_the_pinned_list():
    assert len(PUBLIC_NAMES) == 40
    assert sorted(invbinom.__all__) == PUBLIC_NAMES
    assert len(set(invbinom.__all__)) == len(invbinom.__all__)


def test_every_name_resolves():
    for name in PUBLIC_NAMES:
        assert getattr(invbinom, name) is not None, name


def test_the_readme_lists_each_name_once():
    listed = re.findall(r"^- `([A-Za-z_0-9]+)`", _api_section(), re.M)
    assert sorted(listed) == PUBLIC_NAMES


def test_deleted_names_are_gone():
    deleted = (
        "BranchFailure",
        "Domain",
        "PolylogQuery",
        "beta_term_identity",
        "binomial_exact",
        "hypergeometric_value",
        "li_factorized",
        "pfq",
        "render",
        "run_polylog_factorization",
        "series_terms",
        "term_ratio",
        "term_ratio_stride",
    )
    for name in deleted:
        assert not hasattr(invbinom, name), name
    assert not hasattr(invbinom.closed_forms, "pfq")
    assert not hasattr(invbinom.polylog, "li_factorized")
    for name in (
        "Expr", "render", "rat", "pi", "add", "mul", "neg", "powi",
        "log", "atan", "acot", "sqrt", "cbrt", "sub", "div",
    ):  # the registry's expression-tree interpreter
        assert not hasattr(invbinom.identities, name), name
    for name in ("hypergeometric_value", "PFQ_RECIPES", "_PFQ_TOL", "_pfq_limits", "_pfq"):
        assert not hasattr(invbinom.routes, name), name
    for name in ("run_polylog_factorization", "FACTORIZATION_POINTS"):
        assert not hasattr(invbinom.verify, name), name
    assert "pfq" not in invbinom.METHODS
    assert "polylog" not in invbinom.verify.SUITE_NAMES
    for attr in ("classify", "radius", "summable"):
        assert not hasattr(invbinom.SeriesParams, attr), attr


# The value types: named tuples, each an immutable tuple of its fields.
VALUE_TYPES = {
    "SeriesParams": lambda: invbinom.SeriesParams(2, 1, 0.5),
    "TwoTermLimits": lambda: invbinom.two_term_limits(1.0),
    "IdentityRecord": lambda: invbinom.SPECIAL_VALUES[0],
    "CheckEntry": lambda: invbinom.run_borwein_girgensohn().entries[0],
    "VerificationReport": lambda: invbinom.run_borwein_girgensohn(),
    "Route": lambda: invbinom.routes.ROUTES["direct-sum"],
    "CardanoRoot": lambda: invbinom.phi(0.5),
}


@pytest.mark.parametrize("name", VALUE_TYPES)
def test_value_types_are_immutable_named_tuples(name):
    value = VALUE_TYPES[name]()
    assert type(value).__name__ == name
    assert value == tuple(value) and tuple(value) == tuple(getattr(value, f) for f in value._fields)
    for attr in (*value._fields, "extra"):
        with pytest.raises(AttributeError):
            setattr(value, attr, 0)


def test_series_params_replace_goes_through_the_checks():
    p = invbinom.SeriesParams(2, 1, 0.5)
    assert p._replace(x=1) == (2, 1, 1 + 0j)
    assert p._replace(x=1).x.__class__ is complex
    with pytest.raises(invbinom.ArgumentError, match="stride m must be >= 1"):
        p._replace(m=0)
    with pytest.raises(invbinom.ArgumentError, match="n, m must be integers"):
        invbinom.SeriesParams._make((2.0, 1, 0.5))


def test_value_type_reprs():
    assert repr(invbinom.SeriesParams(2, 1, 0.5)) == "SeriesParams(n=2, m=1, x=(0.5+0j))"
    assert repr(invbinom.two_term_limits(27 / 4)) == (
        "TwoTermLimits(alpha=-1.3862943611198904, beta=-3.141592653589793, phi=1.0)"
    )


def test_verification_report_environment_defaults_to_a_fresh_copy():
    a = invbinom.VerificationReport("s", ())
    b = invbinom.VerificationReport("s", ())
    assert a.environment == invbinom.verify.ENVIRONMENT
    assert a.environment is not b.environment
    assert a.environment is not invbinom.verify.ENVIRONMENT
    assert not hasattr(a, "wall_s")
    assert "wall_ms" not in invbinom.CheckEntry._fields
