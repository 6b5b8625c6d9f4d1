"""Numerical evaluation and cross-verification of the inverse binomial
coefficient series

    S(n, m; x) = sum_{k >= 1} x**k / (k**n * C(3mk, mk))

by four independent routes: direct summation, explicit closed forms built
on a Cardano cubic root, quadrature of two integral representations, and
root-of-unity folding to general stride, with a registry of explicit
special values every route is checked against.
"""

from .closed_forms import (
    CardanoRoot,
    PRINCIPAL_BRANCH,
    REAL_BRANCH,
    fold,
    phi,
    s01,
    s11,
    s21,
)
from .errors import (
    ArgumentError,
    BranchFailure,
    ConvergenceError,
    DomainError,
    PoleError,
    SeriesError,
)
from .identities import EXPERIMENTAL_IDS, SPECIAL_VALUES, IdentityRecord, record_by_id, render
from .integral_reps import (
    TwoTermLimits,
    quad_cardano,
    quad_polylog,
    quad_two_term,
    two_term_limits,
)
from .polylog import li, li_factorized, root_of_unity
from .quadrature import adaptive_quad
from .routes import METHODS, evaluate, hypergeometric_value, resolve_auto
from .series import Evaluation, SeriesParams, convergence_radius, sum_direct
from .verify import (
    CheckEntry,
    VerificationReport,
    default_grid,
    pair_tolerance,
    run_all,
    run_borwein_girgensohn,
    run_cross_routes,
    run_polylog_factorization,
    run_special_values,
)

__version__ = "0.1.0"

__all__ = [
    "ArgumentError",
    "BranchFailure",
    "CardanoRoot",
    "CheckEntry",
    "ConvergenceError",
    "DomainError",
    "Evaluation",
    "EXPERIMENTAL_IDS",
    "IdentityRecord",
    "METHODS",
    "PRINCIPAL_BRANCH",
    "PoleError",
    "REAL_BRANCH",
    "SeriesError",
    "SeriesParams",
    "SPECIAL_VALUES",
    "TwoTermLimits",
    "VerificationReport",
    "adaptive_quad",
    "convergence_radius",
    "default_grid",
    "evaluate",
    "fold",
    "hypergeometric_value",
    "li",
    "li_factorized",
    "pair_tolerance",
    "phi",
    "quad_cardano",
    "quad_polylog",
    "quad_two_term",
    "record_by_id",
    "render",
    "resolve_auto",
    "root_of_unity",
    "run_all",
    "run_borwein_girgensohn",
    "run_cross_routes",
    "run_polylog_factorization",
    "run_special_values",
    "s01",
    "s11",
    "s21",
    "sum_direct",
    "two_term_limits",
]
