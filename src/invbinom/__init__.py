"""Numerical evaluation and cross-verification of the inverse binomial
coefficient series

    S(n, m; x) = sum_{k >= 1} x**k / (k**n * C(3mk, mk))

by four independent routes: direct summation, explicit closed forms built
on a Cardano cubic root, quadrature of three integral representations, and
root-of-unity folding to general stride, with a registry of explicit
special values and a cross-route grid that ``verify`` checks them against.
"""

# First: it imports the kernels of the modules whose public entries import it last.
from .routes import METHODS, evaluate, resolve_auto  # isort: skip
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
    ConvergenceError,
    DomainError,
    PoleError,
    SeriesError,
)
from .identities import EXPERIMENTAL_IDS, SPECIAL_VALUES, IdentityRecord, record_by_id
from .integral_reps import (
    TwoTermLimits,
    quad_cardano,
    quad_polylog,
    quad_two_term,
    two_term_limits,
)
from .polylog import li, root_of_unity
from .quadrature import adaptive_quad
from .series import Evaluation, SeriesParams, convergence_radius, sum_direct
from .verify import (
    CheckEntry,
    VerificationReport,
    default_grid,
    pair_tolerance,
    run_all,
    run_borwein_girgensohn,
    run_cross_routes,
    run_special_values,
)

__version__ = "0.1.0"

__all__ = [
    "ArgumentError",
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
