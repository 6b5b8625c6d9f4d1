"""Numerical evaluation and cross-verification of the inverse binomial
coefficient series

    S(n, m; x) = sum_{k >= 1} x**k / (k**n * C(3mk, mk))

by four independent routes: direct summation, explicit closed forms built
on a Cardano cubic root, quadrature of three integral representations, and
root-of-unity folding to general stride, with a registry of explicit
special values and a cross-route grid that ``verify`` checks them against.
"""

# First: it imports the kernels of series, closed_forms and integral_reps, and closed_forms
# imports it back, last, for ``fold``: the one import cycle of the package.
from .routes import METHODS, evaluate, resolve_auto  # isort: skip
from .closed_forms import CardanoRoot, PRINCIPAL_BRANCH, REAL_BRANCH, fold, phi
from .errors import (
    ArgumentError,
    ConvergenceError,
    DomainError,
    PoleError,
    SeriesError,
)
from .identities import EXPERIMENTAL_IDS, SPECIAL_VALUES, IdentityRecord, record_by_id
from .polylog import li
from .series import Evaluation, SeriesParams, convergence_radius
from .verify import (
    CheckEntry,
    VerificationReport,
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
    "VerificationReport",
    "convergence_radius",
    "evaluate",
    "fold",
    "li",
    "phi",
    "record_by_id",
    "resolve_auto",
    "run_all",
    "run_borwein_girgensohn",
    "run_cross_routes",
    "run_special_values",
]
