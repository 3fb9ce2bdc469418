"""Matrix representations of multi-degree B-spline bases.

The package builds the matrix that expresses a basis of smooth piecewise
polynomials with per-interval degrees in terms of the B-spline basis of the
associated C0 space. Three construction routes are provided: reverse knot
insertion (joining sections of equal degree), reverse degree elevation
(lowering a uniform degree section-wise) and a mixed per-section strategy.
All routes avoid subtractions in their coefficient recurrences; a legacy
derivative-based route is included for error comparisons, and every route can
be replayed in exact rational arithmetic. One assembler, `build_matrix`,
serves all four routes, and an optional `Trace` records every step it runs.
"""

from ._scalars import EXACT, FLOAT
from .assembler import (build_matrix, build_matrix_derivative, build_matrix_mixed,
                        build_matrix_rde, build_matrix_rki)
from .errors import (MDSplineError, NumericalInconsistencyError,
                     SpaceValidationError, UnsupportedSpaceError)
from .eval_api import eval_basis, eval_spline, greville, insert_knot_coeffs
from .join_core import Bundle, Trace, cr_join, section_bundle
from .spaces import MDSpace

__all__ = [
    "MDSpace",
    "Bundle",
    "Trace",
    "FLOAT",
    "EXACT",
    "build_matrix",
    "build_matrix_rki",
    "build_matrix_rde",
    "build_matrix_mixed",
    "build_matrix_derivative",
    "cr_join",
    "section_bundle",
    "eval_basis",
    "eval_spline",
    "greville",
    "insert_knot_coeffs",
    "MDSplineError",
    "SpaceValidationError",
    "NumericalInconsistencyError",
    "UnsupportedSpaceError",
]

__version__ = "0.1.0"
