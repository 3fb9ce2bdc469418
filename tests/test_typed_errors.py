"""Typed errors of public calls that no other test raises.

Each case is one call with input that breaks the rule its raise guards, and
the error type and message that the call must give.
"""

from dataclasses import replace
from fractions import Fraction as F

import numpy as np
import pytest

from mdspline import (EXACT, FLOAT, MDSpace, NumericalInconsistencyError,
                      SpaceValidationError, UnsupportedSpaceError, build_matrix,
                      cr_join, eval_basis, greville, section_bundle)
from mdspline.c0_engine import c0_integrals, eval_c0_derivatives
from mdspline.join_core import (Bundle, OrderData, RKICoefficients, c0_join_matrices,
                                make_coefficients, ratio_coefficients)
from mdspline.presets import preset_space, table7

TWO_SECTIONS = MDSpace.create((0.0, 3.0), (1.0, 2.0), (3, 2, 3), (2, 1))
C0_LINEAR = MDSpace.create((0.0, 2.0), (1.0,), (1, 1), (0,))


def _zero_order_one_integral():
    bundle = build_matrix(TWO_SECTIONS, "rki")
    one = bundle.orders[1]
    ints = one.integrals.copy()
    ints[1] = 0.0
    bundle.orders[1] = replace(one, integrals=ints)
    return greville(bundle)


def _rows_outside_the_window():
    # every row lies in column 0, and a point in the second interval reads
    # columns 1 and 2
    matrix = np.array([[1.0, 0.0, 0.0]] * 3)
    in0 = c0_integrals(C0_LINEAR, FLOAT)
    bundle = Bundle(C0_LINEAR, {0: OrderData(matrix, C0_LINEAR, in0, matrix.dot(in0))})
    return eval_basis(bundle, 1.5)


def _join_a_derivative_route_bundle():
    left = build_matrix(MDSpace.create((0.0, 2.0), (1.0,), (3, 2), (1,)), "derivative")
    right = section_bundle(MDSpace.create((2.0, 3.0), (), (3,), ()), FLOAT, 1)
    return cr_join(left, right, 1)


def _ratio_over(den):
    # the denominator is the integral after the step below, in either field
    dtype = object if isinstance(den, F) else float
    return ratio_coefficients(2, 2, RKICoefficients(2, 1, (), ()),
                              np.ones(2, dtype=dtype), np.array([den], dtype=dtype))


CASES = {
    "negative derivative order": (
        lambda: TWO_SECTIONS.derivative_space(-1), ValueError, "nonnegative"),
    "decomposition of an internal space": (
        lambda: TWO_SECTIONS.derivative_space(1).section_decomposition(),
        SpaceValidationError, "public spaces"),
    "one-sided derivative of no side": (
        lambda: eval_c0_derivatives(C0_LINEAR, 0.5, "middle", 1, FLOAT),
        ValueError, "side must be"),
    "table7 continuity above both degrees": (
        lambda: table7(20), ValueError, "out of range"),
    "window wider than its coefficients": (
        lambda: make_coefficients(2, 3, (F(1, 2),), (F(1, 2),), EXACT),
        ValueError, "window size"),
    "exact corners that disagree": (
        lambda: c0_join_matrices(np.array([[F(1)]], dtype=object),
                                 np.array([[F(1, 2)]], dtype=object)),
        NumericalInconsistencyError, "disagree exactly"),
    "section bundle of a space with a smooth degree change": (
        lambda: section_bundle(TWO_SECTIONS, FLOAT), UnsupportedSpaceError,
        "not directly evaluable"),
    "ratio over a zero float integral": (
        lambda: _ratio_over(0.0), NumericalInconsistencyError, "not positive"),
    "ratio over a NaN integral": (
        lambda: _ratio_over(float("nan")), NumericalInconsistencyError, "not positive"),
    "ratio over a zero exact integral": (
        lambda: _ratio_over(F(0)), NumericalInconsistencyError, "not positive"),
    "join of a bundle without order 1": (
        _join_a_derivative_route_bundle, UnsupportedSpaceError, r"lacks derivative orders \[1\]"),
    "abscissae of a multi-section derivative-route bundle": (
        lambda: greville(build_matrix(preset_space("test1"), "derivative")),
        UnsupportedSpaceError, "first-derivative"),
    "abscissae from a zero order-1 integral": (
        _zero_order_one_integral, NumericalInconsistencyError, "abscissa step"),
    "no row meets the window": (
        _rows_outside_the_window, NumericalInconsistencyError, "no row meets"),
}


@pytest.mark.parametrize("case", list(CASES))
def test_public_call_raises_its_typed_error(case):
    call, error, match = CASES[case]
    with pytest.raises(error, match=match):
        call()
