"""Derivative-jump route: correct in exact arithmetic, drifting in doubles.

The single-step case on (2_1 1) over [2, 4] has a one-line hand derivation:
the seam jumps of the C0 basis give alpha_3 = 1 + (-2)/3 = 1/3.
"""

from fractions import Fraction as F

import numpy as np
import pytest

from mdspline import (EXACT, FLOAT, MDSpace, NumericalInconsistencyError, Trace,
                      build_matrix_derivative, build_matrix_rki)
from mdspline.legacy import alpha_via_derivatives
from mdspline.oracle import matrix_error, exact_bundle
from mdspline.presets import preset_space


def test_single_step_by_hand():
    sp = MDSpace.create((2.0, 4.0), (3.0,), (2, 1), (1,))
    trace = Trace()
    bundle = build_matrix_derivative(sp, EXACT, trace=trace)
    (step,) = trace.steps
    assert (step.kind, step.at, step.n, step.k) == ("legacy", 3.0, 1, 1)
    assert step.coefficients.window == (3, 3)
    assert step.coefficients.alphas == (F(1, 3),)
    stable = build_matrix_rki(sp, EXACT)
    assert np.array_equal(np.asarray(bundle.matrix), np.asarray(stable.matrix))


@pytest.mark.parametrize("sp", [
    MDSpace.create((0.0, 4.0), (1.0, 2.0, 3.0), (2, 2, 4, 3), (1, 2, 3)),
    MDSpace.create((0.0, 3.0), (1.0, 2.0), (4, 2, 3), (2, 1)),
    MDSpace.create((0.0, 2.0), (1.0,), (4, 5), (3,)),
])
def test_exact_replay_equals_stable(sp):
    legacy = build_matrix_derivative(sp, EXACT)
    stable = build_matrix_rki(sp, EXACT)
    assert np.array_equal(np.asarray(legacy.matrix), np.asarray(stable.matrix))


def test_double_precision_drift():
    sp = preset_space("test1")
    exact = exact_bundle(sp)
    stable_err = matrix_error(build_matrix_rki(sp, FLOAT).matrix, exact.matrix)
    legacy_err = matrix_error(build_matrix_derivative(sp, FLOAT).matrix, exact.matrix)
    assert legacy_err > 1e3 * stable_err


def test_vanishing_jump_raises():
    # asking for an order-2 jump of piecewise linears: both sides are zero
    sp = MDSpace.create((0.0, 2.0), (1.0,), (1, 1), (0,))
    matrix = np.eye(3)
    with pytest.raises(NumericalInconsistencyError):
        alpha_via_derivatives(matrix, sp, 1.0, 2, 2, 2, FLOAT)


def test_bundle_shape():
    sp = MDSpace.create((0.0, 4.0), (1.0, 2.0, 3.0), (2, 2, 4, 3), (1, 2, 3))
    bundle = build_matrix_derivative(sp, FLOAT)
    assert bundle.strategy == "derivative"
    assert set(bundle.orders) == {0}
    assert bundle.alpha_count == 5   # one coefficient per raised order: 3 + 2
    assert bundle.matrix.shape == (6, 11)
