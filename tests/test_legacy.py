"""Derivative-jump route: correct in exact arithmetic, drifting in doubles.

The single-step case on (2_1 1) over [2, 4] has a one-line hand derivation:
the seam jumps of the C0 basis give alpha_3 = 1 + (-2)/3 = 1/3.
"""

import warnings
from fractions import Fraction as F

import numpy as np
import pytest

from mdspline import (EXACT, FLOAT, MDSpace, NumericalInconsistencyError, Trace,
                      build_matrix_derivative, build_matrix_rki, join_core, legacy)
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


def test_derivative_route_reads_only_what_it_uses(monkeypatch):
    # every section integrates orders 0 and 1 only, and each jump step
    # evaluates its two one-sided seam windows once; the matrices are the
    # stable ones exactly, and the joins keep order 0 only
    integrated, windows = [], []
    c0_integrals, derivatives = join_core.c0_integrals, legacy.eval_c0_derivatives
    monkeypatch.setattr(join_core, "c0_integrals",
                        lambda sp, field: integrated.append(sp) or c0_integrals(sp, field))
    monkeypatch.setattr(legacy, "eval_c0_derivatives",
                        lambda *args: windows.append(args[2]) or derivatives(*args))
    one_section = MDSpace.create((0.0, 3.0), (1.0, 2.0), (3, 3, 3), (2, 1))
    for sp in [preset_space(name) for name in ("test1", "test2", "test3")] + [one_section]:
        integrated.clear()
        windows.clear()
        trace = Trace()
        bundle = build_matrix_derivative(sp, EXACT, trace=trace)
        n = len(sp.section_decomposition().sections)
        assert len(integrated) == 2 * n, sp
        assert set(bundle.orders) == ({0} if n > 1 else {0, 1})
        assert windows == ["left", "right"] * len(trace.steps), sp
        with monkeypatch.context() as m:
            m.setattr(join_core, "c0_integrals", c0_integrals)
            stable = build_matrix_rki(sp, EXACT)
        assert np.array_equal(np.asarray(bundle.matrix), np.asarray(stable.matrix)), sp


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
        alpha_via_derivatives(matrix, sp, 1.0, 2, 2, 2)


def test_derivatives_a_double_cannot_hold_raise():
    # the second derivatives at a C2 seam between widths of 1e-307 are about
    # 1e614: the jumps overflow, and the route raises instead of a NaN matrix
    sp = MDSpace.create((0.0, 4e-307), (1e-307, 2e-307, 3e-307), (0, 0, 2, 3), (0, 0, 2))
    with warnings.catch_warnings():     # and no floating-point warning on the way
        warnings.simplefilter("error")
        with pytest.raises(NumericalInconsistencyError, match="overflow"):
            build_matrix_derivative(sp, FLOAT)
    assert np.isfinite(build_matrix_rki(sp, FLOAT).matrix).all()


def test_bundle_shape():
    sp = MDSpace.create((0.0, 4.0), (1.0, 2.0, 3.0), (2, 2, 4, 3), (1, 2, 3))
    bundle = build_matrix_derivative(sp, FLOAT)
    assert bundle.strategy == "derivative"
    assert set(bundle.orders) == {0}
    assert bundle.alpha_count == 5   # one coefficient per raised order: 3 + 2
    assert bundle.matrix.shape == (6, 11)
