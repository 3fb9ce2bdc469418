"""The rational replay and its three independent coefficient crosschecks."""

from dataclasses import replace
from fractions import Fraction as F

import numpy as np
import pytest

from mdspline import (EXACT, FLOAT, MDSpace, NumericalInconsistencyError, build_matrix,
                      build_matrix_rde, build_matrix_rki, legacy, oracle)
from mdspline.assembler import RKI
from mdspline.join_core import Trace
from mdspline.oracle import (boehm_crosscheck, derivative_formula_crosscheck,
                             eval_exact, exact_bundle, fraction_matrix_strings,
                             greville_crosscheck, matrix_error, value_error)


def worked_space():
    return MDSpace.create((0.0, 4.0), (1.0, 2.0, 3.0), (2, 2, 4, 3), (1, 2, 3))


def test_exact_bundle_field():
    bundle = exact_bundle(worked_space())
    assert bundle.matrix.dtype == object
    assert all(isinstance(v, F) for v in bundle.matrix.ravel())


def test_matrix_error_basics():
    eye = np.array(np.eye(3), dtype=object)
    for i in range(3):
        for j in range(3):
            eye[i, j] = F(int(eye[i, j]))
    assert matrix_error(np.eye(3), eye) == 0.0
    off = np.eye(3)
    off[0, 0] = 1.0 + 2 ** -50
    off[1, 0] = 2 ** -50
    assert matrix_error(off, eye) == 2 ** -49
    with pytest.raises(ValueError):
        matrix_error(np.eye(2), eye)


def dense_matrix_error(computed, exact):
    return float(max(sum(abs(F(c) - e) for c, e in zip(ccol, ecol))
                     for ccol, ecol in zip(computed.T, exact.T)))


def test_matrix_error_is_the_dense_formula():
    # skipping the cells zero in both matrices changes no error, whether the
    # perturbation hits a nonzero cell, a zero cell or a cell made zero
    rng = np.random.default_rng(7)
    for builder, sp in [(build_matrix_rki, worked_space()),
                        (build_matrix_rde, worked_space()),
                        (build_matrix_rki, MDSpace.create((0.0, 3.0), (1.0, 2.0),
                                                          (4, 2, 3), (2, 1)))]:
        exact = builder(sp, EXACT).matrix
        computed = builder(sp, FLOAT).matrix
        assert matrix_error(computed, exact) == dense_matrix_error(computed, exact)
        for _ in range(20):
            bad = computed.copy()
            cells = rng.integers(0, bad.shape, size=(3, 2))
            bad[cells[:, 0], cells[:, 1]] += rng.normal(size=3) * 2.0 ** -rng.integers(1, 52)
            bad[tuple(rng.integers(0, bad.shape))] = 0.0
            assert matrix_error(bad, exact) == dense_matrix_error(bad, exact) > 0
    with pytest.raises(ValueError):
        matrix_error(np.array([[1.0, np.nan]]), np.array([[F(1), F(0)]], dtype=object))


def test_value_error():
    assert value_error(0.5, F(1, 2)) == (0.0, 0.0)
    ab, rel = value_error(0.5 + 2 ** -53, F(1, 2))
    assert ab == 2 ** -53 and rel == 2 ** -52
    ab, rel = value_error(1e-20, F(0))
    assert ab == rel == 1e-20


def test_eval_exact_partition_of_unity():
    bundle = exact_bundle(worked_space())
    for x in (F(1, 3), F(3, 2), F(5, 2), F(7, 2), F(4)):
        assert sum(eval_exact(bundle, x)) == 1


def test_abscissa_formula_all_cells():
    # one check per coefficient: 10 in the first join, 4 in the second
    assert greville_crosscheck(worked_space()) == 14


def test_derivative_formula_all_bottom_cells():
    assert derivative_formula_crosscheck(worked_space()) == 9


def test_boehm_weights_conventional():
    sp = MDSpace.create((0.0, 2.0), (1.0,), (2, 2), (1,))
    assert boehm_crosscheck(sp, 1) == 1
    sp = MDSpace.create((0.0, 3.0), (1.0, 2.0), (3, 3, 3), (2, 2))
    assert boehm_crosscheck(sp, 1) == 2
    assert boehm_crosscheck(sp, 2) == 2
    with pytest.raises(ValueError):
        boehm_crosscheck(worked_space(), 1)


def test_abscissa_crosscheck_catches_a_changed_alpha():
    trace = Trace()
    build_matrix(worked_space(), RKI, EXACT, trace)
    i, step = next((i, st) for i, st in enumerate(trace.steps)
                   if st.kind == "join" and st.k > 0 and st.coefficients.alphas)
    co = step.coefficients
    alphas = (co.alphas[0] + F(1, 10 ** 9),) + co.alphas[1:]
    trace.steps[i] = replace(step, coefficients=replace(co, alphas=alphas))
    with pytest.raises(NumericalInconsistencyError, match="alpha_"):
        oracle.abscissa_crosscheck(trace)


def test_derivative_crosscheck_catches_a_different_matrix(monkeypatch):
    real = legacy.alpha_via_derivatives

    def perturbed(*args):
        co = real(*args)
        return replace(co, alphas=(co.alphas[0] + F(1, 10 ** 9),) + co.alphas[1:])
    monkeypatch.setattr(legacy, "alpha_via_derivatives", perturbed)
    with pytest.raises(NumericalInconsistencyError, match="final matrix"):
        derivative_formula_crosscheck(worked_space())


def test_derivative_crosscheck_catches_a_different_coefficient(monkeypatch):
    # the stable route's matrix stays right, one recorded coefficient does not
    real = oracle.build_matrix

    def perturbed(space, route, field, trace):
        bundle = real(space, route, field, trace)
        for i, step in enumerate(trace.steps):
            co = step.coefficients
            if route == RKI and co.alphas:
                alphas = (co.alphas[0] + F(1, 10 ** 9),) + co.alphas[1:]
                trace.steps[i] = replace(step, coefficients=replace(co, alphas=alphas))
        return bundle
    monkeypatch.setattr(oracle, "build_matrix", perturbed)
    with pytest.raises(NumericalInconsistencyError, match="routes disagree at seam"):
        derivative_formula_crosscheck(worked_space())


def test_boehm_crosscheck_catches_a_changed_weight(monkeypatch):
    real = oracle.insertion_weights

    def perturbed(*args):
        refined, ib, weights = real(*args)
        return refined, ib, [weights[0] + F(1, 10 ** 9)] + weights[1:]
    monkeypatch.setattr(oracle, "insertion_weights", perturbed)
    sp = MDSpace.create((0.0, 3.0), (1.0, 2.0), (3, 3, 3), (2, 2))
    with pytest.raises(NumericalInconsistencyError, match="weight"):
        boehm_crosscheck(sp, 1)


def test_fraction_strings():
    bundle = exact_bundle(MDSpace.create((2.0, 4.0), (3.0,), (2, 1), (1,)))
    rows = fraction_matrix_strings(bundle.matrix)
    assert rows[1][2] == "2/3" and rows[2][2] == "1/3"
    assert all(F(s) == v for row, erow in zip(rows, bundle.matrix)
               for s, v in zip(row, erow))


def test_float_error_small_on_worked_space():
    exact = exact_bundle(worked_space())
    dbl = build_matrix_rki(worked_space(), FLOAT)
    assert matrix_error(dbl.matrix, exact.matrix) < 1e-15


@pytest.mark.parametrize("route", ["rki", "rde", "mixed", "derivative"])
def test_beta_rounded_to_one_still_builds(route):
    # widths 1 and 1e16: an alpha of 6.7e-17 leaves beta = 1 - alpha, which
    # rounds to 1.0 in floats; the step is valid and builds on every route
    space = MDSpace.create((0.0, 1e16 + 1), (1.0,), (3, 2), (1,))
    exact = build_matrix(space, route, EXACT)
    assert matrix_error(build_matrix(space, route, FLOAT).matrix, exact.matrix) < 1e-15


@pytest.mark.parametrize("route", ["rki", "mixed"])
def test_alpha_underflowing_to_zero_raises(route):
    # widths 1e-300 and 1e300: the alpha of the join is below the smallest
    # double, so the float step cannot be formed and the build says so
    space = MDSpace.create((0.0, 1e300), (1e-300,), (3, 2), (1,))
    with pytest.raises(NumericalInconsistencyError, match="out of range: 0.0, 1.0"):
        build_matrix(space, route, FLOAT)
