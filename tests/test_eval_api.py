"""Evaluation, abscissae and knot insertion against frozen benchmark values.

The three value tables are frozen from the exact rational replay (16 digits);
abscissae of conventional spaces are checked against the classical knot
averages computed here.
"""

from fractions import Fraction as F

import numpy as np
import pytest

from conftest import random_space
from mdspline import (EXACT, FLOAT, MDSpace, NumericalInconsistencyError,
                      SpaceValidationError, UnsupportedSpaceError, build_matrix_rki,
                      eval_basis, eval_spline, greville, insert_knot_coeffs)
from mdspline._scalars import dtype_of
from mdspline.assembler import DERIVATIVE, MIXED, RDE, RKI, build_matrix
from mdspline.c0_engine import eval_c0_basis
from mdspline.eval_api import insertion_weights
from mdspline.join_core import Bundle, OrderData
from mdspline.presets import PRESETS, TABLE7_RANGE, preset_space, table7

# highlighted function values at the interior breakpoints, N_5 of test1
TEST1_VALUES = {
    -9999.0: 4.500275008083014e-09,
    0.0: 5.000083333610773e-01,
    9999.0: 4.500275008083015e-09,
}
# N_4 of test2
TEST2_VALUES = {
    -9999.0: 2.499250262410031e-12,
    0.0: 3.750749868799358e-01,
    9999.0: 2.499250262410030e-12,
}
# N_9 of test3
TEST3_VALUES = {
    2.0: 2.912087112938504e-13,
    4.0: 1.275774160308294e-09,
    8.0: 4.806036147184862e-07,
    16.0: 5.258129295850228e-05,
    32.0: 2.147713272383253e-03,
    64.0: 3.541058939374863e-02,
    128.0: 2.206016671195212e-01,
    256.0: 3.592347216925473e-01,
    512.0: 4.466585515804859e-02,
}


@pytest.mark.parametrize("name,fn,table", [
    ("test1", 5, TEST1_VALUES),
    ("test2", 4, TEST2_VALUES),
    ("test3", 9, TEST3_VALUES),
])
def test_benchmark_values(name, fn, table):
    bundle = build_matrix_rki(preset_space(name), FLOAT)
    for x, want in table.items():
        got = eval_basis(bundle, x).scatter()[fn - 1]
        assert got == pytest.approx(want, rel=5e-14)


def test_eval_window_size_in_interval_interiors():
    sp = MDSpace.create((0.0, 4.0), (1.0, 2.0, 3.0), (2, 2, 4, 3), (1, 2, 3))
    bundle = build_matrix_rki(sp, FLOAT)
    for j, x in enumerate((0.5, 1.5, 2.5, 3.5)):
        v = eval_basis(bundle, x)
        nz = [val for val in v.scatter() if val != 0.0]
        assert len(nz) == sp.degrees[j] + 1
        assert sum(nz) == pytest.approx(1.0, abs=1e-14)


def test_eval_spline_constant_and_linear():
    sp = MDSpace.create((0.0, 3.0), (1.0, 2.0), (4, 2, 3), (2, 1))
    bundle = build_matrix_rki(sp, FLOAT)
    ones = np.ones(sp.dimension)
    xi = greville(bundle)
    for x in np.linspace(0.0, 3.0, 13):
        assert eval_spline(bundle, ones, x) == pytest.approx(1.0, abs=1e-14)
        assert eval_spline(bundle, xi, x) == pytest.approx(x, abs=1e-13)


def test_exact_spline_lifts_float_coefficients():
    # float coefficients enter the exact field before they meet exact values
    bundle = build_matrix(preset_space("test1"), RKI, EXACT)
    value = eval_spline(bundle, [1.0] * 9, F(1, 3))
    assert value == 1 and isinstance(value, F)


def test_eval_spline_checks_the_coefficient_count():
    bundle = build_matrix_rki(preset_space("test1"), FLOAT)
    with pytest.raises(ValueError, match="expected 9 coefficients"):
        eval_spline(bundle, [1.0] * 8, 0.5)


def test_greville_bernstein():
    cub = build_matrix_rki(MDSpace.create((0.0, 1.0), (), (3,), ()), EXACT)
    assert list(greville(cub)) == [0, F(1, 3), F(2, 3), 1]


def test_greville_matches_knot_averages():
    # conventional spaces: mean of d consecutive knots of the full vector
    for degs, ks in [((3, 3, 3), (2, 1)), ((2, 2), (2,)), ((4, 4, 4), (3, 4))]:
        q = len(ks)
        bps = tuple(float(i) for i in range(1, q + 1))
        sp = MDSpace.create((0.0, float(q + 1)), bps, degs, ks)
        d = degs[0]
        s, _ = sp.extended_partitions()
        knots = [F(v) for v in s] + [F(sp.b)] * (d + 1)
        want = [sum(knots[i + 1:i + d + 1]) / d for i in range(sp.dimension)]
        got = greville(build_matrix_rki(sp, EXACT))
        assert list(got) == want


def test_greville_endpoints_exact():
    for name in ("cox", "test1", "test4"):
        sp = preset_space(name)
        xi = greville(build_matrix_rki(sp, FLOAT))
        assert xi[0] == sp.a and xi[-1] == sp.b
        assert np.all(np.diff(xi) > 0)


def test_greville_needs_degree_one():
    sp = MDSpace.create((0.0, 2.0), (1.0,), (0, 0), (0,))
    with pytest.raises(UnsupportedSpaceError):
        greville(build_matrix_rki(sp, FLOAT))


def insertion_pair():
    sp = MDSpace.create((0.0, 3.0), (1.0, 2.0), (3, 2, 3), (2, 1))
    hat = MDSpace.create((0.0, 3.0), (1.0, 2.0), (3, 2, 3), (1, 1))
    return sp, hat


def test_insert_knot_round_trip():
    sp, hat = insertion_pair()
    b = build_matrix_rki(sp, FLOAT)
    bh = build_matrix_rki(hat, FLOAT)
    rng = np.random.default_rng(7)
    coeffs = rng.uniform(-1, 1, sp.dimension)
    refined, ch = insert_knot_coeffs(sp, coeffs, 1, FLOAT)
    assert refined == hat
    for x in np.linspace(0.0, 3.0, 31):
        assert eval_spline(bh, ch, x) == pytest.approx(
            eval_spline(b, coeffs, x), abs=1e-13)


def test_insert_knot_preserves_abscissae():
    sp, hat = insertion_pair()
    xi = greville(build_matrix_rki(sp, EXACT))
    xi_hat = greville(build_matrix_rki(hat, EXACT))
    _, got = insert_knot_coeffs(sp, xi, 1, EXACT)
    assert list(got) == list(xi_hat)


def test_insertion_applies_the_checked_weights():
    # the weights oracle.boehm_crosscheck compares with the classical ones are
    # those insert_knot_coeffs applies: a unit coefficient at i gives alpha_i
    sp, hat = insertion_pair()
    refined, ib, alphas = insertion_weights(sp, 1, EXACT)
    assert refined == hat
    assert (ib, len(alphas)) == (3, 2) and all(0 < a < 1 for a in alphas)
    for i, alpha in enumerate(alphas, ib):
        unit = np.array([F(int(n == i)) for n in range(1, sp.dimension + 1)], dtype=object)
        assert insert_knot_coeffs(sp, unit, 1, EXACT)[1][i - 1] == alpha


def test_insertion_derives_the_refined_space():
    # the continuity at the index drops by one, on the space's own interval
    sp = MDSpace.create((0.5, 4.0), (1.0, 2.0, 3.0), (3, 2, 3, 3), (2, 1, 2))
    for index, lowered in ((1, (1, 1, 2)), (2, (2, 0, 2)), (3, (2, 1, 1))):
        refined, _, _ = insertion_weights(sp, index, FLOAT)
        assert refined == MDSpace.create((0.5, 4.0), (1.0, 2.0, 3.0), (3, 2, 3, 3), lowered)
    # a continuity-0 breakpoint has no refinement
    c0 = MDSpace.create((0.0, 2.0), (1.0,), (2, 2), (0,))
    with pytest.raises(SpaceValidationError, match="continuity -1"):
        insertion_weights(c0, 1, FLOAT)


def test_exact_insertion_lifts_float_coefficients():
    sp, _ = insertion_pair()
    _, got = insert_knot_coeffs(sp, [0.5] * sp.dimension, 1, EXACT)
    assert got.dtype == object and all(isinstance(v, F) and v == F(1, 2) for v in got)


def test_insert_knot_validates_relationship():
    # the refined space is derived, so only the coefficient count can mismatch
    sp, _ = insertion_pair()
    with pytest.raises(ValueError, match="expected 6 coefficients"):
        insert_knot_coeffs(sp, np.zeros(sp.dimension + 1), 1, FLOAT)


def test_insert_knot_index_outside_the_breakpoints():
    sp, _ = insertion_pair()
    for index in (0, -1, sp.q + 1):
        with pytest.raises(ValueError, match="outside 1..2"):
            insert_knot_coeffs(sp, np.zeros(sp.dimension), index, FLOAT)


def test_eval_outside_domain_raises():
    sp = MDSpace.create((0.0, 1.0), (), (2,), ())
    bundle = build_matrix_rki(sp, FLOAT)
    with pytest.raises(ValueError):
        eval_basis(bundle, 1.5)


def test_eval_exact_field_on_float_bundle():
    sp = MDSpace.create((0.0, 2.0), (1.0,), (2, 2), (1,))
    bundle = build_matrix_rki(sp, EXACT)
    v = eval_basis(bundle, F(1, 2))
    assert sum(v.values) == 1


def test_exact_bundle_at_a_float_point_stays_exact():
    # Fraction(0.5) is exact, so a float point gives the exact basis at it
    bundle = build_matrix(preset_space("test1"), RKI, EXACT)
    at_float, at_fraction = eval_basis(bundle, 0.5), eval_basis(bundle, F(0.5))
    assert all(type(v) is F for v in at_float.values)
    assert at_float.first == at_fraction.first
    assert list(at_float.values) == list(at_fraction.values)


def test_eval_rejects_a_field_other_than_the_bundles():
    sp = MDSpace.create((0.0, 2.0), (1.0,), (2, 2), (1,))
    for field, other in ((FLOAT, EXACT), (EXACT, FLOAT)):
        bundle = build_matrix_rki(sp, field)
        assert eval_basis(bundle, 0.5, field).values.dtype == dtype_of(field)
        with pytest.raises(ValueError, match="field"):
            eval_basis(bundle, 0.5, other)


def test_eval_rejects_a_split_row_band():
    # rows 1 and 3 meet the hats on [0, 1], row 2 lies on [1, 2] only
    ref = MDSpace.create((0.0, 2.0), (1.0,), (1, 1), (0,))
    matrix = np.array([[1.0, 0.0, 0.0], [0.0, 0.0, 1.0], [0.0, 1.0, 0.0]])
    in0 = np.array([0.5, 1.0, 0.5])
    bundle = Bundle(ref, {0: OrderData(matrix, ref, in0, matrix.dot(in0))})
    with pytest.raises(NumericalInconsistencyError):
        eval_basis(bundle, 0.5)
    matrix = np.eye(3) * [[1], [0], [1]]
    zero_row = Bundle(ref, {0: OrderData(matrix, ref, in0, matrix.dot(in0))})
    with pytest.raises(NumericalInconsistencyError):
        eval_basis(zero_row, 0.5)


def full_scan_window(bundle, x, field):
    """The window of eval_basis by the full row scan: every row whose nonzero
    columns meet the reference window, which must be one run of rows, times
    the reference values."""
    ref = eval_c0_basis(bundle.ref, x, field)
    c0, c1 = ref.first - 1, ref.last - 1
    nz = bundle.matrix != 0
    lo = nz.argmax(axis=1)
    hi = nz.shape[1] - 1 - nz[:, ::-1].argmax(axis=1)
    rows = np.flatnonzero((lo <= c1) & (hi >= c0))
    assert rows.tolist() == list(range(rows[0], rows[-1] + 1))
    return rows[0] + 1, bundle.matrix[rows, c0:c1 + 1].dot(ref.values)


def row_selection_cases():
    rng = np.random.default_rng(14)
    spaces = ([f() for f in PRESETS.values()] + [table7(k) for k in TABLE7_RANGE]
              + [random_space(s) for s in range(200)])
    for sp in spaces:
        points = [*sp.xs, *rng.uniform(sp.a, sp.b, 3)]
        for route in (RKI, RDE, MIXED, DERIVATIVE):
            yield build_matrix(sp, route), points, FLOAT
    for name in ("test1", "test3", "table7"):
        sp = PRESETS[name]()
        mids = [(F(u) + F(v)) / 2 for u, v in zip(sp.xs, sp.xs[1:])]
        for route in (RKI, RDE):
            yield build_matrix(sp, route, EXACT), [F(v) for v in sp.xs] + mids, EXACT


def test_row_selection_is_the_full_scan():
    # the two bisections of the stored band pick the same rows as a scan of
    # all K rows, so values and spline sums are equal bit for bit
    for bundle, points, field in row_selection_cases():
        coeffs = np.linspace(-1, 1, bundle.space.dimension).astype(dtype_of(field))
        if field is EXACT:
            coeffs = np.array([F(int(c * 64), 64) for c in coeffs], dtype=object)
        for x in points:
            first, vals = full_scan_window(bundle, x, field)
            got = eval_basis(bundle, x)
            assert (got.first, got.size) == (first, bundle.space.dimension)
            assert got.values.dtype == vals.dtype and got.values.tolist() == vals.tolist()
            assert eval_spline(bundle, coeffs, x) == \
                coeffs[first - 1:first - 1 + len(vals)].dot(vals)
