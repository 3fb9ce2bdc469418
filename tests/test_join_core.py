"""Continuity-raising joins: bidiagonal accessors, C0 gluing, the coefficient
triangle of a single join, and the no-subtraction recurrence.

The full first join of the space (2_1 2_2 4_3 3) on [0, 4] is pinned entry by
entry to hand-checked rationals; the bidiagonal application is compared
against an explicitly assembled dense matrix.
"""

from fractions import Fraction as F

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import join_levels, random_space
from mdspline import (EXACT, FLOAT, MDSpace, NumericalInconsistencyError,
                      SpaceValidationError, Trace, assembler, build_matrix, cr_join,
                      join_core, section_bundle)
from mdspline._scalars import dtype_of, eye, zeros
from mdspline.join_core import (RKICoefficients, apply_bidiagonal, block_diag,
                                c0_join_integrals, c0_join_matrices,
                                join_spaces, make_coefficients)
from mdspline.legacy import legacy_join
from mdspline.presets import PRESETS, TABLE7_RANGE, table7


def test_accessor_plain_window():
    co = RKICoefficients(2, 3, (F(1, 3), F(2, 5)), (F(2, 3), F(3, 5)))
    assert [co.alpha(i) for i in range(1, 5)] == [1, F(1, 3), F(2, 5), 0]
    assert [co.beta(i) for i in range(1, 5)] == [0, F(2, 3), F(3, 5), 1]
    assert co.window == (2, 3)
    assert co.nontrivial_count == 2


def test_range_reader_matches_the_accessors():
    # values(lo, hi) reads by slices what alpha(i) and beta(i) give one index
    # at a time, on every window up to ib = 8, degenerate ones included
    for ib in range(9):
        for ie in range(-1, 8):
            n = max(0, ie - ib + 1)
            co = RKICoefficients(ib, ie, tuple(F(1, i + 2) for i in range(n)),
                                 tuple(F(i + 1, i + 2) for i in range(n)))
            for lo in range(-1, 11):
                for hi in range(lo - 1, 11):
                    alphas, betas = co.values(lo, hi)
                    assert list(alphas) == [co.alpha(i) for i in range(lo, hi + 1)], \
                        (ib, ie, lo, hi)
                    assert list(betas) == [co.beta(i) for i in range(lo, hi + 1)], \
                        (ib, ie, lo, hi)


def test_accessor_merge():
    # empty window with ib = ie + 1 adds rows ie and ie + 1
    co = RKICoefficients(3, 2, (), ())
    out = apply_bidiagonal(np.eye(4), co)
    assert out.shape == (3, 4)
    assert np.array_equal(out, [[1, 0, 0, 0], [0, 1, 1, 0], [0, 0, 0, 1]])


def test_accessor_drop():
    # ib >= ie + 2 deletes row ie + 1
    co = RKICoefficients(4, 2, (), ())
    out = apply_bidiagonal(np.eye(4), co)
    assert np.array_equal(out, [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, 1]])


def test_make_coefficients_validates():
    make_coefficients(2, 2, [F(1, 2)], [F(1, 2)], EXACT)
    with pytest.raises(NumericalInconsistencyError):
        make_coefficients(2, 2, [F(1, 2)], [F(1, 3)], EXACT)
    with pytest.raises(NumericalInconsistencyError):
        make_coefficients(2, 2, [F(3, 2)], [F(-1, 2)], EXACT)
    with pytest.raises(NumericalInconsistencyError):
        make_coefficients(2, 2, [0.5], [0.5 + 1e-9], FLOAT)


def dense_step(co, m, field):
    """The (m - 1) x m bidiagonal matrix of a step, entry by entry."""
    dense = zeros((m - 1, m), field)
    for i in range(1, m):
        dense[i - 1, i - 1] = co.alpha(i)
        dense[i - 1, i] = co.beta(i + 1)
    return dense


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_apply_matches_dense_product(data):
    # float and Fraction rows; windows from ib = 1 to merges (ib = ie + 1) and
    # drops (ib >= ie + 2). Sizes and window ends are drawn down from their
    # largest, so most examples combine rows. About half the cells are zero,
    # and some whole rows, as in the banded levels of a build, where exact
    # cells skip zero products; the other cells are nonzero
    field = data.draw(st.sampled_from([FLOAT, EXACT]))

    def value(lo, hi):      # exact values lie on a grid of twentieths
        if field is EXACT:
            return F(data.draw(st.integers(round(20 * lo), round(20 * hi))), 20)
        return data.draw(st.floats(lo, hi))

    m = 7 - data.draw(st.integers(0, 5))
    cols = 5 - data.draw(st.integers(0, 4))
    ie = m - 1 - data.draw(st.integers(0, m - 1))
    ib = data.draw(st.integers(1, ie + 3))
    alphas = tuple(value(0.05, 1.0) for _ in range(ib, ie + 1))
    co = RKICoefficients(ib, ie, alphas, tuple(1 - a for a in alphas))
    zero_rows = data.draw(st.sets(st.integers(0, m - 1)))
    mat = np.array([[field(0) if i in zero_rows or data.draw(st.booleans())
                     else value(0.05, 2) * data.draw(st.sampled_from((1, -1)))
                     for _ in range(cols)] for i in range(m)], dtype=dtype_of(field))
    got = apply_bidiagonal(mat, co)
    if field is EXACT:
        assert got.dtype == object and np.array_equal(got, dense_step(co, m, field).dot(mat))
        assert all(type(x) is F for x in got.ravel())
    else:
        assert np.allclose(got, dense_step(co, m, field) @ mat, atol=1e-14, rtol=0)


TEXTBOOK_SPACES = [("cox", PRESETS["cox"]()), ("test1", PRESETS["test1"]()),
                   ("table7(5)", table7(5))] + \
    [(f"random({s}, 3, 5)", random_space(s, 3, 5)) for s in (3, 9)]


@pytest.mark.parametrize("route", ["rki", "rde", "mixed"])
@pytest.mark.parametrize("space", [sp for _, sp in TEXTBOOK_SPACES],
                         ids=[name for name, _ in TEXTBOOK_SPACES])
def test_traced_steps_are_the_textbook_product(space, route):
    # every step of an exact build makes the level that its dense bidiagonal
    # matrix times its level makes, and the last step, unless it is a C0
    # gluing (whose level keeps both seam columns), makes the order-0 matrix
    trace = Trace()
    bundle = build_matrix(space, route, EXACT, trace)
    for s in trace.steps:
        level = apply_bidiagonal(s.matrix, s.coefficients)
        want = dense_step(s.coefficients, s.matrix.shape[0], EXACT).dot(s.matrix)
        assert level.tolist() == want.tolist(), (s.kind, s.at, s.n, s.k)
    if trace.steps and trace.steps[-1].k:
        assert level.tolist() == bundle.matrix.tolist()


def test_c0_join_integrals():
    assert list(c0_join_integrals(np.array([1.0, 2.0]), np.array([3.0, 4.0]))) \
        == [1.0, 5.0, 4.0]


def test_c0_join_matrices_identities():
    out = c0_join_matrices(np.eye(2), np.eye(3))
    assert np.array_equal(out, np.eye(4))


def test_c0_join_matrices_corner_disagreement():
    left = np.eye(2)
    left[1, 1] = 0.5
    with pytest.raises(NumericalInconsistencyError):
        c0_join_matrices(left, np.eye(2))


@pytest.mark.parametrize("field", [FLOAT, EXACT])
def test_kernels_keep_the_field_of_their_input(field):
    one, half = eye(3, field), field(1) / 2
    for out in (apply_bidiagonal(one, RKICoefficients(2, 2, (half,), (half,))),
                c0_join_matrices(one, one, 1), block_diag(one, one)):
        assert out.dtype == dtype_of(field)
        assert all(isinstance(v, field) for v in out.ravel())


@pytest.mark.parametrize("field", [FLOAT, EXACT])
def test_eye_is_the_identity_slice_in_both_fields(field):
    # n x cols, ones on the main diagonal only, for fewer, as many and more
    # columns than rows: a sweep's integrals-only levels start as eye(n, 1)
    for n, cols in [(3, 0), (3, 1), (3, 2), (3, None), (3, 3), (3, 5), (0, 2)]:
        out = eye(n, field, cols)
        assert out.dtype == dtype_of(field) and out.shape == np.eye(n, cols).shape, (n, cols)
        assert out.tolist() == np.eye(n, cols).tolist(), (n, cols)
        assert all(isinstance(v, field) for v in out.ravel()), (n, cols)


@pytest.mark.parametrize("join", [cr_join, legacy_join])
def test_joins_take_the_field_of_their_operands(join):
    left = section_bundle(MDSpace.create((0.0, 1.0), (), (2,), ()), FLOAT)
    right = section_bundle(MDSpace.create((1.0, 2.0), (), (3,), ()), EXACT)
    with pytest.raises(ValueError, match="different scalar fields"):
        join(left, right, 1)
    exact = section_bundle(left.space, EXACT)
    assert join(exact, right, 1).field is EXACT
    with pytest.raises(TypeError):
        join(exact, right, 1, EXACT)    # a stale positional field is not taken as the trace


def test_join_spaces_dimensions():
    left = MDSpace.create((2.0, 3.0), (), (4,), ())
    right = MDSpace.create((3.0, 4.0), (), (3,), ())
    for k in range(4):
        sp = join_spaces(left, right, k)
        assert sp.dimension == left.dimension + right.dimension - 1 - k


def test_join_spaces_checks_the_seam():
    left = MDSpace.create((2.0, 3.0), (), (4,), ())
    right = MDSpace.create((3.0, 4.0), (), (3,), ())
    for k in (-1, 4):       # public rule: 0 <= k <= min degree
        with pytest.raises(SpaceValidationError):
            join_spaces(left, right, k)
    # internal rule: d - k >= 0 on both sides; the order-3 derivatives have
    # degrees 1 and 0
    dl, dr = left.derivative_space(3), right.derivative_space(3)
    assert join_spaces(dl, dr, -1).internal
    assert join_spaces(dl, dr, 0).dimension == dl.dimension + dr.dimension - 1
    with pytest.raises(SpaceValidationError):
        join_spaces(dl, dr, 1)
    with pytest.raises(ValueError):
        join_spaces(right, left, 0)


def rki_window(space11: MDSpace, xj: float) -> int:
    """The first nontrivial index of a join as the extended partitions give it:
    on the order r-1 continuity-1 join space, the count of left extended
    partition entries <= xj, minus the degree right of xj, plus one."""
    s, _ = space11.extended_partitions()
    ell = sum(1 for v in s if v <= xj)
    return ell - space11.degrees[space11.find_interval(xj)] + 1


@pytest.mark.parametrize("field", [FLOAT, EXACT])
def test_join_window_start_is_the_extended_partition_count(monkeypatch, field):
    # cr_join starts cell (r, r) at kl - r + 1; the window start is an integer
    # count, so the float builds cover every space and the exact builds the
    # presets whose exact rki build takes under a second
    if field is FLOAT:
        spaces = [f() for f in PRESETS.values()] + [table7(k) for k in TABLE7_RANGE] \
            + [random_space(seed) for seed in range(200)]
    else:
        spaces = [PRESETS[name]() for name in ("cox", "test1", "test2", "test3", "table7")]
    starts = []

    def recording(left, right, r, trace):
        own = Trace()
        out = cr_join(left, right, r, trace=own)
        if r > 0:
            cell = next(s for s in own.steps if (s.n, s.k) == (r, r))
            space11 = join_spaces(left.space.derivative_space(r - 1),
                                  right.space.derivative_space(r - 1), 1)
            starts.append((cell.coefficients.ib, rki_window(space11, left.space.b)))
        return out

    monkeypatch.setattr(assembler, "cr_join", recording)
    for sp in spaces:
        build_matrix(sp, "rki", field)
    assert len(starts) == (615 if field is FLOAT else 9)
    assert all(got == want for got, want in starts)


def test_no_space_per_join(monkeypatch):
    # an rki build derives every joined space from its operands, and each
    # section integrates only the orders its seams read: 0..max(need, 1),
    # so a seamless space integrates orders 0 and 1
    made, integrated = [], []
    create, c0_integrals = MDSpace.create, join_core.c0_integrals

    def counting_create(*args, **kwargs):
        made.append(args)
        return create(*args, **kwargs)

    def counting_integrals(sp, field):
        integrated.append((sp.a, sp.b))
        return c0_integrals(sp, field)

    spaces = [f() for f in PRESETS.values()] + [table7(k) for k in TABLE7_RANGE]
    monkeypatch.setattr(MDSpace, "create", staticmethod(counting_create))
    monkeypatch.setattr(join_core, "c0_integrals", counting_integrals)
    for sp in spaces:
        made.clear()
        integrated.clear()
        build_matrix(sp, "rki", FLOAT)
        assert made == [], sp
        dec = sp.section_decomposition()
        want = []
        for i, section in enumerate(dec.sections):
            need = [dec.joins[j].continuity for j in (i - 1, i) if 0 <= j < len(dec.joins)]
            want += [(section.a, section.b)] * (max(need, default=1) + 1)
        assert sorted(integrated) == sorted(want), sp


def first_join(field):
    left = section_bundle(MDSpace.create((2.0, 3.0), (), (4,), ()), field)
    right = section_bundle(MDSpace.create((3.0, 4.0), (), (3,), ()), field)
    trace = Trace()
    return cr_join(left, right, 3, trace=trace), trace


def test_first_join_cell_fractions():
    _, trace = first_join(EXACT)
    got = {(s.n, s.k): (s.coefficients.window, s.coefficients.alphas)
           for s in trace.steps}
    assert got[(1, 1)] == ((3, 3), (F(1, 3),))
    assert got[(2, 1)] == ((4, 4), (F(2, 5),))
    assert got[(2, 2)] == ((3, 4), (F(3, 8), F(5, 14)))
    assert got[(3, 1)] == ((5, 5), (F(3, 7),))
    assert got[(3, 2)] == ((4, 5), (F(5, 12), F(7, 17)))
    assert got[(3, 3)] == ((3, 5), (F(2, 5), F(21, 55), F(17, 45)))


def test_first_join_gluing_steps():
    # k = 0 of row n sets the order 3 - n operand blocks side by side and
    # merges the last left row with the first right row
    _, trace = first_join(EXACT)
    glue = {s.n: s for s in trace.steps if s.k == 0}
    assert sorted(glue) == [0, 1, 2, 3]
    assert [glue[n].coefficients.window for n in range(4)] == \
        [(3, 2), (4, 3), (5, 4), (6, 5)]
    assert [glue[n].matrix.shape for n in range(4)] == [(3, 3), (5, 5), (7, 7), (9, 9)]
    assert all(s.at == 3.0 and s.kind == "join" for s in trace.steps)


def test_first_join_integral_vectors():
    levels = join_levels(first_join(EXACT)[1])

    def iv(n, k):
        matrix, integrals0 = levels[(n, k)]
        return list(matrix.dot(integrals0))
    assert iv(1, 1) == [F(1, 3), F(8, 9), F(7, 9)]
    assert iv(2, 1) == [F(1, 4), F(1, 4), F(3, 5), F(17, 30), F(1, 3)]
    assert iv(2, 2) == [F(1, 4), F(5, 8), F(33, 56), F(15, 28)]


def test_first_join_matrices():
    levels = join_levels(first_join(EXACT)[1])
    m11 = [[1, 0, 0, 0], [0, 1, F(2, 3), 0], [0, 0, F(1, 3), 1]]
    assert levels[(1, 1)][0].tolist() == m11
    m22 = [[1, 0, 0, 0, 0, 0],
           [0, 1, F(5, 8), F(3, 8), 0, 0],
           [0, 0, F(3, 8), F(27, 56), F(9, 14), 0],
           [0, 0, 0, F(1, 7), F(5, 14), 1]]
    assert levels[(2, 2)][0].tolist() == m22
    m33 = [[1, 0, 0, 0, 0, 0, 0, 0],
           [0, 1, F(3, 5), F(7, 20), F(1, 5), 0, 0, 0],
           [0, 0, F(2, 5), F(27, 55), F(24, 55), F(4, 11), 0, 0],
           [0, 0, 0, F(7, 44), F(49, 165), F(238, 495), F(28, 45), 0],
           [0, 0, 0, 0, F(1, 15), F(7, 45), F(17, 45), 1]]
    assert levels[(3, 3)][0].tolist() == m33


def test_first_join_float_matches_exact():
    exact, _ = first_join(EXACT)
    dbl, _ = first_join(FLOAT)
    diff = np.abs(dbl.matrix - np.array(exact.matrix, dtype=float))
    assert diff.max() <= 1e-15


def test_join_emits_decreasing_orders():
    bundle, _ = first_join(EXACT)
    assert set(bundle.orders) == {0, 1, 2, 3}
    base = bundle.space.dimension
    for rho, od in bundle.orders.items():
        assert od.matrix.shape[0] == base - rho


def test_zero_continuity_join_keeps_two_orders():
    left = section_bundle(MDSpace.create((0.0, 1.0), (), (2,), ()), EXACT)
    right = section_bundle(MDSpace.create((1.0, 2.0), (), (3,), ()), EXACT)
    bundle = cr_join(left, right, 0)
    assert set(bundle.orders) >= {0, 1}
    assert bundle.alpha_count == 0
    assert np.array_equal(bundle.matrix, np.array(np.eye(6), dtype=object))


def test_alpha_count_formula():
    for r in range(1, 7):
        d = r + 1
        left = section_bundle(MDSpace.create((0.0, 1.0), (), (d,), ()), FLOAT)
        right = section_bundle(MDSpace.create((1.0, 2.0), (), (d,), ()), FLOAT)
        bundle = cr_join(left, right, r)
        assert bundle.alpha_count == r * (r + 1) * (r + 2) // 6


def test_pair_sums_exact():
    _, trace = first_join(EXACT)
    for step in trace.steps:
        co = step.coefficients
        assert all(a + b == 1 for a, b in zip(co.alphas, co.betas))
        assert all(0 < a <= 1 for a in co.alphas)


@pytest.mark.parametrize("field", [FLOAT, EXACT])
def test_join_steps_combine_only_the_seam_block(monkeypatch, field):
    # every bidiagonal step of a continuity-r join gets the 2r + 1 rows around
    # the seam at most, however large the levels it joins
    rows, joined = [], []
    real_join, real_apply = cr_join, apply_bidiagonal

    def joining(left, right, r, trace):
        rows.append((r, []))
        out = real_join(left, right, r, trace=trace)
        joined.append(out.matrix.shape[0] - (2 * r + 1))
        return out

    def applying(matrix, co):
        rows[-1][1].append(matrix.shape[0])
        return real_apply(matrix, co)

    monkeypatch.setattr(assembler, "cr_join", joining)
    monkeypatch.setattr(join_core, "apply_bidiagonal", applying)
    if field is FLOAT:
        spaces = [f() for f in PRESETS.values()] + [table7(k) for k in TABLE7_RANGE] \
            + [random_space(seed) for seed in range(200)] + [random_space(7, 40, 6)]
    else:
        spaces = [PRESETS[name]() for name in ("cox", "test1", "test3", "table7")]
    for sp in spaces:
        for route in ("rki", "mixed"):
            build_matrix(sp, route, field)
    assert all(n <= 2 * r + 1 for r, ns in rows for n in ns)
    assert sum(len(ns) for _, ns in rows) > (1000 if field is FLOAT else 20)
    assert max(joined) >= (50 if field is FLOAT else 1)
