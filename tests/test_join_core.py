"""Continuity-raising joins: bidiagonal accessors, C0 gluing, the coefficient
triangle of a single join, and the no-subtraction recurrence.

The full first join of the space (2_1 2_2 4_3 3) on [0, 4] is pinned entry by
entry to hand-checked rationals; the bidiagonal application is compared
against an explicitly assembled dense matrix.
"""

from fractions import Fraction as F
from math import gcd

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import dense_inputs, dense_section_bundle, join_levels, random_space
from mdspline import (EXACT, FLOAT, MDSpace, NumericalInconsistencyError,
                      SpaceValidationError, Trace, assembler, build_matrix, cr_join,
                      join_core, section_bundle)
from mdspline._scalars import dtype_of, eye, zeros
from mdspline.join_core import (OVERLAP_TOL, OrderData, RKICoefficients, apply_bidiagonal,
                                block_diag, c0_join_integrals, join_spaces,
                                ratio_coefficients)
from mdspline.legacy import legacy_join
from mdspline.presets import PRESETS, TABLE7_RANGE, table7


def test_accessor_plain_window():
    co = RKICoefficients(2, 3, (F(1, 3), F(2, 5)), (F(2, 3), F(3, 5)))
    assert [co.alpha(i) for i in range(1, 5)] == [1, F(1, 3), F(2, 5), 0]
    assert [co.beta(i) for i in range(1, 5)] == [0, F(2, 3), F(3, 5), 1]
    assert co.window == (2, 3)
    assert co.nontrivial_count == 2


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


def _ratio(below, pre, post, ib=2, ie=2):
    dtype = object if isinstance(post[0], F) else float
    return ratio_coefficients(ib, ie, below, np.array(pre, dtype=dtype),
                              np.array(post, dtype=dtype))


def test_ratio_coefficients_checks_each_pair():
    # above an empty step on (2, 1), alpha_2 = pre(1) / post(1) and
    # beta_2 = pre(2) / post(1): crafted integrals break each check in turn
    below = RKICoefficients(2, 1, (), ())
    assert _ratio(below, [F(1), F(1)], [F(2)]).alphas == (F(1, 2),)
    for pre, post, match in [([F(1), F(1)], [F(3)], "!= 1 exactly"),        # 1/3 + 1/3
                             ([F(3), F(-1)], [F(2)], "out of range"),       # 3/2 - 1/2
                             ([3.0, -1.0], [2.0], "out of range"),
                             ([1.0, 1.0 + 2e-9], [2.0], "drifts from 1")]:
        with pytest.raises(NumericalInconsistencyError, match=match):
            _ratio(below, pre, post)


def test_ratio_coefficients_need_the_step_below():
    # the step below acts on (ib, ie - 1), and ib >= 2 so that row ib - 1 exists
    pre, post = [F(1)] * 3, [F(3, 2)] * 2
    assert _ratio(RKICoefficients(2, 2, (F(1, 2),), (F(1, 2),)), pre, post, 2, 3).window == (2, 3)
    for below, ib, ie in [(RKICoefficients(2, 3, (F(1, 2),) * 2, (F(1, 2),) * 2), 2, 3),
                          (RKICoefficients(3, 2, (), ()), 2, 3),
                          (RKICoefficients(4, 2, (), ()), 2, 3),    # a drop
                          (RKICoefficients(1, 0, (), ()), 1, 1)]:
        with pytest.raises(NumericalInconsistencyError, match="step below"):
            _ratio(below, pre, post, ib, ie)


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_ratio_coefficients_follow_the_accessors(data):
    # an exact step on (ib, ie - 1) and positive integrals pre from row ib - 1;
    # post is that step applied to pre, so the step above must pass its checks
    # and give what the recurrence, read through the accessors, gives
    ib = data.draw(st.integers(2, 6))
    ie = ib + data.draw(st.integers(0, 5))
    alphas = tuple(F(data.draw(st.integers(1, 20)), 20) for _ in range(ib, ie))
    below = RKICoefficients(ib, ie - 1, alphas, tuple(1 - a for a in alphas))
    pre = {i: F(data.draw(st.integers(1, 50)), data.draw(st.integers(1, 7)))
           for i in range(ib - 1, ie + 1)}
    post = {i: below.alpha(i) * pre[i] + below.beta(i + 1) * pre[i + 1] for i in range(ib - 1, ie)}
    co = _ratio(below, list(pre.values()), list(post.values()), ib, ie)
    assert co.window == (ib, ie)
    assert co.alphas == tuple(below.alpha(i - 1) * pre[i - 1] / post[i - 1]
                              for i in range(ib, ie + 1))
    assert co.betas == tuple(below.beta(i) * pre[i] / post[i - 1] for i in range(ib, ie + 1))


def dense_step(co, m, field):
    """The (m - 1) x m bidiagonal matrix of a step, entry by entry."""
    dense = zeros((m - 1, m), field)
    for i in range(1, m):
        dense[i - 1, i - 1] = co.alpha(i)
        dense[i - 1, i] = co.beta(i + 1)
    return dense


@pytest.mark.parametrize("field", [FLOAT, EXACT])
def test_drop_is_stored_at_its_least_start(field):
    # every ib >= ie + 2 drops row ie + 1; the step stores ib = ie + 2, and the
    # kernel makes what the dense matrix of its accessors makes
    for ie in range(5):
        for ib in range(ie + 2, ie + 6):
            co = RKICoefficients(ib, ie, (), ())
            assert co.window == (ie + 2, ie) and co == RKICoefficients(ie + 2, ie, (), ())
            for m in range(ie + 2, ie + 5):
                mat = np.array([[field(3 * i + j + 1) for j in range(3)] for i in range(m)],
                               dtype=dtype_of(field))
                want = dense_step(co, m, field).dot(mat)
                assert apply_bidiagonal(mat, co).tolist() == want.tolist(), (ib, ie, m)


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_apply_matches_dense_product(data):
    # float and Fraction rows; windows from ib = 1 to merges (ib = ie + 1) and
    # drops (ib >= ie + 2). Sizes and window ends are drawn down from their
    # largest, so most examples combine rows. About half the cells are zero,
    # and some whole rows, as in the banded levels of a build; the other
    # cells are nonzero
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


def order(matrix):
    """An operand order with `matrix` and its row sums as integrals."""
    return OrderData(matrix, None, matrix.sum(axis=1), matrix.sum(axis=1))


def glued(left, right, n=0):
    """The level of join row n right after the C0 gluing of two matrices."""
    lo, ro = order(left), order(right)
    return join_core._join_level(lo, ro, n, join_core._glue(lo, ro, n))


def test_glued_identities_are_the_identity():
    # any row n of the join cuts its seam block from the same gluing
    for n in (0, 1):
        assert np.array_equal(glued(np.eye(2), np.eye(3), n), np.eye(4)), n
    assert join_core._glue(order(np.eye(2)), order(np.eye(3)), 1)[:, -1].tolist() == [1, 2, 1]


@pytest.mark.parametrize("field", [FLOAT, EXACT])
def test_columnless_orders_glue_their_integrals(field):
    # operand orders without a matrix have no seam corners to check: row n
    # glues their integrals to one column over rows a - n .. a + n, and its
    # level has no columns
    lo = OrderData(zeros((4, 0), field), None, None, np.array([field(v) for v in (1, 2, 3, 4)]))
    ro = OrderData(zeros((3, 0), field), None, None, np.array([field(v) for v in (5, 6, 7)]))
    glued = {0: [9], 1: [3, 9, 6], 2: [2, 3, 9, 6, 7]}
    for n, want in glued.items():
        block = join_core._glue(lo, ro, n)
        assert block.shape == (2 * n + 1, 1) and block[:, 0].tolist() == want, n
        assert join_core._join_level(lo, ro, n, block).shape == (6, 0), n


@pytest.mark.parametrize("corner", [0.5, 1 + 3 * OVERLAP_TOL, 1 - 3 * OVERLAP_TOL],
                         ids=["half", "above", "below"])
def test_glue_corner_disagreement(corner):
    # the seam corners of float operands agree to OVERLAP_TOL or the gluing
    # raises, in every row of the join; a drift within it glues
    left = np.eye(2)
    left[1, 1] = corner
    for n in (0, 1):
        with pytest.raises(NumericalInconsistencyError, match="seam entries disagree: "):
            glued(left, np.eye(2), n)
    left[1, 1] = 1 + OVERLAP_TOL / 2
    assert glued(left, np.eye(2))[1, 1] == 1.0


@pytest.mark.parametrize("field", [FLOAT, EXACT])
def test_kernels_keep_the_field_of_their_input(field):
    one, half = eye(3, field), field(1) / 2
    for out in (apply_bidiagonal(one, RKICoefficients(2, 2, (half,), (half,))),
                join_core._glue(order(one), order(one), 1), glued(one, one, 1),
                block_diag(one, one)):
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


def first_join(field, section=section_bundle):
    left = section(MDSpace.create((2.0, 3.0), (), (4,), ()), field)
    right = section(MDSpace.create((3.0, 4.0), (), (3,), ()), field)
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
    # merges the last left row with the first right row; on operands with
    # the identity in every order, its level is their block diagonal
    _, trace = first_join(EXACT, dense_section_bundle)
    glue = {s.n: s for s in trace.steps if s.k == 0}
    assert sorted(glue) == [0, 1, 2, 3]
    assert [glue[n].coefficients.window for n in range(4)] == \
        [(3, 2), (4, 3), (5, 4), (6, 5)]
    assert [glue[n].matrix.shape for n in range(4)] == [(3, 3), (5, 5), (7, 7), (9, 9)]
    assert [len(glue[n].integrals) for n in range(4)] == [3, 5, 7, 9]
    assert all(s.at == 3.0 and s.kind == "join" for s in trace.steps)


def test_first_join_integral_vectors():
    # the integral column each cell carries is its full level times the
    # reference integrals of its row
    levels = join_levels(first_join(EXACT)[1])
    dense, trace = first_join(EXACT, dense_section_bundle)
    for (n, k), (matrix, integrals) in join_levels(trace).items():
        ref = dense.orders[3 - n].integrals0
        assert list(levels[(n, k)][1]) == list(integrals) == list(matrix.dot(ref)), (n, k)

    def iv(n, k):
        return list(levels[(n, k)][1])
    assert iv(1, 1) == [F(1, 3), F(8, 9), F(7, 9)]
    assert iv(2, 1) == [F(1, 4), F(1, 4), F(3, 5), F(17, 30), F(1, 3)]
    assert iv(2, 2) == [F(1, 4), F(5, 8), F(33, 56), F(15, 28)]


def test_first_join_matrices():
    # the full levels of every row: the join run on operands with the
    # identity in every order
    levels = join_levels(first_join(EXACT, dense_section_bundle)[1])
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
    # every step of a continuity-r join gets the 2r + 1 rows around the seam
    # at most, however large the levels it joins. Join rows step through
    # `_step`, on int rows in the exact field; exact lowerings reach it too,
    # through apply_bidiagonal, but never inside a join, so they do not count
    steps, joined, inside = [], [], []
    real_join, real_step = cr_join, join_core._step

    def joining(left, right, r, trace):
        inside.append(r)
        try:
            out = real_join(left, right, r, trace=trace)
        finally:
            inside.pop()
        joined.append(out.matrix.shape[0] - (2 * r + 1))
        return out

    def stepping(rows, co):
        if inside:
            steps.append((inside[-1], len(rows)))
        return real_step(rows, co)

    monkeypatch.setattr(assembler, "cr_join", joining)
    monkeypatch.setattr(join_core, "_step", stepping)
    if field is FLOAT:
        spaces = [f() for f in PRESETS.values()] + [table7(k) for k in TABLE7_RANGE] \
            + [random_space(seed) for seed in range(200)] + [random_space(7, 40, 6)]
    else:
        spaces = [PRESETS[name]() for name in ("cox", "test1", "test3", "table7")]
    for sp in spaces:
        for route in ("rki", "mixed"):
            build_matrix(sp, route, field)
    assert all(n <= 2 * r + 1 for r, n in steps)
    assert len(steps) > (1000 if field is FLOAT else 20)
    assert max(joined) >= (50 if field is FLOAT else 1)


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_int_row_chains_match_dense_products(data):
    # 1-4 consecutive steps on int rows, converted to Fractions once at the
    # end, make what the successive dense products make: windows from ib = 1
    # to merges (ib = ie + 1) and drops (ib >= ie + 2), zero rows, negative
    # cells and one-column blocks. Coefficients and cells on small grids give
    # rows with common factors; each row is left in lowest terms, a zero row
    # over 1
    steps = data.draw(st.integers(1, 4))
    m, cols = steps + 1 + data.draw(st.integers(0, 3)), data.draw(st.integers(1, 4))
    zero_rows = data.draw(st.sets(st.integers(0, m - 1)))
    cell = st.builds(F, st.integers(-12, 12), st.sampled_from((1, 2, 3, 4, 6, 12)))
    mat = np.array([[F(0) if i in zero_rows else data.draw(cell) for _ in range(cols)]
                    for i in range(m)], dtype=object)
    rows, want = join_core._rows(mat), mat
    for _ in range(steps):
        ie = len(want) - 1 - data.draw(st.integers(0, len(want) - 1))
        ib = data.draw(st.integers(1, ie + 3))
        alphas = tuple(F(data.draw(st.integers(1, 12)), 12) for _ in range(ib, ie + 1))
        co = RKICoefficients(ib, ie, alphas, tuple(1 - a for a in alphas))
        rows, want = join_core._step(rows, co), dense_step(co, len(want), EXACT).dot(want)
    got = join_core._dense(rows, cols)
    assert got.shape == want.shape and got.tolist() == want.tolist()
    assert all(type(x) is F for x in got.ravel())
    assert all(d > 0 and gcd(d, *p) == 1 for p, d in rows)


EXACT_BUILD_SPACES = [PRESETS[name]() for name in ("cox", "test1", "test3")] + [table7(5)] \
    + [random_space(seed, 3, 5) for seed in range(20)]


@pytest.mark.parametrize("route", ["rki", "rde", "mixed", "derivative"])
def test_exact_builds_hold_only_fractions_traced_or_not(route):
    # int rows become Fractions where a build keeps them and where a trace
    # records a level: every kept cell is a Fraction, never an int, and the
    # untraced build equals the traced one cell for cell
    for sp in EXACT_BUILD_SPACES:
        trace = Trace()
        bundle, traced = build_matrix(sp, route, EXACT), build_matrix(sp, route, EXACT, trace)
        assert bundle.orders.keys() == traced.orders.keys()
        for rho, od in bundle.orders.items():
            for name in ("matrix", "integrals", "integrals0"):
                got, want = getattr(od, name), getattr(traced.orders[rho], name)
                assert got.shape == want.shape and got.tolist() == want.tolist(), (sp, rho)
                assert all(type(x) is F for x in np.concatenate([got.ravel(), want.ravel()]))
        for s in trace.steps:
            assert all(type(x) is F for x in np.concatenate([s.matrix.ravel(), s.integrals]))


def traced_join_builds(field):
    """(bundle, its join steps grouped by seam and row) of rki and mixed builds."""
    if field is FLOAT:
        spaces = [f() for f in PRESETS.values()] + [table7(k) for k in TABLE7_RANGE] \
            + [random_space(seed) for seed in range(200)]
    else:
        spaces = [PRESETS[name]() for name in ("cox", "test1", "test3", "table7")] \
            + [random_space(seed, 3, 5) for seed in range(20)]
    for sp in spaces:
        for route in ("rki", "mixed"):
            trace = Trace()
            bundle = build_matrix(sp, route, field, trace)
            rows = {}
            for s in trace.steps:
                if s.kind == "join":
                    rows.setdefault((s.at, s.n), []).append(s)
            yield bundle, rows


def same_cells(got, want, field):
    cells = (lambda m: (m.dtype, m.tobytes())) if field is FLOAT else (lambda m: m.tolist())
    return got.shape == want.shape and cells(got) == cells(want)


@pytest.mark.parametrize("field", [FLOAT, EXACT])
def test_join_steps_chain_their_levels(field):
    # each join step k >= 2 acts on the level, and the integral column, that
    # step k - 1 of its seam and row made, bit for bit, and the last step of
    # each row of the final join makes that order's matrix and integrals;
    # step 1 acts on the gluing, which keeps one seam column where step 0
    # sets both operands side by side
    def integrals(s):
        return apply_bidiagonal(s.integrals[:, None], s.coefficients)[:, 0]

    links = 0
    for bundle, rows in traced_join_builds(field):
        for (at, n), steps in rows.items():
            assert [s.k for s in steps] == list(range(n + 1)), (at, n)
            for prev, s in zip(steps[1:], steps[2:]):
                level = apply_bidiagonal(prev.matrix, prev.coefficients)
                assert same_cells(s.matrix, level, field), (at, n, s.k)
                assert same_cells(s.integrals, integrals(prev), field), (at, n, s.k)
                links += 1
        if rows:
            last = list(rows)[-1][0]
            r = max(n for at, n in rows if at == last)
            for n in range(1, r + 1):
                s = rows[(last, n)][-1]
                level = apply_bidiagonal(s.matrix, s.coefficients)
                assert same_cells(level, bundle.orders[r - n].matrix, field), (last, n)
                assert same_cells(integrals(s), bundle.orders[r - n].integrals, field), \
                    (last, n)
    assert links > (7000 if field is FLOAT else 300)


@pytest.mark.parametrize("field", [FLOAT, EXACT])
def test_join_levels_stay_in_their_columns(field):
    # row i of the gluing's level and of the level after every join step is
    # nonzero only in columns i .. i + (columns - rows), the band the gluing
    # cuts its seam blocks to
    checked = 0
    for _, rows in traced_join_builds(field):
        for steps in rows.values():
            for s in steps[1:]:
                for level in (s.matrix, apply_bidiagonal(s.matrix, s.coefficients)):
                    i, j = np.nonzero(level)
                    gap = level.shape[1] - level.shape[0]
                    assert (j >= i).all() and (j <= i + gap).all(), (s.at, s.n, s.k)
                    checked += 1
    assert checked > (20000 if field is FLOAT else 900)
