"""Degree lowering: schedule, step windows, depth and the cost model.

The space (4_2 2_1 3) on [0, 3] exercises a three-step lowering whose window
positions at every level are checked by hand.
"""

from fractions import Fraction as F

import numpy as np
import pytest

from conftest import DEGREE_ZERO_SAMPLE, random_space, unit_space, without_degree_one
from mdspline import EXACT, FLOAT, MDSpace, Trace, rde_core, section_bundle
from mdspline._scalars import eye
from mdspline.assembler import auto_plan, rde_cost
from mdspline.c0_engine import c0_integrals
from mdspline.errors import NumericalInconsistencyError
from mdspline.join_core import LazyIntegrals, RKICoefficients, apply_bidiagonal
from mdspline.presets import PRESETS, TABLE7_RANGE, table7
from mdspline.rde_core import (level_space, lowering_depth, rde_build, rde_schedule,
                               window_start)


def stepped():
    return MDSpace.create((0.0, 3.0), (1.0, 2.0), (4, 2, 3), (2, 1))


def test_schedule():
    assert rde_schedule(stepped()) == [(1, 3), (1, 2), (2, 3)]
    uni = MDSpace.create((0.0, 2.0), (1.0,), (3, 3), (2,))
    assert rde_schedule(uni) == []
    two = MDSpace.create((0.0, 2.0), (1.0,), (19, 20), (5,))
    assert rde_schedule(two) == [(0, 19)]


def test_level_space_uniform_drop():
    lv = level_space(stepped(), (4, 3, 3), 2)
    assert lv.internal
    assert lv.degrees == (2, 1, 1)
    assert lv.continuities == (0, -1)


def test_step_windows_by_hand():
    sp = stepped()
    trace = Trace()
    bundle = rde_build(sp, EXACT, trace=trace)
    assert set(bundle.orders) == {0, 1} and lowering_depth(sp) == 3    # rows 0..3
    assert [(s.at, s.n) for s in trace.steps if s.k == 2] == \
        [((1, 3), 1), ((1, 2), 2), ((2, 3), 3)]
    windows = {(s.n, s.k): s.coefficients.window for s in trace.steps}
    assert windows[(1, 2)] == (4, 5)
    assert windows[(1, 3)] == (4, 6)
    assert windows[(2, 2)] == (4, 4)
    assert windows[(2, 3)] == (4, 5)
    assert windows[(3, 2)] == (5, 6)
    assert windows[(3, 3)] == (5, 7)


def test_highest_derivative_windows_by_hand():
    # the order-r row (orders lowered by 2) of the same three steps, computed
    # directly: it ends its window at start + h - 2 - 1
    ks = stepped().continuities
    assert window_start((4, 3, 3), ks, 1) == 4          # window (4, 4)
    start = window_start((4, 2, 3), ks, 1)
    assert start == 4 and start + 2 - 2 - 1 < start     # empty window
    assert window_start((4, 2, 3), ks, 2) == 5          # window (5, 5)


def test_ratio_mode_defaults():
    trace = Trace()
    bundle = rde_build(stepped(), EXACT, trace=trace)
    assert set(bundle.orders) == {0, 1}     # r = max degree - 1 = 3 rows above row 0
    assert {s.k for s in trace.steps} == {1, 2, 3}
    # row 1 is order 2, which the build does not emit: it holds integrals only
    assert {s.matrix.shape[1] for s in trace.steps if s.k == 1} == {0}
    assert set(rde_build(stepped(), EXACT, 2).orders) == {0, 1, 2}
    assert bundle.orders[0].ref.degrees == (4, 4, 4)
    assert bundle.orders[0].ref.continuities == stepped().continuities
    assert bundle.matrix.shape == (7, 10)


def test_single_lowering_matrix_by_hand():
    # quadratic over [0,1] glued C1 to a line over [1,2], written in the
    # uniform quadratic space with the same smoothness; rows pinned by
    # support, the endpoint conditions, partition of unity and linear
    # precision with abscissae (0, 1/2, 2) against (0, 1/2, 3/2, 2)
    sp = MDSpace.create((0.0, 2.0), (1.0,), (2, 1), (1,))
    bundle = rde_build(sp, EXACT)
    assert bundle.orders[0].ref.degrees == (2, 2)
    got = np.asarray(bundle.matrix)
    want = np.array([[1, 0, 0, 0],
                     [0, 1, F(1, 3), 0],
                     [0, 0, F(2, 3), 1]], dtype=object)
    assert np.array_equal(got, want)


def test_uniform_space_gives_identity():
    sp = MDSpace.create((0.0, 2.0), (1.0,), (3, 3), (1,))
    bundle = rde_build(sp, FLOAT)
    assert np.array_equal(bundle.matrix, np.eye(sp.dimension))
    assert bundle.alpha_count == 0


def test_top_extends_emitted_orders():
    bundle = rde_build(stepped(), FLOAT, top=5)
    assert set(bundle.orders) == set(range(6))
    for rho, od in bundle.orders.items():
        assert od.matrix.shape[0] == stepped().dimension - rho


def test_order1_integrals_positive():
    bundle = rde_build(stepped(), FLOAT)
    assert all(v > 0 for v in bundle.orders[1].integrals)


def test_lowers_through_degree_zero():
    # at h = 0 every window is empty: row r's step merges two rows and every
    # row below drops one, so no coefficient is nontrivial; that the bases
    # equal rki's is checked in test_assembler on these spaces and more
    for degrees in ((0, 2), (1, 0, 1), (0, 5, 0), (20, 0, 20)):
        sp, trace = unit_space(degrees), Trace()
        bundle = rde_build(sp, EXACT, trace=trace)
        r = lowering_depth(sp)
        to_zero = [s for s in trace.steps if s.at[1] == 0]
        assert len(to_zero) == r * degrees.count(0), degrees
        for s in to_zero:
            co = s.coefficients
            assert co.alphas == () and (co.ib == co.ie + 1) == (s.k == r), (degrees, s.k)
        assert bundle.alpha_count == rde_cost(degrees)
        assert bundle.matrix.shape == (sp.dimension, bundle.orders[0].ref.dimension)


def test_lazy_integrals_cache():
    lz = LazyIntegrals(np.array([[1.0, 0.0], [0.5, 0.5]]), np.array([2.0, 4.0]))
    assert lz.value(1) == 2.0
    assert lz.value(2) == 3.0


def test_lowering_depth():
    # rows 0..r: orders 0..max(top, 1), and row 0's windows empty
    assert lowering_depth(stepped()) == 3           # max degree - 1
    assert lowering_depth(stepped(), 5) == 5        # top
    assert lowering_depth(MDSpace.create((0.0, 1.0), (), (1,), ())) == 1
    assert lowering_depth(MDSpace.create((0.0, 1.0), (), (0,), ())) == 1


@pytest.mark.parametrize("field", [FLOAT, EXACT])
def test_degree_zero_sweep_is_the_section_bundle(field):
    # with every degree 0 nothing is lowered: the sweep of depth 1 returns
    # the orders 0 and 1 of the section bundle, references and integrals too
    # (a sweep's references are internal spaces)
    def described(ref):
        return ref.a, ref.b, ref.breakpoints, ref.degrees, ref.continuities

    for sp in (MDSpace.create((0.0, 1.0), (), (0,), ()),
               MDSpace.create((0.0, 2.0), (1.0,), (0, 0), (0,))):
        bundle, section = rde_build(sp, field), section_bundle(sp, field, 1)
        assert set(bundle.orders) == set(section.orders) == {0, 1}, sp
        for rho, want in section.orders.items():
            got = bundle.orders[rho]
            assert described(got.ref) == described(want.ref), (sp, rho)
            for x, y in ((got.matrix, want.matrix), (got.integrals0, want.integrals0),
                         (got.integrals, want.integrals)):
                assert_same(x, y, field, (sp, rho))


def test_cost_model_counts_the_sweep():
    # rde_cost predicts the nontrivial coefficient count of the sweep it models
    # on spaces with degree-0 intervals too
    cases = 0
    for seed in range(300):
        spaces = [random_space(seed, 6, 8)]
        spaces += [sp for sp in [without_degree_one(spaces[0])] if min(sp.degrees) == 0]
        for sp in spaces:
            for k in range(1, max(sp.degrees) + 1):
                assert rde_cost(sp.degrees) == rde_build(sp, FLOAT, top=k).alpha_count, \
                    (seed, sp, k)
                cases += 1
    assert cases == 1920 + 828


def test_no_space_per_lowering_row(monkeypatch):
    # rde_build creates the r references and the first level-0 space, and no
    # space per step; auto_plan creates none
    spaces = [random_space(seed, 10, 8) for seed in (3, 7, 11)]
    made = []
    create = MDSpace.create

    def counting(*args, **kwargs):
        made.append(args)
        return create(*args, **kwargs)

    monkeypatch.setattr(MDSpace, "create", staticmethod(counting))
    for sp in spaces:
        made.clear()
        rde_build(sp, FLOAT)
        assert rde_schedule(sp) and len(made) <= lowering_depth(sp) + 1, sp
        made.clear()
        auto_plan(sp)
        assert made == [], sp


def lowering_spaces():
    """Schedules of every length from 0 (a uniform space) to 65 steps."""
    return ([MDSpace.create((0.0, 2.0), (1.0,), (3, 3), (1,)), stepped()]
            + [f() for f in PRESETS.values()] + [random_space(s) for s in range(200)])


def test_references_are_integrated_once(monkeypatch):
    # c0_integrals runs for the r references and the first level-0 space
    # only, however many steps the schedule has
    calls = []
    monkeypatch.setattr(rde_core, "c0_integrals",
                        lambda sp, field: calls.append(sp) or c0_integrals(sp, field))
    steps = set()
    for sp in lowering_spaces():
        calls.clear()
        rde_build(sp, FLOAT)
        assert len(calls) == lowering_depth(sp) + 1, sp
        steps.add(len(rde_schedule(sp)))
    assert {0, 1, 3} <= steps and max(steps) == 65


def test_steps_combine_only_their_window_rows(monkeypatch):
    # each apply_bidiagonal call of a lowering gets the rows lo..ie+1 of its
    # window, whatever the size of the level it acts on
    rows, levels = [], []

    def recording(matrix, co):
        rows.append(matrix.shape[0])
        return apply_bidiagonal(matrix, co)

    monkeypatch.setattr(rde_core, "apply_bidiagonal", recording)
    for sp in lowering_spaces():
        rows.clear()
        levels.append(rde_build(sp, FLOAT).matrix.shape[0] - max(sp.degrees) - 2)
        assert max(rows, default=0) <= max(sp.degrees) + 2, sp
    assert max(levels) >= 30


REPLAY_SPACES = [("stepped", stepped(), EXACT), ("stepped", stepped(), FLOAT),
                 ("random(5, 40, 8)", random_space(5, 40, 8), FLOAT)] + \
    [(name, PRESETS[name](), EXACT) for name in ("cox", "test1")] + \
    [("table7(5)", table7(5), EXACT)] + \
    [(f"random({s}, 3, 5)", random_space(s, 3, 5), EXACT) for s in (5, 7)] + \
    [(name, PRESETS[name](), FLOAT) for name in ("test3", "test5", "test6")] + \
    [(f"random({s})", random_space(s), FLOAT) for s in range(0, 200, 5)]


@pytest.mark.parametrize("space, field", [(sp, f) for _, sp, f in REPLAY_SPACES],
                         ids=[f"{name}-{f.__name__}" for name, _, f in REPLAY_SPACES])
def test_steps_replay_on_the_dense_level(space, field):
    # each traced lowering step at row k acts on the level, and its integral
    # column, that the dense kernel makes from the previous ones of row k,
    # replayed from the identity and the reference integrals; the last one
    # makes the order's matrix and integrals. The steps write their levels in
    # place, moving the rows no step has reached yet, and must keep every
    # bit. Orders 0 and 1 keep the matrix, every other order none. Emitting
    # orders 0..r - 1 gives every row above row 0 an order.
    trace, r = Trace(), lowering_depth(space)
    bundle = rde_build(space, field, r - 1, trace)
    assert len(trace.steps) == r * len(rde_schedule(space))
    for k in range(1, r + 1):
        order = bundle.orders[r - k]
        level, integrals = eye(order.ref.dimension, field), order.integrals0
        width = level.shape[1] if r - k <= 1 else 0
        for s in (s for s in trace.steps if s.k == k):
            assert_same(s.matrix, level[:, :width], field, (k, s.n))
            assert_same(s.integrals, integrals, field, (k, s.n))
            level = apply_bidiagonal(level, s.coefficients)
            integrals = apply_bidiagonal(integrals[:, None], s.coefficients)[:, 0]
        assert_same(order.matrix, level[:, :width], field, k)
        assert_same(order.integrals, integrals, field, k)


def assert_same(got, want, field, where):
    cells = (lambda m: (m.dtype, m.tobytes())) if field is FLOAT else (lambda m: list(m.ravel()))
    assert (got.shape, cells(got)) == (want.shape, cells(want)), where


SWEPT_DEGREE_ZERO = [sp for sp in DEGREE_ZERO_SAMPLE if sp.q]     # (0) is a section
RULE_SPACES = ([f() for f in PRESETS.values()] + [table7(k) for k in TABLE7_RANGE]
               + [random_space(s) for s in range(200)] + SWEPT_DEGREE_ZERO)
EXACT_RULE_SPACES = ([PRESETS[name]() for name in ("cox", "test1", "test2", "test3", "test6")]
                     + [table7(5), table7(9)] + [random_space(s, 3, 5) for s in range(20)]
                     + SWEPT_DEGREE_ZERO)


@pytest.mark.parametrize("field", [FLOAT, EXACT])
def test_unread_rows_leave_the_build_unchanged(field):
    # a default sweep emits orders 0 and 1, one of full depth every order of
    # its rows, which adds only their integrals: the steps, the coefficient
    # count and orders 0 and 1 are equal, bit for bit in float and exactly in
    # Fraction
    for sp in RULE_SPACES if field is FLOAT else EXACT_RULE_SPACES:
        got, want, r = Trace(), Trace(), lowering_depth(sp)
        bundle, full = rde_build(sp, field, trace=got), rde_build(sp, field, r, want)
        assert [(s.at, s.n, s.k, repr(s.coefficients)) for s in got.steps] == \
            [(s.at, s.n, s.k, repr(s.coefficients)) for s in want.steps], sp
        assert bundle.alpha_count == full.alpha_count, sp
        assert set(bundle.orders) == {0, 1} and len(full.orders) == r + 1, sp
        for rho in (0, 1):
            a, b = bundle.orders[rho], full.orders[rho]
            assert a.ref == b.ref, (sp, rho)
            for x, y in ((a.matrix, b.matrix), (a.integrals, b.integrals),
                         (a.integrals0, b.integrals0)):
                assert_same(x, y, field, (sp, rho))


def test_unread_rows_hold_one_column(monkeypatch):
    # row k keeps a matrix only if its order r - k is 0 or 1, whatever orders
    # the sweep emits: every other row, row 0 among them, is one column of
    # integrals after every step, and its traced steps record a matrix with
    # no columns
    lower, widths = rde_core._lower, []

    def recording(level, co):
        out = lower(level, co)
        widths.append(level[0].shape[1])
        return out

    monkeypatch.setattr(rde_core, "_lower", recording)
    thin = 0
    for sp in RULE_SPACES:
        for top in (0, 1, lowering_depth(sp) - 1):
            widths.clear()
            trace, r = Trace(), lowering_depth(sp, top)
            rde_build(sp, FLOAT, top, trace)
            assert len(widths) == (r + 1) * len(rde_schedule(sp)), sp
            for n, width in enumerate(widths):
                k = n % (r + 1)
                assert (width == 1) == (k < r - 1), (sp, top, k)
                thin += 0 < k < r - 1
            for s in trace.steps:
                assert (s.matrix.shape[1] == 0) == (s.k < r - 1), (sp, top, s.k)
    assert thin > 0


def test_step_left_of_the_stepped_rows_is_rejected():
    # a level holds rows 0..done-1 in place; a step whose rows end before
    # row done - 1 would need them moved back down, which no schedule does
    level = [np.eye(4, 5), 3, 0]
    with pytest.raises(NumericalInconsistencyError):
        rde_core._lower(level, RKICoefficients(2, 1, (), ()))
    rde_core._lower(level, RKICoefficients(3, 2, (), ()))
    assert level[1:] == [2, 1]


@pytest.mark.parametrize("field", [FLOAT, EXACT])
def test_level_rows_stay_in_their_columns(monkeypatch, field):
    # after every step, row i of a level with `gone` rows removed is nonzero
    # only in columns i .. i + gone, the columns each step combines
    lower, checked = rde_core._lower, []

    def checking(level, co):
        out = lower(level, co)
        rows, cols = np.nonzero(rde_core._rows(level)[:, :-1])
        assert (cols >= rows).all() and (cols <= rows + level[2]).all(), co
        checked.append(len(rows))
        return out

    monkeypatch.setattr(rde_core, "_lower", checking)
    spaces = lowering_spaces() if field is FLOAT else \
        [PRESETS[name]() for name in ("cox", "test1", "test3", "table7")] + \
        [random_space(s, 3, 5) for s in (5, 7)]
    for sp in spaces:
        rde_build(sp, field)
    assert len(checked) > 0 and sum(checked) > 0


@pytest.mark.parametrize("field", [FLOAT, EXACT])
def test_level0_column_is_a_full_integration(monkeypatch, field):
    # row 0 is a one-column level of integrals that the steps merge and drop
    # like any other level: after every step it is, bit for bit, the
    # c0_integrals of the level-0 space of the new degrees
    lower, made = rde_core._lower, []

    def recording(level, co):
        out = lower(level, co)
        made.append(rde_core._rows(level))
        return out

    monkeypatch.setattr(rde_core, "_lower", recording)
    spaces = lowering_spaces() if field is FLOAT else \
        [PRESETS[name]() for name in ("cox", "test1", "test3", "table7")]
    checked = 0
    for sp in spaces:
        made.clear()
        r, schedule = lowering_depth(sp), rde_schedule(sp)
        rde_build(sp, field)
        assert len(made) == (r + 1) * len(schedule), sp
        degrees = [max(sp.degrees)] * (sp.q + 1)
        for (j, h), level in zip(schedule, made[::r + 1]):
            degrees[j] = h
            want = c0_integrals(level_space(sp, degrees, r), field)
            assert level.shape == (len(want), 1), (sp, j, h)
            got = level[:, 0]
            if field is FLOAT:
                assert (got.dtype, got.tobytes()) == (want.dtype, want.tobytes()), (sp, j, h)
            else:
                assert list(got) == list(want), (sp, j, h)
            checked += 1
    assert checked == sum(len(rde_schedule(sp)) for sp in spaces) > 0
