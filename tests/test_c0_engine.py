"""Directly evaluable spaces: slot windows, integrals, values, derivatives.

Integrals are checked against Gauss-Legendre quadrature computed here, and
derivatives against central differences of the values; both keep the checks
independent of the recurrences under test.
"""

import math
from bisect import bisect_left, bisect_right
from dataclasses import replace
from fractions import Fraction as F

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.interpolate import BSpline

from conftest import internal_space, random_space, space_strategy
from mdspline import EXACT, FLOAT, MDSpace, SpaceValidationError
from mdspline.assembler import build_matrix
from mdspline.c0_engine import (c0_integrals, eval_c0_basis, eval_c0_derivatives,
                                evaluable_partitions)
from mdspline.presets import PRESETS, TABLE7_RANGE, table7
from mdspline.rde_core import lowering_depth, rde_build


def glued():
    return MDSpace.create((2.0, 4.0), (3.0,), (2, 1), (0,))


def test_bernstein_integrals():
    for d in range(6):
        sp = MDSpace.create((0.0, 1.0), (), (d,), ())
        assert tuple(c0_integrals(sp, EXACT)) == (F(1, d + 1),) * (d + 1)


def test_glued_integrals():
    assert tuple(c0_integrals(glued(), EXACT)) == (F(1, 3), F(1, 3), F(5, 6), F(1, 2))


def test_derivative_section_integrals():
    # first derivative image of (2_1 2) on [0, 2]
    dsp = internal_space((0.0, 2.0), (1.0,), (1, 1), (0,))
    assert tuple(c0_integrals(dsp, EXACT)) == (F(1, 2), F(1), F(1, 2))


def slots(sp, points):
    """The 1-based slots of the windows at `points`, one tuple per point."""
    return [tuple(range(w.first, w.last + 1))
            for w in (eval_c0_basis(sp, x, FLOAT) for x in points)]


def test_layout_glues_c0_degree_change():
    # the last quadratic slot and the first linear slot are the same function
    assert glued().dimension == 4
    assert slots(glued(), (2.0, 2.5, 3.0, 3.5, 4.0)) == [(1, 2, 3)] * 2 + [(3, 4)] * 3
    s, t = evaluable_partitions(glued())
    assert all(si < ti for si, ti in zip(s, t))      # no zero slot


def test_layout_c_minus_1_splits():
    sp = internal_space((0.0, 2.0), (1.0,), (1, 1), (-1,))
    assert sp.dimension == 4
    assert slots(sp, (0.0, 0.5, 1.0, 1.5, 2.0)) == [(1, 2)] * 2 + [(3, 4)] * 3


def test_layout_gap_and_zero_slots():
    sp = internal_space((0.0, 2.0), (1.0,), (2, 2), (-2,))
    assert sp.dimension == 7
    assert slots(sp, (0.0, 0.5, 1.0, 1.5, 2.0)) == [(1, 2, 3)] * 2 + [(5, 6, 7)] * 3
    s, t = evaluable_partitions(sp)
    assert [i for i in range(1, 8) if s[i - 1] >= t[i - 1]] == [4]   # no window holds it
    for side in ("left", "right"):
        for x in (0.5, 1.0, 1.5, 2.0):
            w = eval_c0_derivatives(sp, x, side, 1, FLOAT)
            assert len(w.values) == 3 and not w.first <= 4 <= w.last
    # gap interval: empty window
    gap = internal_space((0.0, 2.0), (1.0,), (-1, 2), (-1,))
    assert len(eval_c0_basis(gap, 0.5, FLOAT).values) == 0


def test_values_by_hand():
    lin = MDSpace.create((0.0, 1.0), (), (1,), ())
    v = eval_c0_basis(lin, 0.5, FLOAT)
    assert np.allclose(v.scatter(), [0.5, 0.5], atol=0, rtol=0)
    # at the glued seam only the shared function is nonzero
    v = eval_c0_basis(glued(), 3.0, EXACT)
    assert list(v.scatter()) == [0, 0, 1, 0]
    # half open: x = b evaluates the last interval
    v = eval_c0_basis(glued(), 4.0, EXACT)
    assert list(v.scatter()) == [0, 0, 0, 1]


def test_conventional_value_golden():
    from mdspline.presets import cox
    v = eval_c0_basis(cox(), 11.0, FLOAT).scatter()
    assert v[21] == pytest.approx(2.926226872314347e-01, rel=1e-15)


def test_derivatives_by_hand():
    hat = MDSpace.create((0.0, 2.0), (1.0,), (1, 1), (0,))
    d = eval_c0_derivatives(hat, 0.5, "right", 1, FLOAT)
    assert np.allclose(d.scatter(), [-1.0, 1.0, 0.0], atol=0, rtol=0)
    d = eval_c0_derivatives(hat, 1.0, "right", 1, FLOAT)
    assert np.allclose(d.scatter(), [0.0, -1.0, 1.0], atol=0, rtol=0)
    d = eval_c0_derivatives(hat, 1.0, "left", 1, FLOAT)
    assert np.allclose(d.scatter(), [-1.0, 1.0, 0.0], atol=0, rtol=0)


def test_bernstein_derivatives():
    cub = MDSpace.create((0.0, 1.0), (), (3,), ())
    d1 = eval_c0_derivatives(cub, 0.0, "right", 1, EXACT).scatter()
    assert list(d1) == [-3, 3, 0, 0]
    d2 = eval_c0_derivatives(cub, 0.0, "right", 2, EXACT).scatter()
    assert list(d2) == [6, -12, 6, 0]
    quad = MDSpace.create((0.0, 1.0), (), (2,), ())
    d3 = eval_c0_derivatives(quad, 0.5, "right", 3, EXACT).scatter()
    assert list(d3) == [0, 0, 0]


def test_exact_windows_at_a_float_point_stay_exact():
    # the kernel lifts x into the field: the exact window at a double is the
    # one at its exact value, whatever the order
    sp = MDSpace.create((0.0, 2.0), (1.0,), (3, 4), (0,))
    for x in (0.3, 1.0, 1.7):
        pairs = [(eval_c0_basis(sp, x, EXACT), eval_c0_basis(sp, F(x), EXACT))]
        pairs += [(eval_c0_derivatives(sp, x, side, k, EXACT),
                   eval_c0_derivatives(sp, F(x), side, k, EXACT))
                  for side in ("left", "right") for k in range(5)]
        for w, want in pairs:
            assert all(type(v) is F for v in w.values)
            assert w.first == want.first and list(w.values) == list(want.values)


def test_negative_derivative_order_raises():
    sp = MDSpace.create((0.0, 1.0), (), (3,), ())
    for side in ("left", "right"):
        with pytest.raises(ValueError, match="order"):
            eval_c0_derivatives(sp, 0.5, side, -1, FLOAT)


def test_derivatives_match_finite_differences():
    sp = MDSpace.create((0.0, 2.0), (1.0,), (3, 4), (0,))
    parts = evaluable_partitions(sp)
    h = 1e-6
    for x in (0.3, 0.8, 1.2, 1.7):
        der = eval_c0_derivatives(sp, x, "right", 1, FLOAT, parts).scatter()
        lo = eval_c0_basis(sp, x - h, FLOAT, parts).scatter()
        hi = eval_c0_basis(sp, x + h, FLOAT, parts).scatter()
        fd = (hi - lo) / (2 * h)
        assert np.allclose(der, fd, atol=1e-4)


def test_integrals_match_quadrature():
    for sp in (glued(), MDSpace.create((0.0, 3.0), (1.0, 2.0), (4, 2, 3), (0, 0))):
        parts = evaluable_partitions(sp)
        nodes, weights = np.polynomial.legendre.leggauss(8)
        total = np.zeros(sp.dimension)
        xs = sp.xs
        for j in range(sp.q + 1):
            mid, half = (xs[j] + xs[j + 1]) / 2, (xs[j + 1] - xs[j]) / 2
            for u, w in zip(nodes, weights):
                total += w * half * eval_c0_basis(sp, mid + half * u, FLOAT, parts).scatter()
        assert np.allclose(total, c0_integrals(sp, FLOAT), atol=1e-12, rtol=0)


def test_rejects_positive_continuity_degree_change():
    sp = MDSpace.create((0.0, 2.0), (1.0,), (2, 1), (1,))
    with pytest.raises(SpaceValidationError):
        eval_c0_basis(sp, 0.5, FLOAT)


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 10 ** 6), st.floats(0.001, 0.999))
def test_partition_of_unity_and_support(seed, frac):
    import random
    rng = random.Random(seed)
    q = rng.randint(0, 3)
    d = rng.randint(0, 5)
    knots = [0]
    for _ in range(q + 1):
        knots.append(knots[-1] + rng.randint(1, 4))
    sp = MDSpace.create((float(knots[0]), float(knots[-1])),
                        tuple(float(v) for v in knots[1:-1]),
                        (d,) * (q + 1), (0,) * q)
    x = knots[0] + frac * (knots[-1] - knots[0])
    v = eval_c0_basis(sp, x, FLOAT)
    assert len(v.values) == d + 1
    assert abs(float(np.sum(v.values)) - 1.0) < 1e-13
    assert all(val > -1e-15 for val in v.values)


def test_left_limits_use_the_interval_ending_at_x():
    # the left-side window at x belongs to the last interval j <= q with
    # x_j < x (interval q at b); near x inside that interval the right-side
    # window has the same slots and nearly the same values
    sp = MDSpace.create((0.0, 4.0), (1.0, 2.5, 3.0), (2, 3, 3, 1), (0, 1, 0))
    parts = evaluable_partitions(sp)
    xs, eps = sp.xs, F(1, 10**9)
    for x in (*sp.breakpoints, 1.7, sp.b):
        j = sp.q if x == sp.b else max(i for i in range(sp.q + 1) if xs[i] < x)
        near = F(x) - eps
        assert sp.find_interval(float(near)) == j
        for order in range(3):
            left = eval_c0_derivatives(sp, F(x), "left", order, EXACT, parts)
            inside = eval_c0_derivatives(sp, near, "right", order, EXACT, parts)
            assert left.first == inside.first and len(left.values) == len(inside.values)
            assert all(abs(u - v) < F(1, 10**6) for u, v in zip(left.values, inside.values))
    for x in (sp.a, 4.5):
        with pytest.raises(ValueError):
            eval_c0_derivatives(sp, x, "left", 1, FLOAT, parts)


class _Reads(tuple):
    """A tuple that records every index read from it."""

    def __getitem__(self, i):
        self.read.append(i)
        return tuple.__getitem__(self, i)


@st.composite
def space_and_point(draw):
    sp = draw(space_strategy(max_breakpoints=6, max_degree=4)).associated_c0()
    knot = draw(st.sampled_from(sp.xs))
    x = draw(st.sampled_from((knot, math.nextafter(knot, -math.inf),
                              math.nextafter(knot, math.inf)))
             | st.floats(sp.a, sp.b))
    return sp, min(max(x, sp.a), sp.b)


@settings(max_examples=300, deadline=None)
@given(space_and_point())
def test_interval_lookup_matches_the_knot_formulas(case):
    # find_interval and the left-side interval of eval_c0_derivatives bisect
    # the breakpoints alone; the formulas on all knots xs = (a, x_1, .., b)
    # are the reference, at a, at b, at breakpoints and between them. The
    # interval shows as the one degree the evaluation reads.
    sp, x = case
    xs, q = sp.xs, sp.q
    right = q if x == sp.b else bisect_right(xs, x) - 1
    assert sp.find_interval(x) == right
    parts = evaluable_partitions(sp)
    for side, want in (("right", right),
                       ("left", q if x == sp.b else bisect_left(xs, x) - 1)):
        reads = _Reads(sp.degrees)
        reads.read = []
        probe = replace(sp, degrees=reads)
        if side == "left" and x == sp.a:
            with pytest.raises(ValueError):
                eval_c0_derivatives(probe, x, side, 1, FLOAT, parts)
            continue
        eval_c0_derivatives(probe, x, side, 1, FLOAT, parts)
        assert reads.read == [want]


def test_exact_points_take_their_own_interval():
    # float(x) rounds these points onto the breakpoint 3 or onto a; the
    # interval must come from x itself, as the window's knots do
    sp, tiny = glued(), F(1, 10**30)
    w = eval_c0_basis(sp, F(3) - tiny, EXACT)
    assert w.first == 1 and len(w.values) == 3
    assert all(v >= 0 for v in w.values) and sum(w.values) == 1
    w = eval_c0_derivatives(sp, F(3) + tiny, "left", 0, EXACT)
    assert w.first == 3 and len(w.values) == 2 and all(v >= 0 for v in w.values)
    w = eval_c0_derivatives(sp, F(2) + tiny, "left", 0, EXACT)
    assert w.first == 1 and sum(w.values) == 1


def evaluable_spaces():
    """Directly evaluable spaces around the presets, table7 and random spaces:
    their C0 spaces and those spaces' derivative spaces (zero slots and
    negative degrees included), the sections' derivative spaces and every
    order's reference of rki and rde builds and of a full-depth sweep."""
    out = {}
    for sp in ([f() for f in PRESETS.values()] + [table7(k) for k in TABLE7_RANGE]
               + [random_space(s) for s in range(200)]):
        c0 = sp.associated_c0()
        found = [c0.derivative_space(rho) for rho in range(max(sp.degrees) + 2)]
        for sec in sp.section_decomposition().sections:
            found += [sec.derivative_space(rho) for rho in range(sec.degrees[0] + 2)]
        for bundle in (build_matrix(sp, "rki"), build_matrix(sp, "rde"),
                       rde_build(sp, FLOAT, lowering_depth(sp))):
            found += [od.ref for od in bundle.orders.values()]
        for f in found:
            out[f.a, f.b, f.breakpoints, f.degrees, f.continuities] = f
    return list(out.values())


def test_windows_are_the_slots_whose_support_covers_the_interval():
    # on every interval of degree d >= 0 the d + 1 window slots are exactly
    # the slots i with [x_j, x_j+1] inside [s_i, t_i]; zero slots and the
    # slots of other runs never qualify
    spaces = evaluable_spaces()
    assert len(spaces) > 8000
    assert any(s >= t for sp in spaces for s, t in zip(*sp.extended_partitions()))
    assert any(d <= -2 for sp in spaces for d in sp.degrees)
    for sp in spaces:
        s, t = evaluable_partitions(sp)
        xs = sp.xs
        for j, d in enumerate(sp.degrees):
            lo, hi = xs[j], xs[j + 1]
            covering = tuple(i + 1 for i in range(len(s)) if s[i] <= lo and hi <= t[i])
            w = eval_c0_basis(sp, (lo + hi) / 2, FLOAT, (s, t))
            assert w.size == sp.dimension
            if d < 0:
                assert len(w.values) == 0 and covering == (), (sp, j)
            else:
                assert covering == tuple(range(w.first, w.last + 1)), (sp, j)


def _runs(sp):
    """Maximal equal-degree runs (j0, j1) of nonnegative degree that no
    breakpoint of negative continuity splits."""
    runs, j0 = [], 0
    for j in range(1, sp.q + 2):
        if j > sp.q or sp.degrees[j] != sp.degrees[j0] or sp.continuities[j - 1] < 0:
            if sp.degrees[j0] >= 0:
                runs.append((j0, j))
            j0 = j
    return runs


@pytest.mark.parametrize("sp", [
    MDSpace.create((0.0, 1.0), (), (3,), ()),
    MDSpace.create((-2.0, 5.0), (-1.0, 0.5, 2.0, 3.0), (4,) * 5, (3, 1, 0, 2)),
    PRESETS["cox"](),
    build_matrix(PRESETS["test3"](), "rki").ref,
    build_matrix(PRESETS["test6"](), "rki").ref,
    build_matrix(table7(10), "rki").ref,
    build_matrix(random_space(5), "rki").ref,
    internal_space((0.0, 2.0), (1.0,), (2, 2), (-2,)),
], ids=str)
def test_windows_match_scipy_design_matrix(sp):
    # per equal-degree run, the window values are the nonzero entries of the
    # run's row of scipy's B-spline design matrix on the run's clamped knots,
    # and the right-side derivative windows of orders 1 .. min(d, 3) those of
    # scipy's derivatives of the run's B-splines, to 1e-12 of the row's largest
    xs, rng = sp.xs, np.random.default_rng(3)
    for j0, j1 in _runs(sp):
        d = sp.degrees[j0]
        knots = [xs[j0]] * (d + 1)
        for i in range(j0 + 1, j1):
            knots += [xs[i]] * (d - sp.continuities[i - 1])
        knots += [xs[j1]] * (d + 1)
        first = eval_c0_basis(sp, xs[j0], FLOAT).first
        pts = sorted({*xs[j0:j1], *rng.uniform(xs[j0], xs[j1], 20)})
        rows = BSpline.design_matrix(pts, np.array(knots), d).toarray()
        for x, row in zip(pts, rows):
            w = eval_c0_basis(sp, x, FLOAT)
            assert w.last - w.first == d and first <= w.first <= w.last < first + len(row)
            want = row[w.first - first:w.last - first + 1]
            assert np.allclose(w.values, want, rtol=1e-12, atol=1e-14), (sp, x)
            assert np.count_nonzero(row) == np.count_nonzero(want)
        splines = BSpline(np.array(knots), np.eye(rows.shape[1]), d)
        for k in range(1, min(d, 3) + 1):
            for x, row in zip(pts, splines(pts, nu=k)):
                w = eval_c0_derivatives(sp, x, "right", k, FLOAT)
                assert w.last - w.first == d
                want = row[w.first - first:w.last - first + 1]
                scale = np.abs(row).max()
                assert np.abs(w.values - want).max() <= 1e-12 * scale, (sp, x, k)
                assert np.count_nonzero(row) == np.count_nonzero(want)
