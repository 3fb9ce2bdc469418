"""Directly evaluable spaces: layout, integrals, values, derivatives.

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

from conftest import space_strategy
from mdspline import EXACT, FLOAT, MDSpace, SpaceValidationError
from mdspline.c0_engine import (build_layout, c0_integrals, eval_c0_basis,
                                eval_c0_derivatives)


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
    dsp = MDSpace.create((0.0, 2.0), (1.0,), (1, 1), (0,), internal=True)
    assert tuple(c0_integrals(dsp, EXACT)) == (F(1, 2), F(1), F(1, 2))


def test_layout_glues_c0_degree_change():
    lay = build_layout(glued())
    assert len(lay.runs) == 2
    assert lay.runs[0].degree == 2 and lay.runs[1].degree == 1
    # the last quadratic slot and the first linear slot are the same function
    assert lay.runs[0].first_slot + lay.runs[0].n_fns - 1 == lay.runs[1].first_slot
    assert lay.zero_slots == frozenset()
    assert glued().dimension == 4


def test_layout_c_minus_1_splits():
    sp = MDSpace.create((0.0, 2.0), (1.0,), (1, 1), (-1,), internal=True)
    lay = build_layout(sp)
    assert sp.dimension == 4
    assert lay.runs[0].first_slot == 1 and lay.runs[0].n_fns == 2
    assert lay.runs[1].first_slot == 3 and lay.runs[1].n_fns == 2


def test_layout_gap_and_zero_slots():
    sp = MDSpace.create((0.0, 2.0), (1.0,), (2, 2), (-2,), internal=True)
    lay = build_layout(sp)
    assert sp.dimension == 7
    assert lay.zero_slots == frozenset({4})
    v = eval_c0_basis(sp, 0.5, FLOAT, lay)
    assert v.first == 1 and len(v.values) == 3
    v = eval_c0_basis(sp, 1.5, FLOAT, lay)
    assert v.first == 5 and len(v.values) == 3
    # gap interval: empty window
    gap = MDSpace.create((0.0, 2.0), (1.0,), (-1, 2), (-1,), internal=True)
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


def test_derivatives_match_finite_differences():
    sp = MDSpace.create((0.0, 2.0), (1.0,), (3, 4), (0,))
    lay = build_layout(sp)
    h = 1e-6
    for x in (0.3, 0.8, 1.2, 1.7):
        der = eval_c0_derivatives(sp, x, "right", 1, FLOAT, lay).scatter()
        lo = eval_c0_basis(sp, x - h, FLOAT, lay).scatter()
        hi = eval_c0_basis(sp, x + h, FLOAT, lay).scatter()
        fd = (hi - lo) / (2 * h)
        assert np.allclose(der, fd, atol=1e-4)


def test_integrals_match_quadrature():
    for sp in (glued(), MDSpace.create((0.0, 3.0), (1.0, 2.0), (4, 2, 3), (0, 0))):
        lay = build_layout(sp)
        nodes, weights = np.polynomial.legendre.leggauss(8)
        total = np.zeros(sp.dimension)
        xs = sp.xs
        for j in range(sp.q + 1):
            mid, half = (xs[j] + xs[j + 1]) / 2, (xs[j + 1] - xs[j]) / 2
            for u, w in zip(nodes, weights):
                total += w * half * eval_c0_basis(sp, mid + half * u, FLOAT, lay).scatter()
        assert np.allclose(total, c0_integrals(sp, FLOAT), atol=1e-12, rtol=0)


def test_rejects_positive_continuity_degree_change():
    sp = MDSpace.create((0.0, 2.0), (1.0,), (2, 1), (1,))
    with pytest.raises(SpaceValidationError):
        build_layout(sp)


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
    lay = build_layout(sp)
    x = knots[0] + frac * (knots[-1] - knots[0])
    v = eval_c0_basis(sp, x, FLOAT, lay)
    assert len(v.values) == d + 1
    assert abs(float(np.sum(v.values)) - 1.0) < 1e-13
    assert all(val > -1e-15 for val in v.values)


def test_left_limits_use_the_interval_ending_at_x():
    # the left-side window at x belongs to the last interval j <= q with
    # x_j < x (interval q at b); near x inside that interval the right-side
    # window has the same slots and nearly the same values
    sp = MDSpace.create((0.0, 4.0), (1.0, 2.5, 3.0), (2, 3, 3, 1), (0, 1, 0))
    lay = build_layout(sp)
    xs, eps = sp.xs, F(1, 10**9)
    for x in (*sp.breakpoints, 1.7, sp.b):
        j = sp.q if x == sp.b else max(i for i in range(sp.q + 1) if xs[i] < x)
        near = F(x) - eps
        assert sp.find_interval(float(near)) == j
        for order in range(3):
            left = eval_c0_derivatives(sp, F(x), "left", order, EXACT, lay)
            inside = eval_c0_derivatives(sp, near, "right", order, EXACT, lay)
            assert left.first == inside.first and len(left.values) == len(inside.values)
            assert all(abs(u - v) < F(1, 10**6) for u, v in zip(left.values, inside.values))
    for x in (sp.a, 4.5):
        with pytest.raises(ValueError):
            eval_c0_derivatives(sp, x, "left", 1, FLOAT, lay)


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
    # are the reference, at a, at b, at breakpoints and between them
    sp, x = case
    xs, q = sp.xs, sp.q
    right = q if x == sp.b else bisect_right(xs, x) - 1
    assert sp.find_interval(x) == right
    lay = build_layout(sp)
    for side, want in (("right", right),
                       ("left", q if x == sp.b else bisect_left(xs, x) - 1)):
        reads = _Reads(lay.run_of_interval)
        reads.read = []
        probe = replace(lay, run_of_interval=reads)
        if side == "left" and x == sp.a:
            with pytest.raises(ValueError):
                eval_c0_derivatives(sp, x, side, 1, FLOAT, probe)
            continue
        eval_c0_derivatives(sp, x, side, 1, FLOAT, probe)
        assert reads.read == [want]
