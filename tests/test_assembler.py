"""Full-space assembly: route dispatch, pairwise join order, plans, traces.

The complete matrix of (2_1 2_2 4_3 3) on [0, 4] is frozen from the exact
build; the rationals of its harder half are pinned in test_join_core, and the
independent coefficient replays in test_oracle confirm the rest.
"""

import math
from collections import Counter
from fractions import Fraction as F

import numpy as np
import pytest

from mdspline import (EXACT, FLOAT, MDSpace, Trace, build_matrix, build_matrix_derivative,
                      build_matrix_mixed, build_matrix_rde, build_matrix_rki, eval_basis)
from conftest import DEGREE_ZERO_SAMPLE, random_space, without_degree_one
from mdspline import assembler, oracle
from mdspline.assembler import auto_plan, join_cost, rde_cost
from mdspline.c0_engine import eval_c0_basis
from mdspline.presets import PRESETS, table7
from mdspline.rde_core import lowering_depth, rde_build


def worked_space():
    return MDSpace.create((0.0, 4.0), (1.0, 2.0, 3.0), (2, 2, 4, 3), (1, 2, 3))


FULL_MATRIX = [
    [1, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0],
    [0, 1, F(3, 19), F(1, 19), 0, 0, 0, 0, 0, 0, 0],
    [0, 0, F(16, 19), F(12, 19), F(10, 19), F(6, 19), F(7, 38), F(2, 19), 0, 0, 0],
    [0, 0, 0, F(6, 19), F(9, 19), F(13, 19), F(549, 836), F(111, 209), F(4, 11), 0, 0],
    [0, 0, 0, 0, 0, 0, F(7, 44), F(49, 165), F(238, 495), F(28, 45), 0],
    [0, 0, 0, 0, 0, 0, 0, F(1, 15), F(7, 45), F(17, 45), 1],
]


def joins_in_order(trace):
    """(seam, r) per join, in the order the joins ran."""
    rows = {}
    for s in trace.steps:
        rows[s.at] = max(rows.get(s.at, 0), s.n)
    return list(rows.items())


def test_full_build_exact():
    trace = Trace()
    bundle = build_matrix_rki(worked_space(), EXACT, trace)
    assert bundle.matrix.tolist() == FULL_MATRIX
    assert bundle.alpha_count == 14
    assert joins_in_order(trace) == [(3.0, 3), (2.0, 2)]


def test_second_join_cells():
    trace = Trace()
    build_matrix_rki(worked_space(), EXACT, trace)
    got = {(s.n, s.k): (s.coefficients.window, s.coefficients.alphas)
           for s in trace.steps if s.at == 2.0}
    assert got[(1, 1)] == ((3, 3), (F(3, 4),))
    assert got[(2, 1)] == ((4, 4), (F(2, 3),))
    assert got[(2, 2)] == ((3, 4), (F(16, 19), F(9, 19)))


def test_full_build_float():
    exact = build_matrix_rki(worked_space(), EXACT)
    dbl = build_matrix_rki(worked_space(), FLOAT)
    assert np.max(np.abs(dbl.matrix - np.array(exact.matrix, dtype=float))) <= 1e-15


def test_identity_on_own_c0_space():
    sp = MDSpace.create((2.0, 4.0), (3.0,), (2, 1), (0,))
    bundle = build_matrix_rki(sp, FLOAT)
    assert np.array_equal(bundle.matrix, np.eye(4))
    assert bundle.orders[0].ref == sp


def test_reference_is_c0_shadow():
    bundle = build_matrix_rki(worked_space(), FLOAT)
    ref = bundle.orders[0].ref
    assert ref.degrees == (2, 2, 4, 3)
    assert ref.continuities == (1, 0, 0)
    assert bundle.matrix.shape == (6, 11)


def strategies_agree_on(sp, xs):
    bk = build_matrix_rki(sp, EXACT)
    bd = build_matrix_rde(sp, EXACT)
    bm = build_matrix_mixed(sp, EXACT)
    for x in xs:
        vk = eval_basis(bk, x).scatter()
        assert np.array_equal(vk, eval_basis(bd, x).scatter())
        assert np.array_equal(vk, eval_basis(bm, x).scatter())


def test_strategies_agree_exactly():
    strategies_agree_on(worked_space(), [F(1, 3), F(3, 2), F(5, 2), F(7, 2), F(4)])
    strategies_agree_on(MDSpace.create((0.0, 3.0), (1.0, 2.0), (4, 2, 3), (2, 1)),
                        [F(1, 2), F(1), F(7, 4), F(11, 4)])


def test_auto_plan_prefers_cheaper_route():
    assert auto_plan(table7(5)) == ["rki", "rki"]
    assert auto_plan(table7(15)) == ["rde", "rde"]
    # one section: nothing to merge
    assert auto_plan(MDSpace.create((0.0, 1.0), (), (3,), ())) == ["rki"]


def label_groups(plan):
    """Section groups (lo, hi) of a label plan: each "rki" section on its own,
    each run of "rde" sections one group."""
    groups, lo = [], 0
    for i in range(1, len(plan) + 1):
        if i == len(plan) or plan[i] != plan[lo] or plan[lo] == "rki":
            groups.append((lo, i - 1))
            lo = i
    return groups


def modelled_cost(space, dec, plan):
    """Coefficient count the cost model gives a label plan: `rde_cost` per
    sweep plus `join_cost` per seam between groups."""
    b = dec.boundaries
    groups = label_groups(plan)
    sweeps = sum(rde_cost(space.degrees[b[lo]:b[hi + 1]]) for lo, hi in groups if lo < hi)
    return sweeps + sum(join_cost(dec.joins[hi].continuity) for _, hi in groups[:-1])


def test_auto_plan_is_the_cheapest_label_plan():
    # brute force over all 2^n label plans, also with degree-0 sections
    checked = 0
    for seed in range(1000):
        for sp in (random_space(seed, 10, 8), without_degree_one(random_space(seed, 10, 8))):
            dec = sp.section_decomposition()
            n = len(dec.sections)
            if not 2 <= n <= 8:
                continue
            best = min(modelled_cost(sp, dec, [("rki", "rde")[p >> i & 1] for i in range(n)])
                       for p in range(2 ** n))
            assert modelled_cost(sp, dec, auto_plan(sp)) == best, (seed, sp)
            checked += 1
    assert checked > 1400


def test_mixed_never_needs_more_coefficients():
    for seed in range(700):
        sp = random_space(seed, 10, 8)
        counts = {route: build_matrix(sp, route).alpha_count
                  for route in ("rki", "rde", "mixed")}
        assert counts["mixed"] <= min(counts["rki"], counts["rde"]), (seed, counts)


def test_mixed_counts_on_presets():
    counts = {name: build_matrix_mixed(PRESETS[name]()).alpha_count
              for name in ("test5", "test6")}
    assert counts == {"test5": 2900, "test6": 800}


def test_costs():
    assert join_cost(3) == 10
    assert rde_cost(table7(15).degrees) < join_cost(15)
    assert rde_cost(table7(5).degrees) > join_cost(5)


def test_mixed_groups_are_recorded():
    trace = Trace()
    sp = table7(15)
    bundle = build_matrix_mixed(sp, FLOAT, trace=trace)
    assert bundle.strategy == "mixed"
    # one lowering sweep over the whole space: one step, 19 -> 20 on interval 0
    assert {(s.kind, s.at, s.n) for s in trace.steps} == {("lower", (0, 19), 1)}
    assert bundle.orders[0].ref.degrees == (20, 20)


def test_one_section_rde_is_the_section_bundle():
    # a degree-0 section too: it has nothing to lower
    for degree in (3, 0):
        sp = MDSpace.create((0.0, 2.0), (1.0,), (degree, degree), (min(degree, 1),))
        bundle = build_matrix_rde(sp, FLOAT)
        assert bundle.strategy == "rde" and bundle.alpha_count == 0
        assert np.array_equal(bundle.matrix, np.eye(sp.dimension))
        assert set(bundle.orders) == {0, 1}


def test_a_seamless_build_carries_orders_0_and_1():
    # no seam reads order 2 or more and the abscissae read order 1, so a
    # degree-300 interval integrates two derivative orders, not 301
    sp = MDSpace.create((0.0, 1.0), (), (300,), ())
    for route in ("rki", "rde", "mixed", "derivative"):
        bundle = build_matrix(sp, route, FLOAT)
        assert set(bundle.orders) == {0, 1}, route
        assert np.array_equal(bundle.matrix, np.eye(301))


def test_rde_builds_degree_zero_sections():
    # rde lowers through degree 0; mixed joins the two sections
    for degrees in ((0, 2), (0, 1)):
        sp = MDSpace.create((0.0, 2.0), (1.0,), degrees, (0,))
        rki = build_matrix_rki(sp, FLOAT)
        for bundle in (build_matrix_rde(sp, FLOAT), build_matrix_mixed(sp, FLOAT)):
            for x in np.linspace(0.0, 2.0, 41):
                assert np.allclose(eval_basis(bundle, x).scatter(), eval_basis(rki, x).scatter(),
                                   rtol=0, atol=1e-15), (degrees, bundle.strategy, x)


@pytest.mark.parametrize("sp", DEGREE_ZERO_SAMPLE, ids=str)
def test_degree_zero_spaces_build_on_every_stable_route(sp):
    # exact rde and mixed bases equal rki at every multiple of 1/7, breakpoints
    # included; float builds stay within criterion 4's two-section budget
    xs = [F(i, 7) for i in range(math.ceil(7 * sp.a), math.floor(7 * sp.b) + 1)]
    rki = build_matrix_rki(sp, EXACT)
    basis = [list(eval_basis(rki, x).scatter()) for x in xs]
    for route in ("rde", "mixed"):
        exact = build_matrix(sp, route, EXACT)
        assert [list(eval_basis(exact, x).scatter()) for x in xs] == basis, route
        assert oracle.matrix_error(build_matrix(sp, route, FLOAT).matrix, exact.matrix) <= 5e-15


def test_a_field_other_than_float_or_exact_is_refused():
    # int would truncate breakpoint 1.5 to 1 and float32 round in the eighth
    # digit: both built a wrong basis without a word
    sp = MDSpace.create((0.0, 3.0), (1.5, 2.0), (3, 2, 3), (2, 1))
    assert np.allclose(eval_basis(build_matrix(sp), 1.7).values,
                       [0.045, 0.53306452, 0.42193548], atol=1e-8, rtol=0)
    for field in (int, np.float32):
        for route in ("rki", "rde", "mixed", "derivative"):
            with pytest.raises(ValueError, match="FLOAT or EXACT"):
                build_matrix(sp, route, field)
        with pytest.raises(ValueError, match="FLOAT or EXACT"):
            eval_c0_basis(sp.associated_c0(), 1.7, field)


def test_dispatcher():
    sp = worked_space()
    assert build_matrix(sp).strategy == "rki"
    assert build_matrix(sp, "rde").strategy == "rde"
    assert build_matrix(sp, "mixed").strategy == "mixed"
    assert build_matrix(sp, "derivative").strategy == "derivative"
    with pytest.raises(ValueError):
        build_matrix(sp, "newton")


def test_routes_share_the_join_order():
    # rki, derivative and mixed on a space it plans as all rki run the same
    # seams in the same order, the C2 seam on the right first
    sp = MDSpace.create((0.0, 4.0), (1.0, 2.0, 3.0), (2, 2, 5, 3), (1, 1, 2))
    assert auto_plan(sp) == ["rki"] * 3
    order = {}
    for route in ("rki", "derivative", "mixed"):
        trace = Trace()
        build_matrix(sp, route, EXACT, trace)
        order[route] = [s.at for s in trace.steps if s.k == 1]
    assert order["rki"] == order["mixed"] == [3.0, 3.0, 2.0]
    assert order["derivative"] == [3.0, 2.0]
    assert build_matrix_derivative(worked_space(), EXACT).matrix.tolist() == FULL_MATRIX


def test_equal_seams_join_as_a_balanced_tree(monkeypatch):
    # 32 sections of degrees 2, 3, 2, .. with C1 seams: joining left first,
    # the first interval would take part in all 31 joins; as a balanced tree
    # no interval takes part in more than log2(32) = 5
    n = 32
    sp = MDSpace.create((0.0, float(n)), tuple(map(float, range(1, n))),
                        (2, 3) * (n // 2), (1,) * (n - 1))
    assert len(sp.section_decomposition().sections) == n
    joins = []
    cr_join = assembler.cr_join

    def counted(left, right, r, **kw):
        joins.append(range(int(left.space.a), int(right.space.b)))
        return cr_join(left, right, r, **kw)

    monkeypatch.setattr(assembler, "cr_join", counted)
    basis = {}
    for route in ("rki", "mixed", "rde"):
        joins.clear()
        bundle = build_matrix(sp, route, EXACT)
        # mixed plans every section on its own here; rde lowers one group
        assert len(joins) == (0 if route == "rde" else n - 1), route
        depth = Counter(j for span in joins for j in span)
        assert max(depth.values(), default=0) <= math.ceil(math.log2(n)), route
        basis[route] = [list(eval_basis(bundle, F(i, 7)).scatter()) for i in range(7 * n + 1)]
    assert basis["rki"] == basis["rde"] and basis["mixed"] == basis["rde"]


def test_alpha_counts_by_strategy():
    sp = worked_space()
    assert build_matrix_rki(sp, FLOAT).alpha_count == 14   # 10 + 4
    rde_n = build_matrix_rde(sp, FLOAT).alpha_count
    mixed_n = build_matrix_mixed(sp, FLOAT).alpha_count
    assert mixed_n <= min(rde_n, 14)


@pytest.mark.parametrize("field", [FLOAT, EXACT])
def test_integrals_are_carried(field):
    # every order of every bundle, and of a sweep that emits every order of
    # its lowering depth, carries the integrals of its basis, step by step:
    # exactly the matrix times the reference integrals in rational
    # arithmetic, within a few roundings in float
    if field is EXACT:
        spaces = [PRESETS[name]() for name in ("cox", "test1", "test2", "test3", "table7")]
    else:
        spaces = [f() for f in PRESETS.values()] + [random_space(s) for s in range(200)]
    checked = 0
    for sp in spaces:
        bundles = {route: build_matrix(sp, route, field) for route in ("rki", "rde", "mixed")}
        bundles["full-depth rde"] = rde_build(sp, field, lowering_depth(sp))
        for route, bundle in bundles.items():
            for rho, od in bundle.orders.items():
                dot = od.matrix.dot(od.integrals0)
                if field is EXACT:
                    assert list(od.integrals) == list(dot), (sp, route, rho)
                else:
                    assert np.all(np.abs(od.integrals - dot) <= 1e-14 * np.abs(dot)), \
                        (sp, route, rho)
                checked += 1
    assert checked > (2000 if field is FLOAT else 50)
