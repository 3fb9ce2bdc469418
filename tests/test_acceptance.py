"""Acceptance suite: eight criteria, one printed verdict line each.

Run `pytest tests/test_acceptance.py -v -s` to see the verdict lines. Exact
golden fractions are hand-checked; the double-precision bounds are the
promised error budgets of the stable construction. Criterion 5 asserts an
order of magnitude only because the legacy route's roundoff varies with the
platform.
"""

import time
from fractions import Fraction as F

import numpy as np

from conftest import join_levels, random_space
from mdspline import (EXACT, FLOAT, MDSpace, Trace, build_matrix, build_matrix_derivative,
                      build_matrix_rki, cr_join, eval_basis, eval_spline, greville,
                      insert_knot_coeffs, oracle, section_bundle)
from mdspline.presets import PRESETS, TABLE7_RANGE, preset_space, table7

_EXACT = {}


def exact_rki(name):
    if name not in _EXACT:
        _EXACT[name] = oracle.exact_bundle(preset_space(name))
    return _EXACT[name]


def _report(num, label, ok, detail):
    print(f"criterion {num} ({label}): {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"criterion {num} ({label}): {detail}"


# full matrices of the order-2 and order-3 levels of the hand-worked join
M22 = [[1, 0, 0, 0, 0, 0],
       [0, 1, F(5, 8), F(3, 8), 0, 0],
       [0, 0, F(3, 8), F(27, 56), F(9, 14), 0],
       [0, 0, 0, F(1, 7), F(5, 14), 1]]
M33 = [[1, 0, 0, 0, 0, 0, 0, 0],
       [0, 1, F(3, 5), F(7, 20), F(1, 5), 0, 0, 0],
       [0, 0, F(2, 5), F(27, 55), F(24, 55), F(4, 11), 0, 0],
       [0, 0, 0, F(7, 44), F(49, 165), F(238, 495), F(28, 45), 0],
       [0, 0, 0, 0, F(1, 15), F(7, 45), F(17, 45), 1]]


def worked_join(field):
    left = section_bundle(MDSpace.create((2.0, 3.0), (), (4,), ()), field)
    right = section_bundle(MDSpace.create((3.0, 4.0), (), (3,), ()), field)
    trace = Trace()
    return cr_join(left, right, 3, trace=trace), trace


def test_criterion_1_exact_join_goldens():
    t0 = time.perf_counter()
    exact, trace = worked_join(EXACT)
    cells = {}
    for s in trace.steps:
        ib = s.coefficients.window[0]
        if s.k:     # k = 0 is the C0 gluing, which computes no coefficient
            cells[(s.n, s.k)] = {ib + o: a for o, a in enumerate(s.coefficients.alphas)}
    ok = (cells[(1, 1)][3] == F(1, 3) and cells[(2, 1)][4] == F(2, 5)
          and cells[(2, 2)][3] == F(3, 8) and cells[(2, 2)][4] == F(5, 14))

    levels = join_levels(trace)

    def iv(n, k):       # the basis integrals of the level cell (n, k) makes
        return list(levels[(n, k)][1])

    ok = ok and iv(1, 1) == [F(1, 3), F(8, 9), F(7, 9)]
    ok = ok and iv(2, 2) == [F(1, 4), F(5, 8), F(33, 56), F(15, 28)]
    ok = ok and levels[(2, 2)][0].tolist() == M22
    ok = ok and levels[(3, 3)][0].tolist() == M33
    dbl, _ = worked_join(FLOAT)
    gap = np.abs(dbl.matrix - np.array(exact.matrix, dtype=float)).max()
    ok = ok and gap <= 1e-15
    dt = time.perf_counter() - t0
    ok = ok and dt < 1.0
    _report(1, "exact join golden fractions", ok,
            f"max double gap {gap:.2e} <= 1e-15, {dt:.2f}s < 1s")


# N_22 of the single-degree smooth benchmark at breakpoints 1..11 (frozen from
# the exact replay; values at 12..21 mirror by symmetry)
COX_N22 = {
    1: 1.9572941063391263e-20,
    2: 4.1047001892269712e-14,
    3: 2.0383683775099102e-10,
    4: 8.1587909794275967e-08,
    5: 7.4865177795402406e-06,
    6: 2.4361242466133237e-04,
    7: 3.5111077726313264e-03,
    8: 2.5451983263662735e-02,
    9: 1.0019429073492722e-01,
    10: 2.2428009387883274e-01,
    11: 2.9262268723143470e-01,
}


def test_criterion_2_single_degree_smooth_values():
    t0 = time.perf_counter()
    space = preset_space("cox")
    bundle = build_matrix_rki(space, FLOAT)
    exact = exact_rki("cox")
    worst_rel = worst_print = 0.0
    for x in space.breakpoints:
        val = eval_basis(bundle, x).scatter()[21]
        ref = oracle.eval_exact(exact, x)[21]
        worst_rel = max(worst_rel, oracle.value_error(val, ref)[1])
        frozen = COX_N22[min(int(x), 22 - int(x))]
        worst_print = max(worst_print, abs(val - frozen) / frozen)
    dt = time.perf_counter() - t0
    ok = worst_rel <= 5e-15 and worst_print <= 5e-14 and dt < 5.0
    _report(2, "single-degree smooth space values", ok,
            f"worst rel err {worst_rel:.2e} <= 5e-15, "
            f"worst frozen gap {worst_print:.2e} <= 5e-14, {dt:.2f}s < 5s")


# highlighted function values at interior breakpoints, frozen from the exact
# replay: N_5 of test1, N_4 of test2, N_9 of test3
BENCH_VALUES = {
    "test1": (5, {
        -9999.0: 4.500275008083014e-09,
        0.0: 5.000083333610773e-01,
        9999.0: 4.500275008083015e-09,
    }),
    "test2": (4, {
        -9999.0: 2.499250262410031e-12,
        0.0: 3.750749868799358e-01,
        9999.0: 2.499250262410030e-12,
    }),
    "test3": (9, {
        2.0: 2.912087112938504e-13,
        4.0: 1.275774160308294e-09,
        8.0: 4.806036147184862e-07,
        16.0: 5.258129295850228e-05,
        32.0: 2.147713272383253e-03,
        64.0: 3.541058939374863e-02,
        128.0: 2.206016671195212e-01,
        256.0: 3.592347216925473e-01,
        512.0: 4.466585515804859e-02,
    }),
}


def test_criterion_3_benchmark_highlighted_values():
    worst_rel = worst_print = 0.0
    for name, (fn, table) in BENCH_VALUES.items():
        bundle = build_matrix_rki(preset_space(name), FLOAT)
        exact = exact_rki(name)
        for x, frozen in table.items():
            val = eval_basis(bundle, x).scatter()[fn - 1]
            ref = oracle.eval_exact(exact, x)[fn - 1]
            worst_rel = max(worst_rel, oracle.value_error(val, ref)[1])
            worst_print = max(worst_print, abs(val - frozen) / frozen)
    ok = worst_rel <= 5e-15 and worst_print <= 5e-14
    _report(3, "benchmark highlighted values", ok,
            f"worst rel err {worst_rel:.2e} <= 5e-15, "
            f"worst frozen gap {worst_print:.2e} <= 5e-14")


def test_criterion_4_matrix_error_bounds():
    worst6 = 0.0
    for name in ("test1", "test2", "test3", "test4", "test5", "test6"):
        bundle = build_matrix_rki(preset_space(name), FLOAT)
        err = oracle.matrix_error(bundle.matrix, exact_rki(name).matrix)
        worst6 = max(worst6, err)
    worst7 = 0.0
    for k1 in TABLE7_RANGE:
        space = table7(k1)
        bundle = build_matrix_rki(space, FLOAT)
        exact = oracle.exact_bundle(space)
        worst7 = max(worst7, oracle.matrix_error(bundle.matrix, exact.matrix))
    ok = worst6 <= 5e-14 and worst7 <= 5e-15
    _report(4, "matrix error bounds", ok,
            f"six benchmarks worst {worst6:.2e} <= 5e-14, "
            f"two-section sweep worst {worst7:.2e} <= 5e-15")


def test_criterion_5_legacy_instability_margin():
    ratios = {}
    for name in ("test1", "test5", "test6"):
        space = preset_space(name)
        exact = exact_rki(name).matrix
        stable = oracle.matrix_error(build_matrix_rki(space, FLOAT).matrix, exact)
        legacy = oracle.matrix_error(build_matrix_derivative(space).matrix, exact)
        ratios[name] = legacy / stable
    ok = all(r >= 1e3 for r in ratios.values())
    detail = ", ".join(f"{n} x{r:.1e}" for n, r in ratios.items())
    _report(5, "legacy instability margin", ok, f"{detail}, all >= 1e3")


def test_criterion_6_property_suite():
    spaces = [preset_space(name) for name in PRESETS]
    spaces += [random_space(seed) for seed in range(200)]
    worst = {"pou": 0.0, "colsum": 0.0, "low": 0.0, "high": 0.0,
             "agree": 0.0, "round": 0.0}
    greville_ok = counts_ok = True
    for space in spaces:
        bundle = build_matrix(space, "rki")
        m = np.array(bundle.matrix, dtype=float)
        worst["colsum"] = max(worst["colsum"], np.abs(m.sum(axis=0) - 1.0).max())
        worst["low"] = max(worst["low"], -m.min())
        worst["high"] = max(worst["high"], m.max() - 1.0)
        for x in np.linspace(space.a, space.b, 1000):
            s = eval_basis(bundle, x).scatter().sum()
            worst["pou"] = max(worst["pou"], abs(s - 1.0))
        bounds = (space.a,) + space.breakpoints + (space.b,)
        for j, d in enumerate(space.degrees):
            mid = (bounds[j] + bounds[j + 1]) / 2.0
            vec = eval_basis(bundle, mid).scatter()
            counts_ok = counts_ok and np.count_nonzero(vec) == d + 1
        xi = greville(bundle)
        greville_ok = (greville_ok and xi[0] == space.a and xi[-1] == space.b
                       and all(u < v for u, v in zip(xi, xi[1:])))
        others = [build_matrix(space, s) for s in ("rde", "mixed")]
        for x in np.linspace(space.a, space.b, 33):
            ref = eval_basis(bundle, x).scatter()
            for other in others:
                gap = np.abs(eval_basis(other, x).scatter() - ref).max()
                worst["agree"] = max(worst["agree"], gap)
        seams = [i for i, k in enumerate(space.continuities, start=1) if k >= 1]
        if seams:
            i = seams[0]
            rng = np.random.default_rng(space.dimension)
            coeffs = rng.uniform(-1.0, 1.0, space.dimension)
            hat, hat_coeffs = insert_knot_coeffs(space, coeffs, i, FLOAT)
            hat_bundle = build_matrix(hat, "rki")
            for x in np.linspace(space.a, space.b, 31):
                f = eval_spline(bundle, coeffs, x)
                g = eval_spline(hat_bundle, hat_coeffs, x)
                worst["round"] = max(worst["round"],
                                     abs(g - f) / max(1.0, abs(f)))
    ok = (worst["pou"] <= 1e-13 and worst["colsum"] <= 1e-13
          and worst["low"] <= 1e-15 and worst["high"] <= 1e-15
          and worst["agree"] <= 1e-12 and worst["round"] <= 1e-13
          and greville_ok and counts_ok)
    _report(6, "property suite", ok,
            f"{len(spaces)} spaces: pou {worst['pou']:.1e} <= 1e-13, "
            f"colsum {worst['colsum']:.1e} <= 1e-13, "
            f"entries in [-{max(worst['low'], 0):.1e}, 1+{max(worst['high'], 0):.1e}], "
            f"strategy gap {worst['agree']:.1e} <= 1e-12, "
            f"insertion round trip {worst['round']:.1e} <= 1e-13, "
            f"abscissae {'ok' if greville_ok else 'BAD'}, "
            f"window counts {'ok' if counts_ok else 'BAD'}")


def test_criterion_7_oracle_formula_crosschecks():
    try:
        abscissa_cells = sum(oracle.greville_crosscheck(preset_space(name))
                             for name in PRESETS)
        worked = MDSpace.create((0.0, 4.0), (1.0, 2.0, 3.0), (2, 2, 4, 3),
                                (1, 2, 3))
        derivative_cells = sum(
            oracle.derivative_formula_crosscheck(sp)
            for sp in (worked, preset_space("test1"), preset_space("test2"),
                       table7(7)))
        cubic = MDSpace.create((0.0, 2.0), (1.0,), (3, 3), (2,))
        quad = MDSpace.create((0.0, 3.0), (1.0, 2.0), (2, 2, 2), (1, 1))
        boehm_weights = oracle.boehm_crosscheck(cubic, 1)
        boehm_weights += sum(oracle.boehm_crosscheck(quad, i) for i in (1, 2))
        ok = abscissa_cells > 0 and derivative_cells > 0 and boehm_weights > 0
        detail = (f"abscissa formula {abscissa_cells} cells, derivative route "
                  f"{derivative_cells} cells, insertion weights {boehm_weights}, "
                  f"all exactly equal")
    except Exception as exc:
        ok, detail = False, str(exc)
    _report(7, "oracle formula crosschecks", ok, detail)


def test_criterion_8_join_coefficient_count():
    ok = True
    for r in range(1, 11):
        space = MDSpace.create((0.0, 2.0), (1.0,), (r + 1, r), (r,))
        bundle = build_matrix_rki(space, FLOAT)
        ok = ok and bundle.alpha_count == r * (r + 1) * (r + 2) // 6
    _report(8, "join coefficient count", ok,
            "r(r+1)(r+2)/6 coefficients per join, exact for r = 1..10")
