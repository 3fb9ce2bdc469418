"""Correctness checks on the outputs of the last timed pass.

Each check compares the program's output with a computation made apart from
the float program, or with a property the method must have; none compares
with a stored copy of earlier output. Every check returns a list of problem
strings, empty when the output passes, so that the self-test can feed each
one a corrupted output and see it fail.
"""

from __future__ import annotations

from fractions import Fraction

import numpy as np

from mdspline import EXACT, assembler, eval_api

ENTRY_TOL = 1e-15         # entries of M lie in [0, 1] within this
COLSUM_TOL = 1e-13        # columns of M sum to 1 within this
AGREE_TOL = 1e-12         # rki, rde and mixed bases agree within this
UNITY_TOL = 1e-13         # basis values at a point sum to 1 within this
EVAL_TOL = 1e-13          # window against M . N0 with N0 from scipy
SPLINE_TOL = 1e-12        # spline value against c . M . N0
PRESET_BUDGET = 5e-14     # float-versus-exact column-sum error, presets
SWEEP_BUDGET = 5e-15      # the same on the table7 continuity sweep
AGREEMENT_POINTS = 33
EXACT_POINTS = 8


# -- reference spaces and dimensions, computed apart from the package ------------

def dimension(degrees, continuities) -> int:
    return degrees[0] + 1 + sum(d - k for d, k in zip(degrees[1:], continuities))


def section_bounds(degrees) -> list[int]:
    """Interval indices where a new equal-degree section starts, plus the end."""
    return [0] + [i for i in range(1, len(degrees)) if degrees[i] != degrees[i - 1]] \
        + [len(degrees)]


def expected_reference(space, route: str):
    """(degrees, continuities) of the C0 reference each route builds over:
    every section joined by reverse knot insertion keeps its own degree, a
    group lowered from its maximum degree keeps that degree throughout, and
    groups meet with continuity 0."""
    bounds = section_bounds(space.degrees)
    n = len(bounds) - 1
    if route == "rki":
        groups = [(h, h) for h in range(n)]
    elif route == "rde":
        groups = [(0, n - 1)]
    else:
        plan = assembler.auto_plan(space)
        groups, lo = [], 0
        for h in range(1, n + 1):
            if h == n or plan[h] != plan[lo] or plan[lo] == "rki":
                groups.append((lo, h - 1))
                lo = h
    degrees = list(space.degrees)
    continuities = list(space.continuities)
    for glo, ghi in groups:
        j0, j1 = bounds[glo], bounds[ghi + 1]
        top = max(space.degrees[j0:j1])
        degrees[j0:j1] = [top] * (j1 - j0)
        if j0 > 0:
            continuities[j0 - 1] = 0
    return tuple(degrees), tuple(continuities)


def c0_runs(degrees, continuities, xs):
    """Equal-degree runs of a C0 reference as (first slot, degree, knots, x0, x1);
    neighbouring runs share one slot, the C0 seam function."""
    runs, slot, j0 = [], 0, 0
    for j1 in range(1, len(degrees) + 1):
        if j1 < len(degrees) and degrees[j1] == degrees[j0]:
            continue
        d = degrees[j0]
        knots = [xs[j0]] * (d + 1)
        for i in range(j0 + 1, j1):
            knots += [xs[i]] * (d - continuities[i - 1])
        knots += [xs[j1]] * (d + 1)
        runs.append((slot, d, np.array(knots), xs[j0], xs[j1]))
        slot += len(knots) - d - 2
        j0 = j1
    return runs


def reference_values(ref, x: float) -> np.ndarray:
    """Full N0 vector of a C0 reference at x, from scipy's B-splines."""
    from scipy.interpolate import BSpline

    runs = c0_runs(ref.degrees, ref.continuities, ref.xs)
    out = np.zeros(dimension(ref.degrees, ref.continuities))
    for slot, d, knots, x0, x1 in runs:
        if x0 <= x < x1 or (x == x1 == ref.b):
            row = BSpline.design_matrix(np.array([x]), knots, d).toarray()[0]
            out[slot:slot + len(row)] = row
            return out
    raise ValueError(f"point {x} outside the reference")


# -- float builds ----------------------------------------------------------------

def shape_problems(label, space, route, bundle) -> list[str]:
    degrees, conts = expected_reference(space, route)
    want = (dimension(space.degrees, space.continuities), dimension(degrees, conts))
    out = []
    if bundle.matrix.shape != want:
        out.append(f"{label}: shape {bundle.matrix.shape}, expected (K, K0) = {want}")
    if (bundle.ref.degrees, bundle.ref.continuities) != (degrees, conts):
        out.append(f"{label}: reference {bundle.ref} is not the expected C0 space")
    return out


def entry_problems(label, matrix) -> list[str]:
    lo, hi = float(np.min(matrix)), float(np.max(matrix))
    if lo < -ENTRY_TOL or hi > 1.0 + ENTRY_TOL:
        return [f"{label}: entries span [{lo!r}, {hi!r}], outside [0, 1]"]
    return []


def colsum_problems(label, matrix) -> list[str]:
    gap = float(np.max(np.abs(np.asarray(matrix, dtype=float).sum(axis=0) - 1.0)))
    if gap > COLSUM_TOL:
        return [f"{label}: column sums miss 1 by {gap:.2e} > {COLSUM_TOL:.0e}"]
    return []


def agreement_problems(label, space, bundles) -> list[str]:
    worst = 0.0
    for x in np.linspace(space.a, space.b, AGREEMENT_POINTS):
        vals = [eval_api.eval_basis(b, float(x)).scatter() for b in bundles.values()]
        worst = max(worst, max(float(np.max(np.abs(v - vals[0]))) for v in vals))
    if worst > AGREE_TOL:
        return [f"{label}: routes {sorted(bundles)} disagree by {worst:.2e} > {AGREE_TOL:.0e}"]
    return []


def midpoint_problems(label, space, bundle) -> list[str]:
    xs = space.xs
    for j, d in enumerate(space.degrees):
        mid = (xs[j] + xs[j + 1]) / 2.0
        nz = int(np.count_nonzero(eval_api.eval_basis(bundle, mid).values))
        if nz != d + 1:
            return [f"{label}: {nz} nonzero values at midpoint {mid} of a degree {d} interval"]
    return []


def check_builds(ops, outs, spaces) -> list[str]:
    by_space: dict[str, dict] = {name: {} for name in spaces}
    for op, out in zip(ops, outs):
        if not isinstance(out, Exception):
            name, route = op.label.rsplit("/", 1)
            by_space[name][route] = out
    problems = []
    for name, bundles in by_space.items():
        space = spaces[name]
        for route, bundle in bundles.items():
            label = f"{name}/{route}"
            problems += guarded(shape_problems, label, space, route, bundle)
            problems += guarded(entry_problems, label, bundle.matrix)
            problems += guarded(colsum_problems, label, bundle.matrix)
            problems += guarded(midpoint_problems, label, space, bundle)
        if len(bundles) > 1:
            problems += guarded(agreement_problems, name, space, bundles)
    return problems


# -- evaluation ------------------------------------------------------------------

def expected_basis(bundle, x) -> np.ndarray:
    return bundle.matrix.dot(reference_values(bundle.ref, x))


def window_problems(label, bundle, x, out) -> list[str]:
    want = expected_basis(bundle, x)
    got = np.zeros_like(want)
    got[out.first - 1:out.first - 1 + len(out.values)] = out.values
    gap = float(np.max(np.abs(got - want)))
    if gap > EVAL_TOL:
        return [f"{label} at x={x!r}: window misses M.N0 by {gap:.2e} > {EVAL_TOL:.0e}"]
    return []


def unity_problems(label, x, out) -> list[str]:
    gap = abs(float(np.sum(out.values)) - 1.0)
    if gap > UNITY_TOL:
        return [f"{label} at x={x!r}: values sum to 1 {gap:+.2e}"]
    return []


def spline_problems(label, bundle, x, coeffs, out) -> list[str]:
    want = float(np.dot(coeffs, expected_basis(bundle, x)))
    if abs(out - want) > SPLINE_TOL:
        return [f"{label} at x={x!r}: spline value {out!r}, c.M.N0 gives {want!r}"]
    return []


def check_evals(cases, outs) -> list[str]:
    problems = []
    for (bundle, x, coeffs), out in zip(cases, outs):
        if isinstance(out, Exception):
            continue
        label = f"{bundle.space}/{bundle.strategy}"
        if coeffs is None:
            problems += guarded(window_problems, label, bundle, x, out)
            problems += guarded(unity_problems, label, x, out)
        else:
            problems += guarded(spline_problems, label, bundle, x, coeffs, out)
    return problems


# -- exact replay ----------------------------------------------------------------

def exact_matrix_problems(label, matrix) -> list[str]:
    out = []
    if any(not 0 <= v <= 1 for v in matrix.ravel()):
        out.append(f"{label}: an exact entry lies outside [0, 1]")
    if any(sum(matrix[:, j]) != 1 for j in range(matrix.shape[1])):
        out.append(f"{label}: an exact column does not sum to 1")
    return out


def budget_problems(label, err, budget) -> list[str]:
    if not err <= budget:
        return [f"{label}: float-versus-exact error {err:.2e} > {budget:.0e}"]
    return []


def exact_agreement_problems(label, space, bundles) -> list[str]:
    a, b = Fraction(space.a), Fraction(space.b)
    for i in range(EXACT_POINTS + 1):
        x = a + (b - a) * Fraction(2 * i + 1, 2 * EXACT_POINTS + 2)
        vals = [list(eval_api.eval_basis(bd, x, EXACT).scatter()) for bd in bundles.values()]
        if any(v != vals[0] for v in vals):
            return [f"{label}: exact bases of {sorted(bundles)} differ at x = {x}"]
    return []


def check_replays(cases, outs) -> list[str]:
    problems = []
    by_space: dict[str, tuple] = {}
    for (name, space, route, budget), out in zip(cases, outs):
        if isinstance(out, Exception):
            continue
        exact, err = out
        label = f"{name}/{route}"
        problems += guarded(exact_matrix_problems, label, exact.matrix)
        problems += guarded(budget_problems, label, err, budget)
        by_space.setdefault(name, (space, {}))[1][route] = exact
    for name, (space, bundles) in by_space.items():
        if len(bundles) > 1:
            problems += guarded(exact_agreement_problems, name, space, bundles)
    return problems


def guarded(check, label, *args) -> list[str]:
    """A check that raises reports the exception as its problem."""
    try:
        return check(label, *args)
    except Exception as exc:   # a crash inside a check is a failed check
        return [f"{label}: {check.__name__} raised {type(exc).__name__}: {exc}"]
