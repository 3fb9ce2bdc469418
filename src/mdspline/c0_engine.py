"""Directly evaluable piecewise spaces: slot layout, basis values, integrals.

A space is directly evaluable when every degree change happens at a breakpoint
with continuity <= 0. Its basis then decomposes into conventional B-splines on
maximal equal-degree runs; a continuity-0 boundary between runs of different
degree glues the last function of the left run and the first of the right run
into a single basis function (one shared slot), a continuity -1 boundary keeps
the runs independent, and a continuity k <= -2 boundary additionally inserts
-k-1 zero-function slots before the functions of the right run. Intervals of
negative degree carry no functions at all.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from ._scalars import FLOAT, dtype_of, is_exact
from .errors import SpaceValidationError
from .spaces import MDSpace


@dataclass(frozen=True)
class BasisValues:
    """Contiguous window of basis values: entries first .. first+len-1 (1-based)."""
    first: int
    values: np.ndarray
    size: int

    @property
    def last(self) -> int:
        return self.first + len(self.values) - 1

    def scatter(self):
        full = np.zeros(self.size) if self.values.dtype != object else \
            np.array([Fraction(0)] * self.size, dtype=object)
        full[self.first - 1:self.first - 1 + len(self.values)] = self.values
        return full


@dataclass(frozen=True)
class Run:
    degree: int
    knots: tuple[float, ...]
    first_slot: int          # global slot (1-based) of the run's first function
    n_fns: int
    j0: int                  # first interval index covered
    j1: int                  # one past the last interval index


@dataclass(frozen=True)
class SlotLayout:
    space: MDSpace
    runs: tuple[Run, ...]
    run_of_interval: tuple[int | None, ...]   # per interval; None on gaps
    zero_slots: frozenset[int]
    dimension: int


def build_layout(space: MDSpace) -> SlotLayout:
    if not space.is_directly_evaluable():
        raise SpaceValidationError(
            f"space {space} has a degree change at positive continuity")
    xs, d, ks = space.xs, space.degrees, space.continuities
    q = space.q

    # Group intervals into runs separated at continuity <= -1 boundaries,
    # at gaps, and at degree changes (those happen at continuity 0 here).
    pieces: list[tuple[int, int]] = []        # (j0, j1) interval ranges, gaps too
    j0 = 0
    for i in range(1, q + 1):
        same_run = (d[i - 1] == d[i] and d[i] >= 0 and ks[i - 1] >= 0)
        if not same_run:
            pieces.append((j0, i))
            j0 = i
    pieces.append((j0, q + 1))

    entries: list[tuple] = []                 # ('z',) or ('f', run_id, local)
    runs: list[Run] = []
    run_of_interval: list[int | None] = [None] * (q + 1)
    pending_merge = False
    for (p0, p1) in pieces:
        deg = d[p0]
        if deg < 0:
            pending_merge = False
        else:
            interior = [xs[i] for i in range(p0 + 1, p1)]
            mults = [deg - ks[i - 1] for i in range(p0 + 1, p1)]
            knots = [xs[p0]] * (deg + 1)
            for x, mlt in zip(interior, mults):
                knots.extend([x] * mlt)
            knots.extend([xs[p1]] * (deg + 1))
            n_fns = len(knots) - deg - 1
            if pending_merge:
                first_slot = len(entries)     # share the previous entry
                start_local = 1
            else:
                first_slot = len(entries) + 1
                start_local = 0
            rid = len(runs)
            runs.append(Run(deg, tuple(knots), first_slot, n_fns, p0, p1))
            for j in range(p0, p1):
                run_of_interval[j] = rid
            for local in range(start_local, n_fns):
                entries.append(('f', rid, local))
            pending_merge = False
        if p1 <= q:
            k = ks[p1 - 1]
            if k == 0:
                pending_merge = True
            else:
                pending_merge = False
                entries.extend([('z',)] * (-k - 1))

    head = max(0, -(d[0] + 1))
    tail = max(0, -(d[-1] + 1))
    if any(e[0] != 'z' for e in entries[:head]) or \
       (tail and any(e[0] != 'z' for e in entries[len(entries) - tail:])):
        raise SpaceValidationError(f"slot deficit not covered by zero slots in {space}")
    entries = entries[head:len(entries) - tail if tail else len(entries)]
    if head:
        runs = [Run(r.degree, r.knots, r.first_slot - head, r.n_fns, r.j0, r.j1)
                for r in runs]

    zero_slots = frozenset(i + 1 for i, e in enumerate(entries) if e[0] == 'z')
    layout = SlotLayout(space, tuple(runs), tuple(run_of_interval), zero_slots, len(entries))

    s, t = space.extended_partitions()
    expected_zero = frozenset(i + 1 for i in range(len(s)) if s[i] >= t[i])
    if len(entries) != space.dimension or zero_slots != expected_zero:
        raise SpaceValidationError(f"slot layout inconsistent for {space}")
    return layout


def c0_integrals(space: MDSpace, field=FLOAT) -> np.ndarray:
    """Integral of each basis function: sum of (piece width)/(degree+1) over
    the support pieces. Zero-function slots get 0."""
    xs, conv = space.xs, Fraction if is_exact(field) else float
    pos = {x: i for i, x in enumerate(xs)}
    piece = [(conv(xs[i + 1]) - conv(xs[i])) / (d + 1) if d >= 0 else None
             for i, d in enumerate(space.degrees)]      # no function on that interval
    out = []
    for a, b in zip(*space.extended_partitions()):
        acc = field(0)
        for i in range(pos[a], pos[b]) if a < b else ():
            acc = acc + piece[i]
        out.append(acc)
    return np.array(out, dtype=dtype_of(field))


def _basis_window(knots, degree, span, x, field):
    """Values of the degree+1 B-splines that are nonzero on knot span `span`;
    knots are lifted into the field as read, and each level overwrites the last."""
    zero = field(0)
    vals = [field(1)] + [zero] * degree
    left = [zero] * (degree + 1)
    right = [zero] * (degree + 1)
    for j in range(1, degree + 1):
        left[j] = x - field(knots[span + 1 - j])
        right[j] = field(knots[span + j]) - x
        saved = zero
        for r in range(j):
            rr, ll = right[r + 1], left[j - r]
            temp = vals[r] / (rr + ll)
            vals[r] = saved + rr * temp
            saved = ll * temp
        vals[j] = saved
    return vals


def _ders_window(knots, degree, span, x, order, field):
    """Order-th derivative values of the window B-splines (one-sided at knots
    through the choice of span). Orders above the degree are all zero."""
    if order > degree:
        return [field(0)] * (degree + 1)
    ndu = [[field(0)] * (degree + 1) for _ in range(degree + 1)]
    ndu[0][0] = field(1)
    left = [field(0)] * (degree + 1)
    right = [field(0)] * (degree + 1)
    for j in range(1, degree + 1):
        left[j] = x - field(knots[span + 1 - j])
        right[j] = field(knots[span + j]) - x
        saved = field(0)
        for r in range(j):
            ndu[j][r] = right[r + 1] + left[j - r]
            temp = ndu[r][j - 1] / ndu[j][r]
            ndu[r][j] = saved + right[r + 1] * temp
            saved = left[j - r] * temp
        ndu[j][j] = saved
    if order == 0:
        return [ndu[r][degree] for r in range(degree + 1)]
    out = [field(0)] * (degree + 1)
    for r in range(degree + 1):
        a = [[field(0)] * (order + 1) for _ in range(2)]
        a[0][0] = field(1)
        s1, s2 = 0, 1
        dval = field(0)
        for k in range(1, order + 1):
            dval = field(0)
            rk, pk = r - k, degree - k
            if r >= k:
                a[s2][0] = a[s1][0] / ndu[pk + 1][rk]
                dval = a[s2][0] * ndu[rk][pk]
            j1 = 1 if rk >= -1 else -rk
            j2 = k - 1 if r - 1 <= pk else degree - r
            for j in range(j1, j2 + 1):
                a[s2][j] = (a[s1][j] - a[s1][j - 1]) / ndu[pk + 1][rk + j]
                dval = dval + a[s2][j] * ndu[rk + j][pk]
            if r <= pk:
                a[s2][k] = -a[s1][k - 1] / ndu[pk + 1][r]
                dval = dval + a[s2][k] * ndu[r][pk]
            s1, s2 = s2, s1
        factor = field(1)
        for k in range(degree, degree - order, -1):
            factor = factor * k
        out[r] = dval * factor
    return out


def _find_span(knots, degree, x, side_left=False):
    span = (bisect_left if side_left else bisect_right)(knots, x) - 1
    return min(max(span, degree), len(knots) - degree - 2)


def eval_c0_basis(space: MDSpace, x, field=FLOAT, layout: SlotLayout | None = None
                  ) -> BasisValues:
    """Nonzero basis window at x (half-open intervals, closed at b)."""
    layout = layout or build_layout(space)
    j = space.find_interval(float(x))
    rid = layout.run_of_interval[j]
    if rid is None:
        return BasisValues(1, np.array([], dtype=dtype_of(field)), layout.dimension)
    run = layout.runs[rid]
    span = _find_span(run.knots, run.degree, x)
    vals = _basis_window(run.knots, run.degree, span, x, field)
    first = run.first_slot + span - run.degree
    return BasisValues(first, np.array(vals, dtype=dtype_of(field)), layout.dimension)


def eval_c0_derivatives(space: MDSpace, x, side: str, order: int, field=FLOAT,
                        layout: SlotLayout | None = None) -> BasisValues:
    """One-sided derivative values of the basis window at x."""
    if side not in ("left", "right"):
        raise ValueError(f"side must be 'left' or 'right', got {side!r}")
    layout = layout or build_layout(space)
    xf = float(x)
    if side == "left" or xf == space.b:
        if not space.a < xf <= space.b:
            raise ValueError(f"no left limit at {x} in [{space.a}, {space.b}]")
        j = space.q if xf == space.b else bisect_left(space.breakpoints, xf)
    else:
        j = space.find_interval(xf)
    rid = layout.run_of_interval[j]
    if rid is None:
        return BasisValues(1, np.array([], dtype=dtype_of(field)), layout.dimension)
    run = layout.runs[rid]
    span = _find_span(run.knots, run.degree, x, side_left=(side == "left"))
    vals = _ders_window(run.knots, run.degree, span, x, order, field)
    first = run.first_slot + span - run.degree
    return BasisValues(first, np.array(vals, dtype=dtype_of(field)), layout.dimension)
