"""Reverse degree elevation: represent a space inside the uniform-degree space
of its maximum degree by lowering one interval degree at a time.

The construction runs on a rectangular family of spaces: row k holds the
(r - k)-th derivative images of the degree-lowering chain, row r the chain
itself. Each lowering step is a bidiagonal row combination whose window sits
over the affected interval; its coefficients follow from the row below by the
same integral ratio recurrence used for continuity-raising joins, which reads
only the integrals of the row below: row k's window starts where row k - 1's
does and ends one row later. So a row carries a matrix only if the build emits
its order, 0..max(top, 1); every other row is a level of one column, its
integrals. r = max(top, 1, maximum degree - 1), so row 0's windows are empty.
Each level is one array, written in place: steps run left to right, and a row
no step has reached only moves up. Rows start as the identity and a step only
merges adjacent rows or drops one, so row i of a level that has lost `gone`
rows lies in columns i .. i + gone: a step combines only those columns of its
rows, and the integral column.
At h = 0 every window is empty: row k's ends at ie = ib - 1 - (r - k) < ib.
"""

from __future__ import annotations

import numpy as np

from ._scalars import FLOAT, eye
from .c0_engine import c0_integrals
from .errors import NumericalInconsistencyError
from .join_core import (Bundle, OrderData, RKICoefficients, Step, Trace,
                        apply_bidiagonal, ratio_coefficients)
from .spaces import MDSpace


def rde_schedule(space: MDSpace) -> list[tuple[int, int]]:
    """Steps (j, h): interval j is lowered to degree h, one unit at a time,
    left to right."""
    m = max(space.degrees)
    return [(j, h) for j, d in enumerate(space.degrees)
            for h in range(m - 1, d - 1, -1)]


def lowering_depth(space: MDSpace, top: int = 1) -> int:
    """Row count r of the lowering rectangle, rows 0..r: enough to emit orders
    0..max(top, 1), and at least the maximum degree minus one, so that row 0
    has empty windows."""
    return max(top, 1, max(space.degrees) - 1)


def level_space(space: MDSpace, degrees, drop: int) -> MDSpace:
    """`space` with these degrees, all orders lowered by `drop`: validated, but
    not converted, since every field already has its type."""
    out = MDSpace(space.a, space.b, space.breakpoints, tuple(d - drop for d in degrees),
                  tuple(k - drop for k in space.continuities), internal=True)
    out.validate()
    return out


def window_start(degrees, continuities, j: int) -> int:
    """First row of a lowering step on interval j, given the post-step degrees:
    the same in every row. The row whose orders are lowered by `drop` ends its
    window at start + degrees[j] - drop - 1, the unclamped count of its basis
    slots starting at or before the interval; an end before the start is an
    empty window."""
    d, ks = degrees, continuities
    return d[0] + 2 - d[j] + sum(d[1:j + 1]) - sum(ks[:j])


def _degenerate(ib_raw: int, ie_raw: int, pre_rows: int) -> RKICoefficients:
    ie = max(ie_raw, 0)
    if ie + 1 > pre_rows or (ib_raw == ie_raw + 1 and ie < 1):
        raise NumericalInconsistencyError("degenerate window out of range")
    return RKICoefficients(ib_raw, ie, (), ())


def _rows(level) -> np.ndarray:
    m, done, gone = level
    return np.concatenate([m[:done], m[done + gone:]])


def _lower(level, co: RKICoefficients):
    """Make the level `co` makes from `level` = [array, done, gone], in place:
    rows < done sit at their own index, later ones `gone` rows down. Return the
    integral column of rows lo..ie+1 (lo as in apply_bidiagonal) and of the rows
    they make, or None twice if the step only drops row ie + 1."""
    m, done, gone = level
    shift = max(co.ib - 1, 1) - 1
    if done > co.ie + 1:
        raise NumericalInconsistencyError(f"lowering step at row {co.ie} after row {done}")
    m[done:co.ie + 1] = m[done + gone:co.ie + 1 + gone]     # rows done..ie to their own index
    level[1:], pre, post = [co.ie, gone + 1], None, None
    if co.ie > shift:
        end = min(co.ie + gone + 1, m.shape[1] - 1)
        rows = np.concatenate([m[shift:co.ie + 1, shift:end], m[shift:co.ie + 1, -1:]], 1)
        out = apply_bidiagonal(rows, co.shifted(-shift))
        pre, post = rows[:, -1], out[:, -1]
        m[shift:co.ie, shift:end], m[shift:co.ie, -1] = out[:, :-1], post
    return pre, post


def rde_build(space: MDSpace, field=FLOAT, top: int = 1,
              trace: Trace | None = None) -> Bundle:
    """Bundle representing `space` over uniform-degree references, with
    derivative orders 0..max(top, 1). Each level carries its basis integrals
    as one extra last column, so that every step updates them with its rows."""
    r, top = lowering_depth(space, top), max(top, 1)

    degrees = [max(space.degrees)] * (space.q + 1)
    refs = {k: level_space(space, degrees, r - k) for k in range(r + 1)}
    in_ref = {k: c0_integrals(refs[k], field) for k in range(r + 1)}

    levels = {}
    for k in range(r + 1):      # one allocation per level, integrals written in place
        n = refs[k].dimension
        m = eye(n, field, n + 1 if r - k <= top else 1)
        m[:, -1] = in_ref[k]
        levels[k] = [m, 0, 0]
    alpha_count = 0

    for n, (j, h) in enumerate(rde_schedule(space), 1):
        degrees[j] = h
        ib = window_start(degrees, space.continuities, j)
        for k in range(r + 1):      # row 0's window is empty: it sets below, pre, post
            ie = ib + h - (r - k) - 1
            if ib > ie:
                co = _degenerate(ib, ie, len(levels[k][0]) - levels[k][2])
            else:
                co = ratio_coefficients(ib, ie, below, pre, post)
                alpha_count += co.nontrivial_count
            if trace is not None and k:
                trace.steps.append(Step("lower", (j, h), n, k, co,
                                        _rows(levels[k])[:, :-1], in_ref[k]))
            pre, post = _lower(levels[k], co)
            below = co

    orders = {}
    for rho in range(top + 1):
        k = r - rho
        sp = space.derivative_space(rho)
        level = _rows(levels[k])
        if level.shape != (sp.dimension, refs[k].dimension + 1):
            raise NumericalInconsistencyError(
                f"order {rho} matrix has shape {level[:, :-1].shape}, expected "
                f"{(sp.dimension, refs[k].dimension)}")
        orders[rho] = OrderData(level[:, :-1], refs[k], in_ref[k], level[:, -1])
    return Bundle(space, orders, field, alpha_count, "rde")
