"""Directly evaluable piecewise spaces: basis values, derivatives, integrals.

A space is directly evaluable when every degree change happens at a breakpoint
with continuity <= 0. Its basis then decomposes into conventional B-splines on
maximal equal-degree runs; a continuity-0 boundary between runs of different
degree glues the last function of the left run and the first of the right run
into a single basis function (one shared slot), a continuity -1 boundary keeps
the runs independent, and a continuity k <= -2 boundary additionally inserts
-k-1 zero-function slots before the functions of the right run. Intervals of
negative degree carry no functions at all. The extended partitions s, t lay
all of this out: the Cox-de Boor window of an interval reads its knots from
them, s to the left of the point and t to the right, which skips the shared
and zero slots of other runs.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from dataclasses import dataclass

import numpy as np

from ._scalars import FLOAT, dtype_of, field_of, zeros
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
        full = zeros(self.size, field_of(self.values))
        full[self.first - 1:self.first - 1 + len(self.values)] = self.values
        return full


def evaluable_partitions(space: MDSpace) -> tuple[tuple[float, ...], tuple[float, ...]]:
    """The extended partitions (s, t) of a directly evaluable space: its slot
    layout and its knots. Slot i is supported on [s_i, t_i], s_i >= t_i marks a
    zero slot, and the window of an interval of degree d >= 0 starts d slots
    before the count of s entries at or before the point (before it, for a
    left limit)."""
    if not space.is_directly_evaluable():
        raise SpaceValidationError(
            f"space {space} has a degree change at positive continuity")
    return space.extended_partitions()


def c0_integrals(space: MDSpace, field=FLOAT) -> np.ndarray:
    """Integral of each basis function: sum of (piece width)/(degree+1) over
    the support pieces. Zero-function slots get 0."""
    xs = space.xs
    pos = {x: i for i, x in enumerate(xs)}
    piece = [(field(xs[i + 1]) - field(xs[i])) / (d + 1) if d >= 0 else None
             for i, d in enumerate(space.degrees)]      # no function on that interval
    out = []
    for a, b in zip(*space.extended_partitions()):
        acc = field(0)
        for i in range(pos[a], pos[b]) if a < b else ():
            acc = acc + piece[i]
        out.append(acc)
    return np.array(out, dtype=dtype_of(field))


def _basis_window(s, t, first, degree, x, field, order=0):
    """Order-th derivatives (values at order 0, at most the degree) of the
    degree+1 B-splines of slots first .. first+degree (1-based): knot
    tau_{span+1-j} is s[first+degree-j] and tau_{span+j} is t[first-2+j].
    x and the knots are lifted into the field, and each level overwrites the
    last: levels up to degree-order run the Cox-de Boor value recurrence, the
    last `order` levels the B-spline derivative formula on the same knot sums."""
    x = field(x)
    zero = field(0)
    vals = [field(1)] + [zero] * degree
    left = [zero] * (degree + 1)
    right = [zero] * (degree + 1)
    for j in range(1, degree + 1):
        left[j] = x - field(s[first + degree - j])
        right[j] = field(t[first - 2 + j]) - x
        saved = zero
        if j <= degree - order:
            for r in range(j):
                rr, ll = right[r + 1], left[j - r]
                temp = vals[r] / (rr + ll)
                vals[r] = saved + rr * temp
                saved = ll * temp
        else:
            for r in range(j):
                temp = j * vals[r] / (right[r + 1] + left[j - r])
                vals[r] = saved - temp
                saved = temp
        vals[j] = saved
    return vals


def _window(space: MDSpace, x, field, partitions, side="right", order=0) -> BasisValues:
    """Order-th derivatives of the basis window at x on the interval to the
    `side` of x; empty on a negative degree, all zero above the degree."""
    s, t = partitions or evaluable_partitions(space)
    if side == "left":
        degree = space.degrees[bisect_left(space.breakpoints, x)]
        count = bisect_left(s, x)
    else:
        degree = space.degrees[space.find_interval(x)]
        count = bisect_right(s, x)
    if degree < 0:
        return BasisValues(1, np.array([], dtype=dtype_of(field)), len(s))
    first = count - degree
    vals = ([field(0)] * (degree + 1) if order > degree
            else _basis_window(s, t, first, degree, x, field, order))
    return BasisValues(first, np.array(vals, dtype=dtype_of(field)), len(s))


def eval_c0_basis(space: MDSpace, x, field=FLOAT, partitions=None) -> BasisValues:
    """Nonzero basis window at x (half-open intervals, closed at b);
    `partitions` are those of `evaluable_partitions(space)`."""
    return _window(space, x, field, partitions)


def eval_c0_derivatives(space: MDSpace, x, side: str, order: int, field=FLOAT,
                        partitions=None) -> BasisValues:
    """One-sided derivative values of the basis window at x; a left limit
    belongs to the interval that ends at x, a right limit at b to the last.
    Orders above the degree are all zero."""
    if side not in ("left", "right"):
        raise ValueError(f"side must be 'left' or 'right', got {side!r}")
    if order < 0:
        raise ValueError(f"derivative order must be >= 0, got {order}")
    if side == "left" and not space.a < x <= space.b:
        raise ValueError(f"no left limit at {x} in [{space.a}, {space.b}]")
    return _window(space, x, field, partitions, side, order)
