"""Evaluation, abscissae and single knot insertion on top of built bundles."""

from __future__ import annotations

from bisect import bisect_left, bisect_right

import numpy as np

from ._scalars import FLOAT, dtype_of, zeros
from .c0_engine import BasisValues, eval_c0_basis, evaluable_partitions
from .errors import NumericalInconsistencyError, UnsupportedSpaceError
from .join_core import Bundle
from .spaces import MDSpace


def _band(bundle: Bundle) -> tuple[list[int], list[int], int, tuple]:
    """First and last nonzero column (0-based) of each row of the order-0
    matrix, each nondecreasing from row to row, the row count K and the
    partitions of the reference; the first evaluation computes them."""
    cached = getattr(bundle, "_band", None)
    if cached is None:
        nz = bundle.matrix != 0
        if not nz.any(axis=1).all():
            raise NumericalInconsistencyError("the matrix has an all-zero row")
        lo = nz.argmax(axis=1)
        hi = nz.shape[1] - 1 - nz[:, ::-1].argmax(axis=1)
        if (np.diff(lo) < 0).any() or (np.diff(hi) < 0).any():
            raise NumericalInconsistencyError("row bands are not ordered")
        cached = (lo.tolist(), hi.tolist(), len(lo), evaluable_partitions(bundle.ref))
        bundle._band = cached
    return cached


def eval_basis(bundle: Bundle, x, field=None) -> BasisValues:
    """Window of basis values of the represented space at x; the rows meeting
    reference columns c0..c1 are one run, found by bisecting the ordered band.
    A `field` other than the bundle's raises ValueError."""
    if field not in (None, bundle.field):
        raise ValueError(f"field {field!r} is not the bundle's {bundle.field!r}")
    lo, hi, size, parts = _band(bundle)
    ref_vals = eval_c0_basis(bundle.ref, x, bundle.field, parts)
    if len(ref_vals.values) == 0:
        return BasisValues(1, ref_vals.values, size)
    c0 = ref_vals.first - 1
    c1 = ref_vals.last - 1
    r0, r1 = bisect_left(hi, c0), bisect_right(lo, c1)
    if r0 >= r1:
        raise NumericalInconsistencyError(f"no row meets columns {c0}..{c1}")
    vals = bundle.matrix[r0:r1, c0:c1 + 1].dot(ref_vals.values)
    return BasisValues(r0 + 1, vals, size)


def eval_spline(bundle: Bundle, coefficients, x):
    """Spline value at x; only the window's coefficients are read, lifted into
    the bundle's field."""
    if len(coefficients) != len(bundle.matrix):
        raise ValueError(f"expected {len(bundle.matrix)} coefficients")
    w = eval_basis(bundle, x)
    window = [bundle.field(c) for c in coefficients[w.first - 1:w.last]]
    return np.array(window, dtype=dtype_of(bundle.field)).dot(w.values)


def greville(bundle: Bundle) -> np.ndarray:
    """Abscissae xi with xi_1 = a and xi_K = b: successive differences are the
    integrals of the first derivative basis."""
    space = bundle.space
    if min(space.degrees) < 1:
        raise UnsupportedSpaceError(
            "abscissae need every interval degree to be at least 1")
    if 1 not in bundle.orders:
        raise UnsupportedSpaceError("bundle lacks first-derivative data")
    steps = bundle.orders[1].integrals
    field = bundle.field
    out = zeros(space.dimension, field)
    acc = field(space.a)
    out[0] = acc
    for i, dv in enumerate(steps, 1):
        if not dv > 0:
            raise NumericalInconsistencyError(f"abscissa step not positive: {dv!r}")
        acc = acc + dv
        out[i] = acc
    out[-1] = field(space.b)
    return out


def insertion_weights(space: MDSpace, index: int, field=FLOAT) -> tuple[MDSpace, int, list]:
    """The refined space, `space` with the continuity at breakpoint `index`
    lowered by 1, and the first index ib and weights alpha_ib, .., alpha_kl of
    the insertion that takes `space` to it; kl is the dimension of `space` over
    [a, x_index]. The weights come from the two abscissae vectors."""
    from .assembler import build_matrix_rki

    if not 1 <= index <= space.q:
        raise ValueError(f"breakpoint index {index} outside 1..{space.q}")
    refined = MDSpace.create((space.a, space.b), space.breakpoints, space.degrees,
                             [k - (i == index) for i, k in enumerate(space.continuities, 1)])
    xi = greville(build_matrix_rki(space, field))
    xi_hat = greville(build_matrix_rki(refined, field))
    kl = space.restrict(0, index).dimension
    ib = kl - space.continuities[index - 1] + 1
    alphas = []
    for i in range(ib, kl + 1):
        alphas.append((xi_hat[i - 1] - xi[i - 2]) / (xi[i - 1] - xi[i - 2]))
        if not 0 < alphas[-1] <= 1:
            raise NumericalInconsistencyError(f"insertion weight {alphas[-1]!r} out of range")
    return refined, ib, alphas


def insert_knot_coeffs(space: MDSpace, coefficients, index: int,
                       field=FLOAT) -> tuple[MDSpace, np.ndarray]:
    """The refined space of `insertion_weights` and the coefficients of a
    spline of `space` re-expressed in it, lifted into `field`."""
    if len(coefficients) != space.dimension:
        raise ValueError(f"expected {space.dimension} coefficients")
    refined, ib, alphas = insertion_weights(space, index, field)
    coefficients = [field(c) for c in coefficients]

    ie = ib + len(alphas) - 1
    out = np.empty(refined.dimension, dtype=dtype_of(field))
    out[:ib - 1] = coefficients[:ib - 1]
    for i, alpha in enumerate(alphas, ib):
        out[i - 1] = alpha * coefficients[i - 1] + (1 - alpha) * coefficients[i - 2]
    out[ie:] = coefficients[ie - 1:]
    return refined, out
