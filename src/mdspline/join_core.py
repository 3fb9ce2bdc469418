"""Continuity-raising joins built from reverse knot insertion.

A bundle represents one space by matrices over directly evaluable reference
spaces, one matrix per derivative order: row i of the order-rho matrix gives
the coefficients of the i-th basis function of the rho-th derivative space in
the basis of the order-rho reference. Joining two bundles with continuity r
runs a triangular family of reverse knot insertion steps whose coefficients
come from ratios of basis integrals only; no subtraction is ever formed.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dc_field

import numpy as np

from ._scalars import FLOAT, dtype_of, eye, field_of, is_exact, zeros
from .c0_engine import c0_integrals
from .errors import NumericalInconsistencyError, SpaceValidationError, UnsupportedSpaceError
from .spaces import MDSpace

OVERLAP_TOL = 1e-14
PAIR_SUM_TOL = 1e-13


@dataclass(slots=True)
class RKICoefficients:
    """Bidiagonal step coefficients on window ib..ie (1-based, empty if ib > ie).

    Outside the window the step is trivial: alpha(i) = 1 below it and 0 above,
    beta(i) = 0 below and 1 above, so that row i of the combined basis is
    alpha(i) * row i + beta(i+1) * row i+1 of the finer one. Degenerate windows
    encode the two boundary cases of a vanishing function count: ib = ie + 1
    merges rows ie and ie + 1, while ib >= ie + 2 drops row ie + 1 and is
    stored as ib = ie + 2.
    """
    ib: int
    ie: int
    alphas: tuple
    betas: tuple

    def __post_init__(self):
        self.ib = min(self.ib, self.ie + 2)

    def alpha(self, i: int):
        if i <= min(self.ib - 1, self.ie):
            return 1
        if self.ib <= i <= self.ie:
            return self.alphas[i - self.ib]
        return 0

    def beta(self, i: int):
        if i < self.ib:
            return 0
        if self.ib <= i <= self.ie:
            return self.betas[i - self.ib]
        return 1

    def shifted(self, by: int) -> "RKICoefficients":
        """The same step on rows numbered `by` higher."""
        return RKICoefficients(self.ib + by, self.ie + by, self.alphas, self.betas)

    @property
    def window(self) -> tuple[int, int]:
        return (self.ib, self.ie)

    @property
    def nontrivial_count(self) -> int:
        return len(self.alphas)


def apply_bidiagonal(matrix: np.ndarray, co: RKICoefficients) -> np.ndarray:
    """Combine adjacent rows: out[i] = alpha(i) * in[i] + beta(i+1) * in[i+1].

    Only rows lo..ie are combined, where lo is the row before the window
    (clamped to 1): the rows before lo are copied and the rows after ie
    shifted up by one, which drops row ie + 1 when the window is a drop.
    In the exact field a cell forms only the products of its nonzero inputs,
    or keeps its zero: the rows are narrow bands, so most cells are zero. Floats
    keep the numpy broadcast, where a test per cell costs more than a multiply.
    """
    lo, hi, field = max(co.ib - 1, 1), co.ie, field_of(matrix)
    dtype = dtype_of(field)
    out = np.empty((matrix.shape[0] - 1, matrix.shape[1]), dtype=dtype)
    if lo > 1:
        out[:lo - 1] = matrix[:lo - 1]
    if hi < len(out):
        out[hi:] = matrix[hi + 1:]
    if hi >= lo:
        n = hi - lo + 1
        a = np.array(((1,) + co.alphas)[-n:], dtype=dtype)
        b = np.array((co.betas + (1,))[-n:], dtype=dtype)
        if is_exact(field):
            rows = matrix[lo - 1:hi + 1].tolist()
            out[lo - 1:hi] = [[x * u + y * v if u and v else x * u if u else y * v if v else u
                               for u, v in zip(p, q)] for x, y, p, q in zip(a, b, rows, rows[1:])]
        else:
            out[lo - 1:hi] = a[:, None] * matrix[lo - 1:hi] + b[:, None] * matrix[lo:hi + 1]
    return out


def c0_join_integrals(left: np.ndarray, right: np.ndarray) -> np.ndarray:
    """Concatenate integral vectors, summing over the shared seam function."""
    return np.concatenate([left[:-1], [left[-1] + right[0]], right[1:]])


def block_diag(left: np.ndarray, right: np.ndarray) -> np.ndarray:
    la, lb = left.shape
    ra, rb = right.shape
    out = zeros((la + ra, lb + rb), field_of(left))
    out[:la, :lb] = left
    out[la:, lb:] = right
    return out


def join_spaces(left: MDSpace, right: MDSpace, k: int) -> MDSpace:
    """Two valid abutting spaces joined with continuity k at the seam. Only the
    seam is checked, by the rule of `MDSpace.validate`: the public one unless
    an operand is internal. The rest of the descriptor is valid because the
    operands are."""
    if left.b != right.a:
        raise ValueError(f"spaces do not abut: {left.b} vs {right.a}")
    internal = left.internal or right.internal
    dmin = min(left.degrees[-1], right.degrees[0])
    if not (dmin - k >= 0 if internal else 0 <= k <= dmin):
        raise SpaceValidationError(
            f"continuity {k} at the seam {left.b} is inconsistent with degree {dmin}")
    return MDSpace(left.a, right.b, left.breakpoints + (left.b,) + right.breakpoints,
                   left.degrees + right.degrees,
                   left.continuities + (k,) + right.continuities, internal)


@dataclass(frozen=True)
class OrderData:
    """One derivative order rho of a bundle: the basis of the bundle space's
    rho-th derivative space expressed over the directly evaluable `ref` by
    `matrix`; `integrals0` are the ref integrals and `integrals` those of the
    basis, matrix.dot(integrals0), which a build carries step by step."""
    matrix: np.ndarray
    ref: MDSpace
    integrals0: np.ndarray
    integrals: np.ndarray


@dataclass
class Bundle:
    space: MDSpace
    orders: dict[int, OrderData]
    field: object = FLOAT
    alpha_count: int = 0
    strategy: str = "section"

    @property
    def matrix(self) -> np.ndarray:
        return self.orders[0].matrix

    @property
    def ref(self) -> MDSpace:
        return self.orders[0].ref


@dataclass(frozen=True)
class Step:
    """One bidiagonal step of a build.

    kind is "join" (cr_join), "lower" (rde_build) or "legacy" (legacy_join);
    at is the seam x of a join or (j, h) of a lowering; (n, k) place the step
    in the join triangle or the lowering rectangle. The step acts on the level
    `matrix`, whose reference basis has the integrals `integrals0`; the level
    it makes is apply_bidiagonal(matrix, coefficients). Step k = 0 of join row
    n is the C0 gluing: its matrix holds the two operand blocks side by side,
    and its degenerate window merges their seam rows. A lowering step on a row
    whose order the sweep does not emit has a matrix with no columns.
    """
    kind: str
    at: object
    n: int
    k: int
    coefficients: RKICoefficients
    matrix: np.ndarray
    integrals0: np.ndarray


@dataclass
class Trace:
    """Opt-in record of every step of one or more builds, in the order run."""
    steps: list[Step] = dc_field(default_factory=list)


class LazyIntegrals:
    """Per-index integrals of a represented basis: row of M dotted with IN0. The
    builds carry theirs; `perfbench` counts `value` calls as the integral dots."""

    def __init__(self, matrix: np.ndarray, in0: np.ndarray):
        self.matrix = matrix
        self.in0 = in0
        self._cache: dict[int, object] = {}

    def value(self, i: int):
        if i not in self._cache:
            self._cache[i] = self.matrix[i - 1].dot(self.in0)
        return self._cache[i]


def section_bundle(section: MDSpace, field=FLOAT, top: int | None = None) -> Bundle:
    """Identity bundle of a directly evaluable space, orders 0..max(top, 1);
    `top` defaults to the degree, the highest continuity a seam can ask for."""
    if not section.is_directly_evaluable():
        raise UnsupportedSpaceError(f"{section} is not directly evaluable")
    if top is None:
        top = max(section.degrees)
    orders = {}
    for rho in range(max(top, 1) + 1):
        sp = section.derivative_space(rho)
        in0 = c0_integrals(sp, field)
        orders[rho] = OrderData(eye(sp.dimension, field), sp, in0, in0)
    return Bundle(section, orders, field)


def ratio_coefficients(ib: int, ie: int, below: RKICoefficients, pre: np.ndarray,
                       post: np.ndarray) -> RKICoefficients:
    """Coefficients on window ib..ie of the step above `below`, free of subtraction:

        alpha_i = below.alpha(i-1) * pre(i-1) / post(i-1)
        beta_i  = below.beta(i)    * pre(i)   / post(i-1)

    where pre(i) = pre[i - ib + 1] and post(i) = post[i - ib + 1] are the basis
    integrals, from row ib - 1 on, of the levels before and after `below`, in
    the field of `post`. The step contract: `below` acts on ib..ie - 1 and
    ib >= 2, so below.alpha(ib - 1..ie - 1) = (1,) + below.alphas and
    below.beta(ib..ie) = below.betas + (1,). Each pair is checked as it is made.
    """
    if ib < 2 or below.window != (ib, ie - 1):
        raise NumericalInconsistencyError(
            f"window {(ib, ie)} is not above the step below, on {below.window}")
    n = ie - ib + 1
    pres, posts = pre[:n + 1].tolist(), post[:n].tolist()
    if len(pres) != n + 1 or len(posts) != n:
        raise ValueError(f"window size {n} exceeds the integrals: {len(pres)} and {len(posts)}")
    exact = is_exact(field_of(post))
    alphas, betas = [], []
    for a_below, b_below, p, q, den in zip((1,) + below.alphas, below.betas + (1,),
                                           pres, pres[1:], posts):
        if not den > 0:     # zero and negatives in both fields, and NaN in floats
            raise NumericalInconsistencyError(f"basis integral is not positive: {den!r}")
        a, b = a_below * p / den, b_below * q / den
        if exact:
            if a + b != 1:
                raise NumericalInconsistencyError(f"alpha + beta != 1 exactly: {a} + {b}")
            if not (0 < a <= 1 and 0 <= b < 1):
                raise NumericalInconsistencyError(f"coefficient out of range: {a}, {b}")
        else:
            if not (0.0 < a <= 1.0 + 1e-12 and -1e-12 <= b <= 1.0):
                raise NumericalInconsistencyError(f"coefficient out of range: {a}, {b}")
            if abs(a + b - 1.0) > PAIR_SUM_TOL:
                raise NumericalInconsistencyError(f"alpha + beta = {a + b} drifts from 1")
        alphas.append(a)
        betas.append(b)
    return RKICoefficients(ib, ie, tuple(alphas), tuple(betas))


def _glue(lo: OrderData, ro: OrderData, n: int) -> np.ndarray:
    """Rows a - n .. a + n of the C0 gluing of the operands (a left rows), which
    the n steps of join row n combine, with their integrals as a last column.
    The seam corners must agree, exactly in `Fraction`s and to OVERLAP_TOL in
    floats. Bidiagonal steps and gluings keep row i of a level inside columns
    i .. i + (columns - rows), which bounds the block's columns."""
    (a, _), (kr, cr) = lo.matrix.shape, ro.matrix.shape
    left, right = lo.matrix[a - n - 1:, a - n - 1:], ro.matrix[:n + 1, :n + 1 + cr - kr]
    corner_l, corner_r, field = left[-1, -1], right[0, 0], field_of(left)
    if is_exact(field):
        if corner_l != corner_r:
            raise NumericalInconsistencyError("seam entries disagree exactly")
    elif abs(corner_l - corner_r) > OVERLAP_TOL * max(1.0, abs(corner_l)):
        raise NumericalInconsistencyError(
            f"seam entries disagree: {corner_l!r} vs {corner_r!r}")
    (la, lb), (ra, rb) = left.shape, right.shape
    block = zeros((la + ra - 1, lb + rb), field)
    block[:la, :lb] = left
    block[la - 1:, lb - 1:-1] = right
    block[:, -1] = c0_join_integrals(lo.integrals[a - n - 1:], ro.integrals[:n + 1])
    return block


def _join_level(lo: OrderData, ro: OrderData, n: int, block: np.ndarray) -> np.ndarray:
    """The level of join row n whose seam block, after the steps made so far,
    is `block`: the operand rows above it, the block, the shifted rows below."""
    (a, cl), (kr, cr) = lo.matrix.shape, ro.matrix.shape
    top, rows = a - n - 1, block.shape[0]
    out = zeros((top + rows + kr - n - 1, cl + cr - 1), field_of(block))
    out[:top, :cl] = lo.matrix[:top]
    out[top:top + rows, top:top + block.shape[1] - 1] = block[:, :-1]
    out[top + rows:, cl - 1:] = ro.matrix[n + 1:]
    return out


def cr_join(left: Bundle, right: Bundle, r: int, *, trace: Trace | None = None) -> Bundle:
    """Join two bundles with continuity r at the seam left.space.b.

    Requires operand orders 0..max(r, 1). The result carries orders 0..r, or
    0..1 for r = 0 where the order-1 data is the independent block join of the
    operand order-1 data. Row n of the join triangle (order r - n) runs its
    steps on its seam block only; all blocks start after the same `base` rows,
    so steps and the integrals of row n - 1 they read number block rows.
    """
    if left.field is not right.field:
        raise ValueError("operand bundles use different scalar fields")
    seam = left.space.b
    need = max(r, 1)
    for op in (left, right):
        missing = [rho for rho in range(need + 1) if rho not in op.orders]
        if missing:
            raise UnsupportedSpaceError(
                f"operand lacks derivative orders {missing} for a C^{r} join")

    joined = join_spaces(left.space, right.space, r)
    alpha_count = left.alpha_count + right.alpha_count
    base = left.orders[0].matrix.shape[0] - r - 1
    orders = {}
    for n in range(r + 1):
        lo, ro = left.orders[r - n], right.orders[r - n]
        in0 = c0_join_integrals(lo.integrals0, ro.integrals0)
        cos = [RKICoefficients(n + 2, n + 1, (), ())]
        if trace is not None:       # the gluing merges the seam rows of both operands
            trace.steps.append(Step("join", seam, n, 0, cos[0].shifted(base),
                                    block_diag(lo.matrix, ro.matrix),
                                    np.concatenate([lo.integrals0, ro.integrals0])))
        sides = np.concatenate([lo.integrals[base:], ro.integrals[:1]])  # before the gluing
        block = _glue(lo, ro, n)
        ints = [sides, block[:, -1]]
        for k in range(1, n + 1):
            co = ratio_coefficients(n + 2 - k, n + 1, below[k - 1], pre[k - 1][n - k:],
                                    pre[k][n - k:])
            alpha_count += co.nontrivial_count
            cos.append(co)
            if trace is not None:
                trace.steps.append(Step("join", seam, n, k, co.shifted(base),
                                        _join_level(lo, ro, n, block), in0))
            block = apply_bidiagonal(block, co)
            ints.append(block[:, -1])
        orders[r - n] = OrderData(
            _join_level(lo, ro, n, block), join_spaces(lo.ref, ro.ref, 0), in0,
            np.concatenate([lo.integrals[:base], ints[-1], ro.integrals[n + 1:]]))
        below, pre = cos, ints

    if r == 0:
        l1, r1 = left.orders[1], right.orders[1]
        orders[1] = OrderData(block_diag(l1.matrix, r1.matrix),
                              join_spaces(l1.ref, r1.ref, -1),
                              np.concatenate([l1.integrals0, r1.integrals0]),
                              np.concatenate([l1.integrals, r1.integrals]))
    return Bundle(joined, orders, left.field, alpha_count, "rki")
