"""Derivative-jump route to the join coefficients, kept for error comparison.

The stable construction never subtracts; this older formulation obtains each
continuity-raising coefficient from one-sided derivative jumps of the current
basis at the seam, which cancel catastrophically as the derivative order
grows. `legacy_join` has the signature of `cr_join`, so the one assembler runs
it as the "derivative" route on the same groups, and both routes can be run on
identical spaces and their algorithmic errors compared.
"""

from __future__ import annotations

import numpy as np

from ._scalars import field_of
from .c0_engine import eval_c0_derivatives, evaluable_partitions
from .errors import NumericalInconsistencyError
from .join_core import (Bundle, OrderData, RKICoefficients, Step, Trace, _glue,
                        _join_level, apply_bidiagonal, c0_join_integrals, join_spaces)
from .spaces import MDSpace


def alpha_via_derivatives(matrix: np.ndarray, ref: MDSpace, seam: float, k: int,
                          ib: int, ie: int) -> RKICoefficients:
    """Coefficients of the step that raises the seam from C^{k-1} to C^k, from
    order-k derivative jumps of the current basis rows at the seam."""
    parts, field = evaluable_partitions(ref), field_of(matrix)
    x = field(seam)
    left = eval_c0_derivatives(ref, x, "left", k, field, parts)
    right = eval_c0_derivatives(ref, x, "right", k, field, parts)
    jumps = [matrix[i - 1][left.first - 1:left.last].dot(left.values) -
             matrix[i - 1][right.first - 1:right.last].dot(right.values)
             for i in range(ib - 1, ie + 1)]
    alphas, betas, prev = [], [], 1
    for i, jump_lo, jump_hi in zip(range(ib, ie + 1), jumps, jumps[1:]):
        if jump_hi == 0:
            raise NumericalInconsistencyError(
                f"derivative jump of function {i} vanishes at {seam}")
        alpha = 1 + prev * jump_lo / jump_hi
        alphas.append(alpha)
        betas.append(1 - alpha)
        prev = alpha
    # No range validation: cancellation in the jumps is this route's known
    # failure mode and must surface in the result, not as an exception.
    return RKICoefficients(ib, ie, tuple(alphas), tuple(betas))


@np.errstate(over="ignore", invalid="ignore")     # a matrix that is not finite raises
def legacy_join(left: Bundle, right: Bundle, r: int, *, trace: Trace | None = None) -> Bundle:
    """Join two order-0 bundles with continuity r, one seam derivative order
    at a time. Step k is recorded as cell (r, k) of a join triangle: the
    bottom-row cell of cr_join that computes the same coefficients."""
    if left.field is not right.field:
        raise ValueError("operand bundles use different scalar fields")
    l0, r0 = left.orders[0], right.orders[0]
    seam = left.space.b
    kl = l0.matrix.shape[0]
    matrix = _join_level(l0, r0, 0, _glue(l0, r0, 0))
    ref = join_spaces(l0.ref, r0.ref, 0)
    in0 = c0_join_integrals(l0.integrals0, r0.integrals0)
    for k in range(1, r + 1):
        co = alpha_via_derivatives(matrix, ref, seam, k, kl - k + 1, kl)
        if trace is not None:
            trace.steps.append(Step("legacy", seam, r, k, co, matrix, in0))
        matrix = apply_bidiagonal(matrix, co)
    if not (abs(matrix) < np.inf).all():
        raise NumericalInconsistencyError(f"derivative jumps at {seam} overflow a double")
    joined = join_spaces(left.space, right.space, r)
    orders = {0: OrderData(matrix, ref, in0, matrix.dot(in0))}
    count = left.alpha_count + right.alpha_count + r
    return Bundle(joined, orders, left.field, count, "derivative")
