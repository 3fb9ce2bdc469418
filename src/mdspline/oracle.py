"""Exact rational replay of every construction, plus error measures.

All kernels are written over a generic scalar field, so running them with
Fraction scalars gives bit-exact references: the only rounding in a reported
error is the final conversion of an exact difference to a double. Three
identities that must hold exactly in rational arithmetic double as algorithm
cross-checks: the integral-ratio coefficients against the abscissa-difference
quotients, the same coefficients against the derivative-jump route, and, on
conventional spaces, against the classical single-knot insertion weights. The
first two read the steps of exact builds, with their integrals, from a `Trace`.
"""

from __future__ import annotations

from fractions import Fraction

import numpy as np

from ._scalars import EXACT
from .assembler import DERIVATIVE, RKI, build_matrix, build_matrix_rki
from .errors import NumericalInconsistencyError
from .eval_api import eval_basis, insertion_weights
from .join_core import Bundle, Trace, apply_bidiagonal
from .spaces import MDSpace


def exact_bundle(space: MDSpace, builder=build_matrix_rki) -> Bundle:
    return builder(space, EXACT)


def matrix_error(computed: np.ndarray, exact: np.ndarray) -> float:
    """Largest column sum of absolute entry differences, exactly accumulated
    and rounded once. Cells zero in both matrices add nothing and are skipped."""
    if computed.shape != exact.shape:
        raise ValueError(f"shape mismatch: {computed.shape} vs {exact.shape}")
    cols = {}
    for i, j in zip(*np.nonzero((computed != 0) | (exact != 0))):
        cols[j] = cols.get(j, 0) + abs(Fraction(computed[i, j]) - exact[i, j])
    return float(max(cols.values(), default=0))


def value_error(computed: float, exact: Fraction) -> tuple[float, float]:
    """(absolute, relative) error; the relative part falls back to absolute
    when the exact value is zero."""
    diff = abs(Fraction(computed) - exact)
    if exact == 0:
        return float(diff), float(diff)
    return float(diff), float(diff / abs(exact))


def eval_exact(bundle: Bundle, x) -> np.ndarray:
    """Exact full basis vector at x (bundle must be rational)."""
    w = eval_basis(bundle, Fraction(x), EXACT)
    return w.scatter()


def _prefix_abscissae(integrals) -> list[Fraction]:
    out = [Fraction(0)]
    for v in integrals:
        out.append(out[-1] + v)
    return out


def _join_steps(trace: Trace, kind: str = "join") -> dict:
    return {(s.at, s.n, s.k): s for s in trace.steps if s.kind == kind}


def abscissa_crosscheck(trace: Trace) -> int:
    """Verify every join coefficient of an exact build against the
    abscissa-difference formula.

    Cell (n, k) of a join reads the abscissae before and after step
    (n - 1, k - 1) of the same join: prefix sums of the integrals that step
    carries and of those it makes. Before step (n - 1, 0), the C0 gluing, the
    operand blocks still stand side by side. The abscissae start at 0, which
    cancels in the formula. Exact equality or raise.
    """
    steps = _join_steps(trace)
    checked = 0
    for (x, n, k), step in steps.items():
        if k == 0:
            continue
        below = steps[(x, n - 1, k - 1)]
        post = apply_bidiagonal(below.integrals[:, None], below.coefficients)[:, 0]
        xi_hat, xi = _prefix_abscissae(below.integrals), _prefix_abscissae(post)
        co = step.coefficients
        for i in range(co.ib, co.ie + 1):
            expected = (xi_hat[i - 1] - xi[i - 2]) / (xi[i - 1] - xi[i - 2])
            if co.alpha(i) != expected:
                raise NumericalInconsistencyError(
                    f"seam {x} cell ({n},{k}) alpha_{i}: {co.alpha(i)} != {expected}")
            checked += 1
    return checked


def greville_crosscheck(space: MDSpace) -> int:
    """Exact build of `space`; every coefficient of every join must match the
    abscissa-difference formula. Returns the number checked."""
    trace = Trace()
    build_matrix(space, RKI, EXACT, trace)
    return abscissa_crosscheck(trace)


def derivative_formula_crosscheck(space: MDSpace) -> int:
    """Exact equality of the derivative-jump route with the integral-ratio
    route: final matrices and every bottom-row coefficient."""
    trace, ltrace = Trace(), Trace()
    stable = build_matrix(space, RKI, EXACT, trace)
    legacy = build_matrix(space, DERIVATIVE, EXACT, ltrace)
    if not np.array_equal(stable.matrix, legacy.matrix):
        raise NumericalInconsistencyError("routes disagree on the final matrix")
    joins = _join_steps(trace)
    checked = 0
    for key, step in _join_steps(ltrace, "legacy").items():
        co, ref = joins[key].coefficients, step.coefficients
        if (co.ib, co.ie) != (ref.ib, ref.ie) or co.alphas != ref.alphas:
            raise NumericalInconsistencyError(
                f"routes disagree at seam {step.at}, order {step.k}: "
                f"{ref.alphas} != {co.alphas}")
        checked += len(ref.alphas)
    return checked


def boehm_crosscheck(space: MDSpace, index: int) -> int:
    """On a conventional space, the insertion weights that `insert_knot_coeffs`
    applies must equal (x_j - s_i) / (s_{i+d} - s_i) over the extended
    partition, with b appended degree+1 times. Exact equality or raise."""
    if len(set(space.degrees)) != 1:
        raise ValueError("classical insertion weights need one global degree")
    d = space.degrees[0]
    xj = Fraction(space.xs[index])
    s, _ = space.extended_partitions()
    s = [Fraction(v) for v in s] + [Fraction(space.b)] * (d + 1)
    _, ib, weights = insertion_weights(space, index, EXACT)
    for i, via_abscissae in enumerate(weights, ib):
        classical = (xj - s[i - 1]) / (s[i + d - 1] - s[i - 1])
        if via_abscissae != classical:
            raise NumericalInconsistencyError(
                f"weight {i}: {via_abscissae} != {classical}")
    return len(weights)


def fraction_matrix_strings(matrix: np.ndarray) -> list[list[str]]:
    """Exact matrix as fraction strings, ready for JSON export."""
    return [[str(Fraction(v)) for v in row] for row in matrix]
