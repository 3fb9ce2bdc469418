"""The one assembler behind every route to a full-space representation.

A route only chooses a plan: a partition of the maximal equal-degree sections
into contiguous groups. "rki" and "derivative" keep every section on its own,
"rde" puts all of them into one group, and "mixed" takes its groups from a
per-section plan, `auto_plan` by default. A one-section group is a section
bundle; a longer one is embedded in the uniform cover of its maximum degree by
one degree-lowering sweep. The blocks are then joined pairwise at the seams
between groups, highest continuity first, by `cr_join`, or by `legacy_join`
on the derivative route. When every group is a single section, the reference
of the result is checked against the continuity-zero shadow of the space.
"""

from __future__ import annotations

from ._scalars import FLOAT
from .errors import NumericalInconsistencyError, UnsupportedSpaceError
from .join_core import Bundle, Trace, cr_join, section_bundle
from .legacy import legacy_join
from .rde_core import rde_build
from .spaces import MDSpace

RKI = "rki"
RDE = "rde"
MIXED = "mixed"
DERIVATIVE = "derivative"


def rde_cost(degrees) -> int:
    """Nontrivial coefficient count of `rde_build` on a space with these
    interval degrees, whatever its continuities and `min_orders`: the step
    that lowers an interval to degree h has windows of h, h - 1, ..., 1 rows,
    so lowering degree d to the maximum m costs
    join_cost(m - 1) - join_cost(d - 1)."""
    m = max(degrees)
    return sum(join_cost(m - 1) - join_cost(d - 1) for d in degrees)


def join_cost(r: int) -> int:
    """Nontrivial coefficient count of a single continuity-r join."""
    return r * (r + 1) * (r + 2) // 6


def auto_plan(space: MDSpace) -> list[str]:
    """Per-section strategy labels chosen by greedy cost descent: merging a
    maximal block of adjacent sections into one degree-lowering sweep must
    beat building its pieces and joining them."""
    dec = space.section_decomposition()
    n = len(dec.sections)
    if n == 1:
        return [RKI]
    bounds = dec.boundaries

    def group_cost(lo: int, hi: int) -> int:
        return rde_cost(space.degrees[bounds[lo]:bounds[hi + 1]])

    def gain(p: int) -> int:
        """Cost change of merging groups p and p + 1; 0 if they cannot merge."""
        (_, la, ha, ca), (_, lb, hb, cb) = kind[p], kind[p + 1]
        if min(space.degrees[bounds[la]:bounds[hb + 1]]) < 1:
            return 0
        return group_cost(la, hb) - (ca + cb + join_cost(dec.joins[ha].continuity))

    # strategy, lo section, hi section, cost; a merge changes the gains of the
    # pairs next to it only, and the first best merge wins a tie
    kind = [[RKI, i, i, group_cost(i, i)] for i in range(n)]
    gains = [gain(p) for p in range(n - 1)]
    while gains and min(gains) < 0:
        p = gains.index(min(gains))
        la, hb = kind[p][1], kind[p + 1][2]
        kind[p:p + 2] = [[RDE, la, hb, group_cost(la, hb)]]
        del gains[p]
        for q in range(max(p - 1, 0), min(p + 1, len(gains))):
            gains[q] = gain(q)
    return [s for s, lo, hi, _ in kind for _ in range(lo, hi + 1)]


def _groups(space: MDSpace, n: int, route: str, plan) -> list[tuple[int, int]]:
    """Contiguous section groups (lo, hi) that `route` builds as one block each."""
    if plan is not None and route != MIXED:
        raise ValueError(f"only the '{MIXED}' route takes a plan, not {route!r}")
    if route in (RKI, DERIVATIVE):
        return [(i, i) for i in range(n)]
    if route == RDE:
        if min(space.degrees) < 1:
            raise UnsupportedSpaceError(
                "degree lowering needs every interval degree to be at least 1")
        return [(0, n - 1)]
    if route != MIXED:
        raise ValueError(f"unknown route {route!r}")
    if plan is None:
        plan = auto_plan(space)
    if len(plan) != n or any(p not in (RKI, RDE) for p in plan):
        raise ValueError(f"plan must assign '{RKI}' or '{RDE}' to each of {n} sections")
    groups, lo = [], 0
    for i in range(1, n + 1):
        if i == n or plan[i] != plan[lo] or plan[lo] == RKI:
            groups.append((lo, i - 1))
            lo = i
    return groups


def build_matrix(space: MDSpace, route: str = RKI, field=FLOAT,
                 trace: Trace | None = None, plan=None) -> Bundle:
    """Bundle of `space` built by `route`; `plan` labels each section for "mixed"."""
    dec = space.section_decomposition()
    groups = _groups(space, len(dec.sections), route, plan)
    blocks = []
    for lo, hi in groups:
        need = [dec.joins[i].continuity for i in (lo - 1, hi) if 0 <= i < len(dec.joins)]
        if lo == hi:      # on the derivative route, joins read order 0 only
            section = dec.sections[lo]
            top = 1 if need and route == DERIVATIVE else max(need, default=section.degrees[0])
            blocks.append(section_bundle(section, field, top))
            continue
        sub = space.restrict(dec.boundaries[lo], dec.boundaries[hi + 1])
        blocks.append(rde_build(sub, field, max(need, default=1), trace))
    join = legacy_join if route == DERIVATIVE else cr_join
    seams = {dec.joins[hi] for _, hi in groups[:-1]}
    for jn in (jn for jn in dec.join_order if jn in seams):
        pos = next(i for i, b in enumerate(blocks) if b.space.b == jn.x)
        left, right = blocks[pos], blocks[pos + 1]
        blocks[pos:pos + 2] = [join(left, right, jn.continuity, field, trace)]
    out = blocks[0]
    out.strategy = route
    if out.space != space:
        raise NumericalInconsistencyError(f"built {out.space}, expected {space}")
    if len(groups) == len(dec.sections):
        ref, shadow = out.ref, space.associated_c0()
        if (ref.degrees, ref.continuities) != (shadow.degrees, shadow.continuities):
            raise NumericalInconsistencyError(
                f"reference {ref} is not the continuity-zero shadow {shadow}")
    return out


def build_matrix_rki(space: MDSpace, field=FLOAT, trace: Trace | None = None) -> Bundle:
    return build_matrix(space, RKI, field, trace)


def build_matrix_rde(space: MDSpace, field=FLOAT, trace: Trace | None = None) -> Bundle:
    return build_matrix(space, RDE, field, trace)


def build_matrix_mixed(space: MDSpace, field=FLOAT, plan: list[str] | None = None,
                       trace: Trace | None = None) -> Bundle:
    return build_matrix(space, MIXED, field, trace, plan)


def build_matrix_derivative(space: MDSpace, field=FLOAT,
                            trace: Trace | None = None) -> Bundle:
    return build_matrix(space, DERIVATIVE, field, trace)
