"""The one assembler behind every route to a full-space representation.

A build is fixed by its space, its route and its field. A route only chooses a
partition of the maximal equal-degree sections into contiguous groups: "rki"
and "derivative" keep every section on its own, "rde" puts all of them into
one group, and "mixed" takes the groups of `auto_plan`'s cheapest plan. A
one-section group is a section bundle; a longer one is embedded in the uniform
cover of its maximum degree by one degree-lowering sweep. The blocks are then
joined pairwise at the seams between groups in `join_order`, highest
continuity first and a run of equal ones as a balanced tree, by `cr_join`, or
by `legacy_join` on the derivative route. With one group per section, the
reference is checked against the space's continuity-zero shadow.
"""

from __future__ import annotations

from ._scalars import FLOAT
from .errors import NumericalInconsistencyError
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
    interval degrees, whatever its continuities and `top`: the step
    that lowers an interval to degree h has windows of h, h - 1, ..., 1 rows,
    so lowering degree d to the maximum m costs
    join_cost(m - 1) - join_cost(d - 1)."""
    return len(degrees) * join_cost(max(degrees) - 1) - sum(join_cost(d - 1) for d in degrees)


def join_cost(r: int) -> int:
    """Nontrivial coefficient count of a single continuity-r join."""
    return r * (r + 1) * (r + 2) // 6


def auto_plan(space: MDSpace) -> list[str]:
    """Per-section labels of the cheapest contiguous section grouping: a single
    section costs 0, a sweep of more costs `rde_cost`, and each group adds the
    `join_cost` of the seam before it. Labels cannot keep two sweeps apart, so
    a sweep follows only a single section or the start. A sweep stops growing
    left once its cost reaches the seams it spans: `rde_cost` is superadditive,
    so splitting there is no dearer."""
    dec = space.section_decomposition()
    n, bounds, degrees = len(dec.sections), dec.boundaries, space.degrees
    seam = [0] + [join_cost(jn.continuity) for jn in dec.joins]
    # over sections 0..i-1: the cheapest cost, the first section of its last
    # group, and the cheapest cost that ends in a single section
    best, cut, single = [0] * (n + 1), list(range(-1, n)), [0] * (n + 1)
    for i in range(1, n + 1):
        single[i] = best[i] = best[i - 1] + seam[i - 1]
        spanned = seam[i - 1]
        for lo in range(i - 2, -1, -1):
            spanned += seam[lo]
            cost = rde_cost(degrees[bounds[lo]:bounds[i]])
            if cost >= spanned:
                break
            if single[lo] + seam[lo] + cost < best[i]:
                best[i], cut[i] = single[lo] + seam[lo] + cost, lo
    # walk back through the cuts; the group before a sweep is a single section
    plan, i, free = [RKI] * n, n, True
    while i:
        lo = cut[i] if free else i - 1
        plan[lo:i] = [RDE if i - lo > 1 else RKI] * (i - lo)
        free, i = i - lo == 1, lo
    return plan


def _groups(space: MDSpace, n: int, route: str) -> list[tuple[int, int]]:
    """Contiguous section groups (lo, hi) that `route` builds as one block each."""
    if route in (RKI, DERIVATIVE):
        return [(i, i) for i in range(n)]
    if route == RDE:
        return [(0, n - 1)]
    if route != MIXED:
        raise ValueError(f"unknown route {route!r}")
    plan, groups, lo = auto_plan(space), [], 0
    for i in range(1, n + 1):
        if i == n or plan[i] != plan[lo] or plan[lo] == RKI:
            groups.append((lo, i - 1))
            lo = i
    return groups


def build_matrix(space: MDSpace, route: str = RKI, field=FLOAT,
                 trace: Trace | None = None) -> Bundle:
    """Bundle of `space` built by `route` over `field`, `FLOAT` or `EXACT`."""
    dec = space.section_decomposition()
    groups = _groups(space, len(dec.sections), route)
    blocks = []
    for lo, hi in groups:
        need = [dec.joins[i].continuity for i in (lo - 1, hi) if 0 <= i < len(dec.joins)]
        # a C^r seam reads orders 0..r (a legacy join 0 only), the abscissae 1
        top = 1 if route == DERIVATIVE else max(need, default=1)
        if lo == hi:
            blocks.append(section_bundle(dec.sections[lo], field, top))
            continue
        sub = space.restrict(dec.boundaries[lo], dec.boundaries[hi + 1])
        blocks.append(rde_build(sub, field, top, trace))
    join = legacy_join if route == DERIVATIVE else cr_join
    seams = {dec.joins[hi] for _, hi in groups[:-1]}
    ends, starts = {b.space.b: b for b in blocks}, {b.space.a: b for b in blocks}
    for jn in (jn for jn in dec.join_order if jn in seams):
        out = join(ends.pop(jn.x), starts.pop(jn.x), jn.continuity, trace=trace)
        ends[out.space.b] = starts[out.space.a] = out
    out = starts[space.a]
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


def build_matrix_mixed(space: MDSpace, field=FLOAT, trace: Trace | None = None) -> Bundle:
    return build_matrix(space, MIXED, field, trace)


def build_matrix_derivative(space: MDSpace, field=FLOAT,
                            trace: Trace | None = None) -> Bundle:
    return build_matrix(space, DERIVATIVE, field, trace)
