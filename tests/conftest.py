"""Shared space builders for the test suite.

Random spaces use exactly representable breakpoints (integers) so that the
rational oracle replays the same inputs bit for bit.
"""

import random
from contextlib import contextmanager
from dataclasses import replace

import pytest
from hypothesis import strategies as st

from mdspline import MDSpace, assembler, rde_core, section_bundle
from mdspline._scalars import eye
from mdspline.join_core import apply_bidiagonal


def random_space(seed: int, max_breakpoints: int = 8, max_degree: int = 12) -> MDSpace:
    """Deterministic valid space: integer breakpoints, degrees >= 1."""
    rng = random.Random(seed)
    q = rng.randint(0, max_breakpoints)
    lo = rng.randint(-20, 20)
    knots = [lo]
    for _ in range(q + 1):
        knots.append(knots[-1] + rng.randint(1, 6))
    degrees = tuple(rng.randint(1, max_degree) for _ in range(q + 1))
    conts = tuple(rng.randint(0, min(degrees[i], degrees[i + 1]))
                  for i in range(q))
    return MDSpace.create((float(knots[0]), float(knots[-1])),
                          tuple(float(v) for v in knots[1:-1]), degrees, conts)


def unit_space(degrees, continuities=None) -> MDSpace:
    """Unit intervals on [0, len(degrees)], C0 seams unless given."""
    q = len(degrees) - 1
    return MDSpace.create((0.0, q + 1.0), tuple(map(float, range(1, q + 1))), degrees,
                          continuities or (0,) * q)


def without_degree_one(space: MDSpace) -> MDSpace:
    """`space` with its degree-1 intervals at degree 0, continuities clamped."""
    degrees = tuple(d if d > 1 else 0 for d in space.degrees)
    conts = tuple(min(k, a, b) for k, a, b in zip(space.continuities, degrees, degrees[1:]))
    return MDSpace.create((space.a, space.b), space.breakpoints, degrees, conts)


# spaces with degree-0 intervals, from one interval to sections of degree 20
DEGREE_ZERO_SAMPLE = [
    unit_space((0,)), unit_space((1, 0, 1)), unit_space((0, 5, 0)),
    unit_space((0, 3, 3, 0), (0, 3, 0)), unit_space((20, 0, 20)), unit_space((0, 2)),
] + [sp for sp in (without_degree_one(random_space(seed, 4, 8)) for seed in range(40))
     if sp.q and min(sp.degrees) == 0][:12]


def internal_space(interval, breakpoints, degrees, continuities) -> MDSpace:
    """A checked internal space, whose raw orders may be negative."""
    space = MDSpace(*interval, breakpoints, degrees, continuities, internal=True)
    space.validate()
    return space


def join_levels(trace):
    """(n, k) -> (level matrix, basis integrals) made by each join cell of a
    trace; the matrix has no columns on orders above 1."""
    return {(s.n, s.k): (apply_bidiagonal(s.matrix, s.coefficients),
                         apply_bidiagonal(s.integrals[:, None], s.coefficients)[:, 0])
            for s in trace.steps if s.kind == "join" and s.k > 0}


def dense_section_bundle(section, field, top=None):
    """`section_bundle` with the identity in every order, not only in orders 0
    and 1: `cr_join` is width-agnostic, so joins of these write the full level
    of every row of their triangle."""
    bundle = section_bundle(section, field, top)
    for rho, od in bundle.orders.items():
        bundle.orders[rho] = replace(od, matrix=eye(od.ref.dimension, field))
    return bundle


def dense_sweep(space, field, top=1, trace=None):
    """`rde_build` with every emitted order's full matrix: the lowering steps
    of each row, recorded as the sweep runs them (row 0's are not traced),
    replayed on the identity of the row's reference."""
    cos, lower = [], rde_core._lower

    def recording(level, co):
        cos.append(co)
        return lower(level, co)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(rde_core, "_lower", recording)
        bundle = rde_core.rde_build(space, field, top, trace)
    r = rde_core.lowering_depth(space, top)
    for rho, od in bundle.orders.items():
        level = eye(od.ref.dimension, field)
        for co in cos[r - rho::r + 1]:      # row k = r - rho runs every (r + 1)-th step
            level = apply_bidiagonal(level, co)
        bundle.orders[rho] = replace(od, matrix=level)
    return bundle


@contextmanager
def dense_inputs():
    """Builds whose sections and sweeps carry the full matrix of every order:
    the joins, which are width-agnostic, then do too."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(assembler, "section_bundle", dense_section_bundle)
        mp.setattr(assembler, "rde_build", dense_sweep)
        yield


@pytest.fixture
def small_spaces():
    """A spread of hand-picked shapes: conventional, degree jumps both ways,
    C0 seams, single section."""
    return [
        MDSpace.create((0.0, 1.0), (), (3,), ()),
        MDSpace.create((0.0, 2.0), (1.0,), (2, 2), (1,)),
        MDSpace.create((0.0, 2.0), (1.0,), (2, 1), (1,)),
        MDSpace.create((0.0, 2.0), (1.0,), (1, 3), (1,)),
        MDSpace.create((2.0, 4.0), (3.0,), (2, 1), (0,)),
        MDSpace.create((0.0, 4.0), (1.0, 2.0, 3.0), (2, 2, 4, 3), (1, 2, 3)),
        MDSpace.create((0.0, 3.0), (1.0, 2.0), (4, 2, 3), (2, 1)),
    ]


@st.composite
def space_strategy(draw, max_breakpoints=3, max_degree=5):
    seed = draw(st.integers(min_value=0, max_value=10 ** 6))
    return random_space(seed, max_breakpoints, max_degree)
