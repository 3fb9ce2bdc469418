"""The four workloads: their inputs, their ops and the checks that judge them.

An op is one call a user would make; a pass runs every op of a workload once
in a fixed order. Every input is drawn from the run's seed, so the same seed
gives the same inputs. The degree and continuity pattern of each random space
is drawn once from a fixed structural seed and the run's seed orders its
interval widths, except in exact-replay, where the structural seed orders them
too: plan choice and build cost depend on the pattern, exact cost also on the
breakpoints, and either one redrawn per seed spreads the route times across
seeds by more than any bound a benchmark could keep (see README.md).
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Callable

from mdspline import MDSpace, assembler, eval_api, oracle
from mdspline.presets import TABLE7_RANGE, preset_space, table7

import checks

ROUTES = ("rki", "rde", "mixed")


@dataclass
class Op:
    route: str
    label: str
    call: Callable[[], object]


@dataclass
class Instance:
    """One set-up: the ops of a pass plus whatever the checks need."""
    ops: list[Op]
    check: Callable[[list], list[str]]


@dataclass(frozen=True)
class Workload:
    name: str
    setup: Callable[[int, bool], Instance]
    tail_percentile: float   # highest of 50/80/90/95/99/99.9 with 10+ samples beyond


# -- random spaces -------------------------------------------------------------

def random_space(structure_seed: int, rng: random.Random, q: int,
                 degree_weights: tuple[int, ...], max_step: int) -> MDSpace:
    """Degrees drawn from 1..len(degree_weights) with the given weights and
    continuities uniform in [0, min of the adjacent degrees], both from
    `structure_seed`; interval widths 1, 2, .., max_step, 1, 2, .. in an order
    shuffled by `rng`. Integer breakpoints keep the exact replay's fractions
    small, and a fixed multiset of widths keeps their size from varying with
    the seed."""
    srng = random.Random(structure_seed)
    degrees = srng.choices(range(1, len(degree_weights) + 1), degree_weights, k=q + 1)
    conts = [srng.randint(0, min(degrees[i], degrees[i + 1])) for i in range(q)]
    widths = [1 + i % max_step for i in range(q + 1)]
    rng.shuffle(widths)
    xs = [0]
    for w in widths:
        xs.append(xs[-1] + w)
    return MDSpace.create((float(xs[0]), float(xs[-1])),
                          tuple(float(x) for x in xs[1:-1]), degrees, conts)


def route_order(rng: random.Random) -> list[str]:
    order = list(ROUTES)
    rng.shuffle(order)
    return order


def build_ops(spaces: dict[str, MDSpace], rng: random.Random) -> list[Op]:
    """Float builds by every route, routes interleaved space by space."""
    build = assembler.build_matrix
    ops = []
    for name, space in spaces.items():
        for route in route_order(rng):
            ops.append(Op(route, f"{name}/{route}",
                          lambda s=space, r=route: build(s, r)))
    return ops


# -- build-presets ---------------------------------------------------------------

def setup_build_presets(seed: int, tiny: bool) -> Instance:
    rng = random.Random(seed)
    names = ("test1", "test2") if tiny else \
        ("cox", "test1", "test2", "test3", "test4", "test5", "test6")
    ks = (5, 9) if tiny else TABLE7_RANGE
    spaces = {name: preset_space(name) for name in names}
    spaces.update({f"table7({k})": table7(k) for k in ks})
    ops = build_ops(spaces, rng)
    rng.shuffle(ops)
    return Instance(ops, lambda outs: checks.check_builds(ops, outs, spaces))


# -- build-large-q ---------------------------------------------------------------

LARGE_Q = 100
LARGE_Q_DEGREE_WEIGHTS = (1, 1, 1, 2, 3, 4)   # degrees 1..6, more of the high ones


def setup_build_large_q(seed: int, tiny: bool) -> Instance:
    rng = random.Random(seed)
    q = 12 if tiny else LARGE_Q
    spaces = {f"random(q={q})": random_space(101, rng, q, LARGE_Q_DEGREE_WEIGHTS, 8)}
    ops = build_ops(spaces, rng)
    return Instance(ops, lambda outs: checks.check_builds(ops, outs, spaces))


# -- eval-points -----------------------------------------------------------------

EVAL_UNIFORM_POINTS = 32


def setup_eval_points(seed: int, tiny: bool) -> Instance:
    rng = random.Random(seed)
    if tiny:
        spaces = {"test1": preset_space("test1"),
                  "random(q=10)": random_space(201, rng, 10, (1, 1, 1), 4)}
    else:
        spaces = {name: preset_space(name) for name in ("cox", "test5", "test6")}
        for s in (201, 202):
            spaces[f"random{s - 200}(q={LARGE_Q})"] = \
                random_space(s, rng, LARGE_Q, (1, 1, 1), 8)
    n_uniform = 4 if tiny else EVAL_UNIFORM_POINTS
    build, basis, spline = assembler.build_matrix, eval_api.eval_basis, eval_api.eval_spline
    ops, cases = [], []
    for name, space in spaces.items():
        bundles = {route: build(space, route) for route in ROUTES}
        coeffs = [rng.uniform(-1.0, 1.0) for _ in range(space.dimension)]
        points = sorted([rng.uniform(space.a, space.b) for _ in range(n_uniform)]
                        + list(space.xs))
        for i, x in enumerate(points):
            for route in route_order(rng):
                b = bundles[route]
                if i % 2:
                    call = (lambda b=b, x=x, c=coeffs: spline(b, c, x))
                else:
                    call = (lambda b=b, x=x: basis(b, x))
                ops.append(Op(route, f"{name}/{route}/{'spline' if i % 2 else 'basis'}",
                              call))
                cases.append((b, x, coeffs if i % 2 else None))
    return Instance(ops, lambda outs: checks.check_evals(cases, outs))


# -- exact-replay ----------------------------------------------------------------

def setup_exact_replay(seed: int, tiny: bool) -> Instance:
    rng = random.Random(seed)
    names = ("test1",) if tiny else ("cox", "test1", "test3")
    spaces = {name: preset_space(name) for name in names}
    sweep = {f"table7({k})": table7(k) for k in ((5,) if tiny else (5, 9))}
    spaces.update(sweep)
    for s in ((301,) if tiny else (301, 302, 303)):
        # widths ordered by the structural seed too: exact cost follows the
        # sizes of the fractions, so a per-seed order would move it
        spaces[f"random{s - 300}(q=4)"] = random_space(s, random.Random(s), 4,
                                                       (1,) * 8, 8)
    builders = {"rki": assembler.build_matrix_rki, "rde": assembler.build_matrix_rde,
                "mixed": assembler.build_matrix_mixed}
    exact_bundle, matrix_error = oracle.exact_bundle, oracle.matrix_error

    def replay(space, route, float_matrix):
        exact = exact_bundle(space, builders[route])
        return exact, matrix_error(float_matrix, exact.matrix)

    ops, cases = [], []
    for name, space in spaces.items():
        for route in route_order(rng):
            fm = builders[route](space).matrix
            ops.append(Op(route, f"{name}/{route}",
                          lambda s=space, r=route, m=fm: replay(s, r, m)))
            budget = checks.SWEEP_BUDGET if name in sweep else checks.PRESET_BUDGET
            cases.append((name, space, route, budget))
    return Instance(ops, lambda outs: checks.check_replays(cases, outs))


WORKLOADS = {w.name: w for w in (
    Workload("build-presets", setup_build_presets, 99.0),
    Workload("build-large-q", setup_build_large_q, 80.0),
    Workload("eval-points", setup_eval_points, 95.0),
    Workload("exact-replay", setup_exact_replay, 95.0),
)}
