"""One sha256 over the outputs and traces of a fixed set of builds.

Run from the repository root:

    python tests/build_digest.py

It builds every space below on all four routes, once untraced and once
traced, in float and, for a smaller set, exactly. For each build it hashes
what the order rule keeps: the matrices of orders 0 and 1, every order's
`integrals`, `integrals0` and reference space, the `alpha_count` and
strategy, or the type and message of the error raised, plus each traced
step's kind, place, window, coefficients and `integrals`. Float cells are
hashed as their raw bytes, so a signed zero counts; `Fraction`s as their
strings. It prints the build count, the traced step count, the digest and
a second digest over the exact builds alone. Two checkouts that print the
same digest build the same bits. Exact strings do not depend on the
platform, as float bytes can, so the exact digest is pinned below and the
script exits 1 when it differs. pytest does not collect this file.
"""

from __future__ import annotations

import hashlib
import random
import struct
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

from conftest import DEGREE_ZERO_SAMPLE, random_space  # noqa: E402
from mdspline import EXACT, FLOAT, MDSpace, Trace, build_matrix  # noqa: E402
from mdspline.presets import PRESETS, TABLE7_RANGE, table7  # noqa: E402

ROUTES = ("rki", "rde", "mixed", "derivative")
EXACT_SHA256 = "d1eda84c705a610f9a42d57baf76bc4187b31ad64037eb767bbe6393742a0c7f"


def large_q_space(q: int = 100) -> MDSpace:
    """The `build-large-q` benchmark pattern: structural seed 101, run seed 1."""
    srng, rng = random.Random(101), random.Random(1)
    degrees = srng.choices(range(1, 7), (1, 1, 1, 2, 3, 4), k=q + 1)
    conts = [srng.randint(0, min(degrees[i], degrees[i + 1])) for i in range(q)]
    widths = [1 + i % 8 for i in range(q + 1)]
    rng.shuffle(widths)
    xs = [0]
    for w in widths:
        xs.append(xs[-1] + w)
    return MDSpace.create((float(xs[0]), float(xs[-1])),
                          tuple(float(x) for x in xs[1:-1]), degrees, conts)


FLOAT_SPACES = ([f() for f in PRESETS.values()] + [table7(k) for k in TABLE7_RANGE]
                + [random_space(s) for s in range(200)] + DEGREE_ZERO_SAMPLE
                + [large_q_space()])
EXACT_SPACES = ([PRESETS[name]() for name in ("cox", "test1", "test2", "test3", "test6")]
                + [table7(5), table7(9)] + [random_space(s, 3, 5) for s in range(20)])


def encode(value) -> bytes:
    """Bytes of a value, floats bit for bit, Fractions as strings."""
    if isinstance(value, np.ndarray):
        if value.dtype == object:
            return repr(value.shape).encode() + b"|".join(encode(v) for v in value.ravel())
        return repr((value.shape, value.dtype.str)).encode() + value.tobytes()
    if isinstance(value, (float, np.floating)):
        return b"d" + struct.pack("<d", value)
    if isinstance(value, (tuple, list)):
        return b"(" + b",".join(encode(v) for v in value) + b")"
    if isinstance(value, Fraction):
        return b"q" + str(value).encode()
    return repr(value).encode()


class Tee:
    """Feeds every update to each of its hashes."""

    def __init__(self, *hashes):
        self.hashes = hashes

    def update(self, data: bytes) -> None:
        for h in self.hashes:
            h.update(data)


def digest_build(h, space: MDSpace, route: str, field, traced: bool) -> int:
    trace = Trace() if traced else None
    h.update(encode((repr(space), route, field.__name__, traced)))
    try:
        bundle = build_matrix(space, route, field, trace)
    except Exception as exc:     # an error is part of the output
        h.update(encode(("raised", type(exc).__name__, str(exc))))
    else:
        for rho in sorted(bundle.orders):
            od = bundle.orders[rho]
            h.update(encode((rho, repr(od.ref))))
            for array in ((od.matrix,) if rho <= 1 else ()) + (od.integrals, od.integrals0):
                h.update(encode(array))
        h.update(encode((bundle.alpha_count, bundle.strategy)))
    for s in trace.steps if traced else ():
        co = s.coefficients
        h.update(encode((s.kind, s.at, s.n, s.k, co.ib, co.ie, co.alphas, co.betas)))
        h.update(encode(s.integrals))
    return len(trace.steps) if traced else 0


def main() -> int:
    h, exact, builds, steps = hashlib.sha256(), hashlib.sha256(), 0, 0
    with np.errstate(all="ignore"):
        for field, spaces, sink in ((FLOAT, FLOAT_SPACES, h), (EXACT, EXACT_SPACES, Tee(h, exact))):
            for space in spaces:
                for route in ROUTES:
                    for traced in (False, True):
                        steps += digest_build(sink, space, route, field, traced)
                        builds += 1
    print(f"builds {builds}")
    print(f"steps {steps}")
    print(f"sha256 {h.hexdigest()}")
    print(f"exact sha256 {exact.hexdigest()}")
    if exact.hexdigest() != EXACT_SHA256:
        print(f"exact builds changed: expected exact sha256 {EXACT_SHA256}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
