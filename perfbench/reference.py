"""Reference figures, not metrics: the per-preset baseline table of ROADMAP.md
and the scaling sweep in q, measured again with the benchmark's settings.

    python3 perfbench/reference.py            # takes about two minutes

Build times are medians of five builds after one warm-up build; evaluation is
the median time per point of eval_basis on the rki bundle over 200 uniform
points, after a first call that fills the bundle's caches; exact rki is one
exact replay. The sweep uses random degrees 2..6 on unit intervals with
random continuities and times one build per route.
"""

import os
import random
import statistics
import sys
import time

os.environ["OPENBLAS_NUM_THREADS"] = "1"
HERE = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [os.path.join(os.path.dirname(HERE), "src"), HERE]

import numpy as np  # noqa: E402

from mdspline import build_matrix, eval_basis, oracle  # noqa: E402
from mdspline.presets import PRESETS, preset_space  # noqa: E402
from workloads import ROUTES, random_space  # noqa: E402


def timed(fn, *args):
    t = time.perf_counter()
    fn(*args)
    return time.perf_counter() - t


def median_time(fn, *args, repeats=5):
    fn(*args)
    return statistics.median(timed(fn, *args) for _ in range(repeats))


def preset_table():
    print("| preset | K / K0 | rki | rde | mixed | eval/pt | exact rki |")
    print("|---|---|---|---|---|---|---|")
    for name in PRESETS:
        space = preset_space(name)
        builds = [median_time(build_matrix, space, r) * 1e3 for r in ROUTES]
        bundle = build_matrix(space, "rki")
        eval_basis(bundle, space.a)
        xs = np.linspace(space.a, space.b, 200)
        per_pt = statistics.median(timed(eval_basis, bundle, float(x)) for x in xs)
        exact = timed(oracle.exact_bundle, space)
        k, k0 = bundle.matrix.shape
        print(f"| {name} | {k} / {k0} | " + " | ".join(f"{t:.1f} ms" for t in builds)
              + f" | {per_pt * 1e6:.0f} µs | {exact * 1e3:.0f} ms |")


def q_sweep():
    print("\n| q | K / K0 (rki) | rki | rde | mixed |")
    print("|---|---|---|---|---|")
    for q in (25, 50, 100, 200):
        space = random_space(q, random.Random(q), q, (0, 1, 1, 1, 1, 1), 1)
        times = {}
        for route in ROUTES:
            t = time.perf_counter()
            bundle = build_matrix(space, route)
            times[route] = time.perf_counter() - t
            if route == "rki":
                shape = bundle.matrix.shape
        print(f"| {q} | {shape[0]} / {shape[1]} | "
              + " | ".join(f"{times[r]:.2f} s" for r in ROUTES) + " |")


if __name__ == "__main__":
    preset_table()
    q_sweep()
