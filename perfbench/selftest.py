"""Self-test of the benchmark harness; takes well under a minute.

    python3 perfbench/selftest.py

1. BENCHMARK.json names every metric the harness prints, with the same unit.
2. Every correctness check passes on a true output and fails on a deliberately
   corrupted one.
3. Every workload runs at a tiny size, traced and untraced, with zero failed
   ops and all checks passing.
4. In a directory holding only BENCHMARK.json and perfbench/, the benchmark
   exits with a nonzero code and prints no result.
"""

import dataclasses
import json
import os
import shutil
import subprocess
import sys
from fractions import Fraction

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [os.path.join(ROOT, "src"), HERE]

import numpy as np  # noqa: E402

import checks  # noqa: E402
import layertrace  # noqa: E402
import run  # noqa: E402
from mdspline import Bundle, build_matrix, eval_api, oracle  # noqa: E402
from mdspline.assembler import build_matrix_mixed, build_matrix_rde  # noqa: E402
from mdspline.c0_engine import BasisValues  # noqa: E402
from mdspline.presets import preset_space, table7  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

failures = []


def expect(what, ok):
    print(f"{'ok  ' if ok else 'FAIL'} {what}")
    if not ok:
        failures.append(what)


def with_matrix(bundle, matrix):
    """A fresh bundle (no evaluation caches) whose order-0 matrix is replaced."""
    orders = dict(bundle.orders)
    orders[0] = dataclasses.replace(orders[0], matrix=matrix)
    return Bundle(bundle.space, orders, bundle.field, bundle.alpha_count, bundle.strategy)


def check_pair(name, check, good_args, bad_args):
    expect(f"{name} passes a true output", check("good", *good_args) == [])
    expect(f"{name} fails a corrupted output", check("bad", *bad_args) != [])


def test_metric_names():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    e2e = [(m["name"], m["unit"]) for m in bench["end_to_end"]]
    layers = [(m["name"], m["unit"], m["better"]) for m in bench["per_layer"]]
    expect("end-to-end metrics match BENCHMARK.json", e2e == list(run.END_TO_END))
    expect("per-layer metrics match BENCHMARK.json", layers == list(layertrace.PER_LAYER))
    expect("workloads match BENCHMARK.json",
           [w["name"] for w in bench["workloads"]] == list(WORKLOADS))


def test_build_checks():
    space = table7(9)
    bundles = {r: build_matrix(space, r) for r in ("rki", "rde", "mixed")}
    m = bundles["mixed"].matrix
    for route, b in bundles.items():
        check_pair(f"shape ({route})", checks.shape_problems,
                   (space, route, b), (space, route, with_matrix(b, b.matrix[:, :-1])))
    high = m.copy()
    high[0, 0] = 1.5
    check_pair("entries in [0, 1]", checks.entry_problems, (m,), (high,))
    skew = m.copy()
    skew[np.nonzero(skew)[0][-1], np.nonzero(skew)[1][-1]] *= 0.999
    check_pair("column sums", checks.colsum_problems, (m,), (skew,))
    bad = dict(bundles, rde=with_matrix(bundles["rde"], bundles["rde"].matrix * (1 + 1e-9)))
    check_pair("route agreement", checks.agreement_problems, (space, bundles), (space, bad))
    cox = preset_space("cox")
    b = build_matrix(cox, "rki")
    wide = b.matrix.copy()
    wide[0, 1] = 1e-3    # function 1 now reaches into the second interval
    check_pair("midpoint nonzero count", checks.midpoint_problems,
               (cox, b), (cox, with_matrix(b, wide)))


def test_eval_checks():
    for name in ("test6", "cox"):
        space = preset_space(name)
        for route in ("rki", "rde", "mixed"):
            b = build_matrix(space, route)
            x = (space.a + 2 * space.b) / 3
            out = eval_api.eval_basis(b, x)
            shifted = BasisValues(out.first + 1, out.values, out.size)
            check_pair(f"window against scipy ({name}/{route})", checks.window_problems,
                       (b, x, out), (b, x, shifted))
            scaled = BasisValues(out.first, out.values * (1 + 1e-9), out.size)
            check_pair(f"values sum to 1 ({name}/{route})", checks.unity_problems,
                       (x, out), (x, scaled))
            coeffs = np.linspace(-1.0, 1.0, space.dimension)
            value = eval_api.eval_spline(b, coeffs, x)
            check_pair(f"spline value ({name}/{route})", checks.spline_problems,
                       (b, x, coeffs, value), (b, x, coeffs, value + 1e-9))


def test_exact_checks():
    space = preset_space("test1")
    exact = {"rki": oracle.exact_bundle(space),
             "rde": oracle.exact_bundle(space, build_matrix_rde),
             "mixed": oracle.exact_bundle(space, build_matrix_mixed)}
    m = exact["rki"].matrix
    high = m.copy()
    high[0, 0] = Fraction(3, 2)
    check_pair("exact entries in [0, 1]", checks.exact_matrix_problems, (m,), (high,))
    i, j = next((i, j) for i, j in zip(*np.nonzero(m)) if m[i, j] < 1)
    skew = m.copy()
    skew[i, j] -= Fraction(1, 10 ** 30)
    check_pair("exact column sums", checks.exact_matrix_problems, (m,), (skew,))
    err = oracle.matrix_error(build_matrix(space, "rki").matrix, m)
    check_pair("error budget", checks.budget_problems,
               (err, checks.PRESET_BUDGET), (1e-13, checks.PRESET_BUDGET))
    bad = dict(exact, rde=with_matrix(exact["rde"], exact["rde"].matrix.copy()))
    rde = bad["rde"].matrix
    i, j = next((i, j) for i, j in zip(*np.nonzero(rde)) if rde[i, j] < 1)
    rde[i, j] -= Fraction(1, 10 ** 20)
    check_pair("exact route agreement", checks.exact_agreement_problems,
               (space, exact), (space, bad))


def run_bench(cwd, *args):
    cmd = [sys.executable, os.path.join(cwd, "perfbench", "run.py"), *args]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=600)


def test_tiny_runs():
    for name in WORKLOADS:
        for traced in ("0", "1"):
            proc = run_bench(ROOT, "--workload", name, "--seed", "7", "--seconds", "1",
                             "--trace", traced, "--tiny")
            ok = proc.returncode == 0
            if ok:
                result = json.loads(proc.stdout.strip().splitlines()[-1])
                names = run.END_TO_END if traced == "0" else layertrace.PER_LAYER
                ok = (result["correct"] and result["failed"] == 0
                      and list(result["metrics"]) == [n[0] for n in names])
            else:
                print(proc.stderr)
            expect(f"tiny {name} run, trace {traced}", ok)


def test_without_program():
    bare = os.path.join(ROOT, "perfbench-out", "selftest-bare")
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
    proc = run_bench(bare, "--workload", "build-presets", "--seed", "1", "--seconds", "1",
                     "--trace", "0")
    expect("no program: nonzero exit and no result",
           proc.returncode != 0 and '"correct"' not in proc.stdout)
    shutil.rmtree(bare)


if __name__ == "__main__":
    test_metric_names()
    test_build_checks()
    test_eval_checks()
    test_exact_checks()
    test_tiny_runs()
    test_without_program()
    print(f"{len(failures)} failed" if failures else "all self-tests passed")
    sys.exit(1 if failures else 0)
