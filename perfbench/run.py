"""Closed-loop benchmark of mdspline: one workload, one process, one caller.

Run from the repository root:

    python3 perfbench/run.py --workload build-presets --seed 1 --seconds 26 --trace 0

The run sets up its workload SETUP_REPEATS times (input generation, the
bundles the workload needs and one untimed warm-up pass over every op), then
runs whole passes for at least --seconds, then checks the outputs of the last
pass. It prints each metric by name and unit and, as the last line of
standard output, one JSON object with the keys correct, attempted, failed and
metrics. With --trace 1 the metrics are the per-layer figures of a traced
run; with --trace 0 they are the end-to-end figures of an untraced one.
The program is imported from the src directory next to this one; without it
the run exits with code 2 and prints no result.
"""

import time

T_START = time.perf_counter()

import os  # noqa: E402

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"   # before numpy loads: one BLAS thread

import argparse  # noqa: E402
from array import array  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT_DIR = os.path.join(ROOT, "perfbench-out")
SETUP_REPEATS = 3
TAIL_SAMPLES = 10    # samples beyond the tail percentile, at least
END_TO_END = (("setup_s", "s"), ("ops_per_s", "ops/s"), ("op_p50_ms", "ms"),
              ("op_tail_ms", "ms"), ("rki_ms", "ms"), ("rde_ms", "ms"),
              ("mixed_ms", "ms"), ("peak_rss_mb", "MB"))


def load_program():
    """Import mdspline from ROOT/src and nowhere else."""
    src = os.path.join(ROOT, "src")
    sys.path.insert(0, src)
    import mdspline
    if not os.path.abspath(mdspline.__file__).startswith(src + os.sep):
        raise ImportError(f"mdspline came from {mdspline.__file__}, not {src}")
    return mdspline


def run_pass(ops, lat, per_route, outs):
    clock = time.perf_counter_ns
    failed = 0
    for k, op in enumerate(ops):
        start = clock()
        try:
            out = op.call()
        except Exception as exc:   # a failed op is counted, and the loop goes on
            out = exc
            failed += 1
            if not isinstance(outs[k], Exception):
                traceback.print_exc(file=sys.stderr)
        dt = clock() - start
        lat.append(dt)
        per_route[op.route] += dt
        outs[k] = out
    return failed


def measure(workload, seed, seconds, tiny, tracer):
    import_s = time.perf_counter() - T_START
    from workloads import ROUTES
    setups = []
    for _ in range(SETUP_REPEATS):
        t = time.perf_counter()
        inst = workload.setup(seed, tiny)
        outs = [None] * len(inst.ops)
        warm_failed = run_pass(inst.ops, [], dict.fromkeys(ROUTES, 0), outs)
        setups.append(time.perf_counter() - t)

    tail_ops = math.ceil(TAIL_SAMPLES / (1.0 - workload.tail_percentile / 100.0))
    min_passes = math.ceil(tail_ops / len(inst.ops))
    lat, route_ns = array("q"), {r: [] for r in ROUTES}
    attempted = failed = passes = 0
    faults0 = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    counts0 = tracer.counts.copy() if tracer else None
    cpu0 = time.process_time()
    t0 = time.perf_counter_ns()
    while True:
        per_route = dict.fromkeys(ROUTES, 0)
        failed += run_pass(inst.ops, lat, per_route, outs)
        attempted += len(inst.ops)
        passes += 1
        for r in ROUTES:
            route_ns[r].append(per_route[r])
        if passes >= min_passes and time.perf_counter_ns() - t0 >= seconds * 1e9:
            break
    t1 = time.perf_counter_ns()
    cpu_s = time.process_time() - cpu0
    usage = resource.getrusage(resource.RUSAGE_SELF)
    completed = attempted - failed

    import numpy as np
    tail = float(np.percentile(lat, workload.tail_percentile))
    if tracer:
        metrics = tracer.layer_metrics(t0, t1, counts0, tracer.counts.copy(), completed,
                                       usage.ru_minflt - faults0)
    else:
        metrics = {
            "setup_s": import_s + statistics.median(setups),
            "ops_per_s": completed / ((t1 - t0) / 1e9),
            "op_p50_ms": statistics.median(lat) / 1e6,
            "op_tail_ms": tail / 1e6,
            "rki_ms": statistics.median(route_ns["rki"]) / 1e6,
            "rde_ms": statistics.median(route_ns["rde"]) / 1e6,
            "mixed_ms": statistics.median(route_ns["mixed"]) / 1e6,
            "peak_rss_mb": usage.ru_maxrss / 1024.0,
        }
    problems = inst.check(outs)
    by_label: dict[str, list[int]] = {}
    for k, op in enumerate(inst.ops):
        by_label.setdefault(op.label, []).extend(lat[k::len(inst.ops)])
    info = {"passes": passes, "ops_per_pass": len(inst.ops), "warm_up_failed": warm_failed,
            "tail_percentile": workload.tail_percentile, "op_samples": len(lat),
            "samples_beyond_tail": sum(v > tail for v in lat),
            "timed_s": (t1 - t0) / 1e9, "timed_cpu_s": cpu_s,
            "import_s": import_s, "setup_repeats_s": setups,
            "op_median_ms": {label: statistics.median(v) / 1e6
                             for label, v in sorted(by_label.items())}}
    return attempted, failed, metrics, problems, info


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="shrink every input, to smoke-test the harness in seconds")
    args = parser.parse_args(argv)

    try:
        load_program()
    except ImportError as exc:
        print(f"cannot import the program: {exc}", file=sys.stderr)
        return 2
    sys.path.insert(0, HERE)
    import layertrace
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}",
              file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    tracer = layertrace.install() if args.trace else None
    attempted, failed, metrics, problems, info = measure(
        workload, args.seed, args.seconds, args.tiny, tracer)

    units = dict(END_TO_END) if not tracer else \
        {name: unit for name, unit, _ in layertrace.PER_LAYER}
    for name, value in metrics.items():
        print(f"{name:48s} {value:14.6g} {units[name]}")
    print(f"attempted {attempted}, failed {failed}, passes {info['passes']} "
          f"of {info['ops_per_pass']} ops")
    for line in problems:
        print(f"CHECK FAILED: {line}")
    print(f"correctness checks: {'pass' if not problems else f'{len(problems)} failed'}")
    result = {"correct": not problems, "attempted": attempted, "failed": failed,
              "metrics": {name: {"value": value, "unit": units[name]}
                          for name, value in metrics.items()}}
    os.makedirs(OUT_DIR, exist_ok=True)
    stem = os.path.join(OUT_DIR, f"{args.workload}-seed{args.seed}-trace{args.trace}")
    with open(stem + ".json", "w") as fh:
        json.dump({**result, "info": info}, fh, indent=1)
    if tracer:
        tracer.dump(stem + "-spans.npz")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
