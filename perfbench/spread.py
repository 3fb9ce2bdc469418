"""Run a workload once per seed and print each end-to-end metric's spread.

    python3 perfbench/spread.py --workload build-large-q --seeds 1-10

The spread of a metric is the distance between the first and third quartile
of its values over the seeds (statistics.quantiles, n=4), as a share of their
median; README.md compares it with the metric's bound in BENCHMARK.json.
Runs go one after another, never side by side, so they do not compete for
the two cores.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def seeds_of(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def steal_s() -> float:
    """Time the hypervisor ran other guests on our CPUs (Linux /proc/stat)."""
    try:
        with open("/proc/stat") as fh:
            return int(fh.readline().split()[8]) / os.sysconf("SC_CLK_TCK")
    except (OSError, IndexError, ValueError):
        return float("nan")


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", default="1-10")
    args = parser.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}

    values: dict[str, list[float]] = {}
    fail_shares = set()
    for seed in seeds_of(args.seeds):
        t, steal0 = time.perf_counter(), steal_s()
        cmd = bench["command"] + ["--workload", args.workload, "--seed", str(seed),
                                  "--seconds", str(bench["run_seconds"]),
                                  "--trace", "0"]
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
        wall, steal = time.perf_counter() - t, steal_s() - steal0
        if proc.returncode != 0:
            print(proc.stderr, file=sys.stderr)
            return 1
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        fail_shares.add((result["failed"], result["attempted"]))
        for name, m in result["metrics"].items():
            values.setdefault(name, []).append(m["value"])
        with open(os.path.join(ROOT, "perfbench-out",
                               f"{args.workload}-seed{seed}-trace0.json")) as fh:
            info = json.load(fh)["info"]
        print(f"seed {seed}: wall {wall:.1f} s, steal {steal:.2f} s, timed "
              f"{info['timed_s']:.1f} s wall / {info['timed_cpu_s']:.1f} s cpu, "
              f"correct {result['correct']}, "
              f"failed {result['failed']}/{result['attempted']}", flush=True)

    print(f"{'metric':14s} {'median':>12s} {'spread':>8s} {'bound':>6s}")
    for name, vals in values.items():
        q1, _, q3 = statistics.quantiles(vals, n=4)
        med = statistics.median(vals)
        print(f"{name:14s} {med:12.5g} {(q3 - q1) / med:8.4f} {bounds.get(name, 0):6.2f}")
    print("failed/attempted:", sorted(fail_shares))
    return 0


if __name__ == "__main__":
    sys.exit(main())
