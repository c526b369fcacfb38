#!/usr/bin/env python3
"""Runs one workload on several seeds and reports each metric's spread.

    python3 perfbench/spread.py --workload live --seeds 1-10 [--seconds S] [--trace 0|1]

For every metric it prints the median of the runs and the distance between
the first and third quartile (statistics.quantiles(values, n=4)) as a share
of the median, next to the metric's bound from BENCHMARK.json. A spread
above a third of the bound marks the metric as not steady. Use it to judge
whether two commits differ by more than the benchmark's own noise.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def seeds_of(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def spread(values):
    """(median, IQR / median) of `values`."""
    median = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4)
    return median, (q3 - q1) / abs(median) if median else float("inf")


def main(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    seconds = args.seconds or spec["run_seconds"]
    bounds = {m["name"]: m.get("bound") for m in spec["end_to_end"]}

    runs = []
    for seed in seeds_of(args.seeds):
        proc = subprocess.run(
            [sys.executable, os.path.join(HERE, "run.py"), "--workload", args.workload,
             "--seed", str(seed), "--seconds", str(seconds), "--trace", str(args.trace)],
            cwd=ROOT, stdout=subprocess.PIPE, text=True)
        lines = [l for l in proc.stdout.splitlines() if l.strip()]
        if proc.returncode != 0 or not lines:
            print("seed %d failed with status %d" % (seed, proc.returncode))
            return 1
        result = json.loads(lines[-1])
        runs.append(result["metrics"])
        print("seed %d: %s" % (seed, ", ".join(
            "%s=%.4g" % (k, v["value"]) for k, v in result["metrics"].items())), flush=True)

    steady = True
    print("\n%-40s %14s %8s %6s" % ("metric", "median", "spread", "bound"))
    for name in runs[0]:
        median, s = spread([r[name]["value"] for r in runs])
        bound = bounds.get(name)
        flag = ""
        if bound is not None and name != "setup_s" and s > bound / 3:
            flag = "  NOT STEADY"
            steady = False
        print("%-40s %14.6g %8.3f %6s%s" % (name, median, s, bound if bound else "-", flag))
    return 0 if steady else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
