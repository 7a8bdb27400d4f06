#!/usr/bin/env python3
"""Measure how steady the benchmark's end-to-end metrics are.

Usage (from the repository root):

    python3 perfbench/steadiness.py [--runs 10] [--first-seed 1000]

Runs perfbench/run.py --runs times per workload of BENCHMARK.json, for
its run_seconds, each time with another seed, interleaving the
workloads so that slow drifts of the host's speed hit every workload
alike. For every end-to-end metric it prints the median, the quartiles
(statistics.quantiles(values, n=4)) and the spread, i.e. the distance
between the quartiles as a share of the median, beside the metric's
bound from BENCHMARK.json.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1000)
    args = parser.parse_args()
    workloads = [w["name"] for w in spec["workloads"]]

    values = {w: {m["name"]: [] for m in spec["end_to_end"]}
              for w in workloads}
    for run in range(args.runs):
        for w in workloads:
            cmd = [sys.executable, os.path.join(HERE, "run.py"),
                   "--workload", w, "--seed", str(args.first_seed + run),
                   "--seconds", str(spec["run_seconds"]), "--trace", "0"]
            proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                                  text=True, check=True)
            result = json.loads(proc.stdout.splitlines()[-1])
            if not result["correct"] or result["failed"]:
                sys.exit("steadiness: %s run %d failed:\n%s"
                         % (w, run, proc.stdout))
            for name, m in result["metrics"].items():
                values[w][name].append(m["value"])
            print("run %d %s %s" % (run, w, json.dumps(
                {k: round(v["value"], 4)
                 for k, v in result["metrics"].items()})), flush=True)

    print("\n%-17s %-12s %10s %10s %10s %7s %6s"
          % ("workload", "metric", "median", "q1", "q3", "spread",
             "bound"))
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    for w in workloads:
        for name, xs in values[w].items():
            if len(xs) < 2:
                continue
            q1, med, q3 = statistics.quantiles(xs, n=4)
            print("%-17s %-12s %10.4f %10.4f %10.4f %7.3f %6.2f"
                  % (w, name, med, q1, q3, (q3 - q1) / med,
                     bounds[name]))


if __name__ == "__main__":
    main()
