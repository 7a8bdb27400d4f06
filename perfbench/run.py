#!/usr/bin/env python3
"""Run one workload of the repository benchmark.

Usage (from the repository root):

    python3 perfbench/run.py --workload sim_churn_10k --seed 20260807 \
        --seconds 30 --trace 0

Builds perfbench/ (and with it the libraries under src/, -O2) into
.bench_build/perfbench on first use, runs the workload for at least
--seconds, checks its outputs and prints one JSON object as the last
line of stdout:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With --trace 0 the metrics are BENCHMARK.json's end_to_end metrics;
with --trace 1 its per_layer metrics, and the traced reps' spans are
written to .bench_build/spans/. On the default seed of a workload the
deterministic outputs must equal perfbench/pinned.json; on any other
seed the workload's invariant checks apply instead.
"""

import argparse
import json
import math
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_DIR = os.path.join(ROOT, ".bench_build", "perfbench")
SPANS_DIR = os.path.join(ROOT, ".bench_build", "spans")
BINARY = os.path.join(BUILD_DIR, "perfbench")

# Defaults from bench/micro_scale, bench/micro_sched and the figure
# harnesses; pinned outputs apply to these seeds only.
DEFAULT_SEEDS = {
    "sim_churn_10k": 20260807,
    "sched_replay_2k5": 1,
    "paper_pipeline": 42,
}


def build():
    """Configure once, then bring the build up to date."""
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.exists(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD_DIR])
    steps.append(["cmake", "--build", BUILD_DIR, "-j", jobs])
    for cmd in steps:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE,
                              stderr=subprocess.STDOUT, text=True)
        if proc.returncode != 0:
            sys.stderr.write(proc.stdout)
            sys.exit("run.py: build step failed: " + " ".join(cmd))


def select_metrics(spec, measured):
    """The metrics BENCHMARK.json names, from the binary's report.

    The report must hold exactly those metrics, each finite and in its
    unit: a workload reports an explicit 0 for a per-layer metric it
    does not measure.
    """
    names = [m["name"] for m in spec]
    if sorted(names) != sorted(measured):
        raise SystemExit("run.py: metrics missing %s, unexpected %s" % (
            sorted(set(names) - set(measured)),
            sorted(set(measured) - set(names))))
    out = {}
    for m in spec:
        got = measured[m["name"]]
        if got["unit"] != m["unit"] or not math.isfinite(got["value"]):
            raise SystemExit("run.py: metric %s reported as %r"
                             % (m["name"], got))
        out[m["name"]] = {"value": got["value"], "unit": m["unit"]}
    return out


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(DEFAULT_SEEDS))
    parser.add_argument("--seed", type=int)
    parser.add_argument("--seconds", type=int, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    seed = DEFAULT_SEEDS[args.workload] if args.seed is None else args.seed
    if seed < 0 or args.seconds < 1:
        parser.error("--seed must be >= 0 and --seconds >= 1")

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    build()

    cmd = [BINARY, "--workload", args.workload, "--seed", str(seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.trace:
        os.makedirs(SPANS_DIR, exist_ok=True)
        cmd += ["--spans-out", os.path.join(
            SPANS_DIR, "%s-seed%d.json" % (args.workload, seed))]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
    if proc.returncode != 0:
        sys.exit("run.py: benchmark exited with %d" % proc.returncode)
    lines = proc.stdout.splitlines()
    report = json.loads(lines[-1])
    for line in lines[:-1]:
        print(line)

    problems = list(report["problems"])
    if seed == DEFAULT_SEEDS[args.workload]:
        with open(os.path.join(HERE, "pinned.json")) as f:
            pinned = json.load(f)[args.workload]
        for key, want in pinned.items():
            got = report["outputs"].get(key)
            if got != want:
                problems.append("pinned %s: got %s, want %s"
                                % (key, got, want))
    for p in problems:
        print("# PROBLEM: " + p)
    correct = not problems
    if args.trace:
        metrics = select_metrics(spec["per_layer"], report["per_layer"])
    else:
        metrics = select_metrics(spec["end_to_end"], report["end_to_end"])
    print("# reps: %d untraced, %d traced; outputs %s"
          % (report["reps"], report["traced_reps"],
             json.dumps(report["outputs"], sort_keys=True)))
    print(json.dumps({
        "correct": correct,
        "attempted": report["attempted"],
        # A rep with wrong outputs fails every operation it made.
        "failed": report["failed"] if correct else report["attempted"],
        "metrics": metrics,
    }))


if __name__ == "__main__":
    main()
