#!/usr/bin/env python3
"""End-to-end training benchmark: one workload, one seed, one run.

    python3 e2ebench/run.py --workload gnmt-eagle --seed 7 --seconds 30 \
        --trace 0

Builds the harness (e2ebench/CMakeLists.txt) from the source tree into
$CARGO_TARGET_DIR (default .bench_build) on first use, runs it, prints a
table of the metrics and, as the last line of stdout, one JSON object:
{"correct", "attempted", "failed", "metrics"}. --trace 0 reports the
end-to-end metrics, --trace 1 the per-layer ones (BENCHMARK.json lists
both). Exits 2 without a result when the harness cannot be built.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

import stats

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("gnmt-eagle", "fuzz40k-metis-2node8", "bert-eagle-ppoce-serial")
# The harness stops starting repetitions at --seconds; this covers the
# last one, setup and the traced run's re-simulation.
HARNESS_TIMEOUT_S = 150
# Set-up time differs between processes by up to ~40 % (one process is
# consistently fast or slow), so setup_s averages the median set-up time
# of this many set-up-only processes plus the training process.
SETUP_PROCESSES = 4


def build_dir():
    target = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    return os.path.join(ROOT, target, "e2ebench")


def build():
    """Configures once and builds the harness; returns its path."""
    out = build_dir()
    steps = []
    # CMake writes the Makefile only when configuring succeeded.
    if not os.path.exists(os.path.join(out, "Makefile")):
        steps.append(["cmake", "-S", HERE, "-B", out,
                      "-DCMAKE_BUILD_TYPE=Release"])
    jobs = str(min(4, os.cpu_count() or 1))
    steps.append(["cmake", "--build", out, "--target", "e2e_harness",
                  "-j", jobs])
    for step in steps:
        done = subprocess.run(step, stdout=subprocess.PIPE,
                              stderr=subprocess.STDOUT, text=True,
                              check=False)
        if done.returncode != 0:
            sys.stderr.write(done.stdout[-4000:])
            print("e2ebench: build step failed: " + " ".join(step),
                  file=sys.stderr)
            sys.exit(2)
    return os.path.join(out, "e2e_harness")


def run_harness(command):
    """Runs the harness and returns its JSON record (its last line)."""
    done = subprocess.run(command, stdout=subprocess.PIPE, text=True,
                          timeout=HARNESS_TIMEOUT_S, check=True)
    return json.loads(done.stdout.strip().splitlines()[-1])


def print_table(record, result, problems):
    print("workload %s seed %d: %d repetitions of %d samples, %d threads" % (
        record["workload"], record["seed"], len(record["reps"]),
        record["samples_per_rep"], record["threads"]))
    for name, metric in result["metrics"].items():
        print("  %-28s %14s %s" % (name, "%.6g" % metric["value"]
                                   if metric["value"] is not None else "null",
                                   metric["unit"]))
    untraced = [r for rep in record["reps"] if not rep["traced"]
                for r in rep["round_s"]]
    value, pct, count = stats.tail(untraced)
    print("  round_s.tail is p%.1f of %d untraced rounds (%.4f s)" % (
        pct, count, value))
    print("  correct %s, %d of %d samples failed" % (
        result["correct"], result["failed"], result["attempted"]))
    for problem in problems:
        print("  FAILED " + problem)


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    harness = build()
    common = [harness, "--workload=" + args.workload, "--seed=%d" % args.seed]
    start = time.monotonic()
    try:
        setup_runs = [run_harness(common + ["--setup-only=1"])
                      for _ in range(SETUP_PROCESSES)]
        remaining = max(args.seconds - (time.monotonic() - start), 1.0)
        record = run_harness(common + ["--seconds=%g" % remaining,
                                       "--trace=%d" % args.trace])
        record["setup_medians"] = [
            statistics.median(s["total_s"] for s in run["setups"])
            for run in setup_runs + [record]]
        crashed = False
    except (subprocess.SubprocessError, ValueError, IndexError) as error:
        print("e2ebench: harness failed: %r" % error, file=sys.stderr)
        crashed = True
    if crashed:
        # The run's samples are unaccounted for: all of them failed.
        print(json.dumps({"correct": False, "attempted": 1, "failed": 1,
                          "metrics": {}}))
        return 1

    result = stats.result(record, trace=args.trace == 1)
    _, _, problems = stats.count_failures(record)
    print_table(record, result, problems)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
