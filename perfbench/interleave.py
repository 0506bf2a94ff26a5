#!/usr/bin/env python3
"""Interleaved repeated runs of the benchmark, summarized per metric.

    python3 perfbench/interleave.py --runs 10 --sets 2 --seconds 10

Runs every workload in turn, --runs times, each run with a seed of its own
(set s, run i gets seed 1 + 1000 * s + i). With --sets 2 the two
sets alternate run by run, so host drift lands on both alike. For each
workload and metric it prints the median and quartiles of every set
(statistics.quantiles(values, n=4)), the spread (q3 - q1) / median, the
metric's bound from BENCHMARK.json, and how much worse the last set's
median is than the first's, as a share of the first. This is how the
bounds were set and how README.md's reference table was made.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)


def run_once(workload, seed, seconds):
    command = [sys.executable, os.path.join(BENCH_DIR, "run.py"),
               "--workload", workload, "--seed", str(seed),
               "--seconds", str(seconds), "--trace", "0"]
    done = subprocess.run(command, stdout=subprocess.PIPE,
                          stderr=subprocess.DEVNULL, cwd=ROOT, text=True)
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        print("run failed: " + " ".join(command[1:]), file=sys.stderr)
        return None
    return json.loads(lines[-1])


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[1])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--sets", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=None,
                        help="default: run_seconds of BENCHMARK.json")
    args = parser.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    seconds = args.seconds or spec["run_seconds"]
    workloads = [w["name"] for w in spec["workloads"]]
    bounds = {m["name"]: m for m in spec["end_to_end"]}

    # results[workload][set] = list of run results
    results = {w: [[] for _ in range(args.sets)] for w in workloads}
    for i in range(args.runs):
        order = list(range(args.sets))
        if i % 2 == 1:
            order.reverse()
        for s in order:
            for workload in workloads:
                seed = 1 + 1000 * s + i
                result = run_once(workload, seed, seconds)
                results[workload][s].append(result)
                status = "ok" if result else "FAILED"
                print("run %d set %d %s seed %d: %s"
                      % (i + 1, s + 1, workload, seed, status),
                      file=sys.stderr, flush=True)

    for workload in workloads:
        print("\n%s (%d runs per set, %d s each)"
              % (workload, args.runs, seconds))
        print("%-28s %4s %14s %14s %14s %8s %6s %9s"
              % ("metric", "set", "median", "q1", "q3", "spread", "bound",
                 "worse_by"))
        sets = results[workload]
        for s, runs in enumerate(sets):
            done = [r for r in runs if r]
            failed = sum(r["failed"] for r in done)
            attempted = sum(r["attempted"] for r in done)
            print("  set %d: %d of %d runs ok and correct=%s, failed %d of %d"
                  % (s + 1, len(done), len(runs),
                     all(r["correct"] for r in done), failed, attempted))
        names = []
        for runs in sets:
            for r in runs:
                for name in (r or {}).get("metrics", {}):
                    if name not in names:
                        names.append(name)
        for name in names:
            medians = []
            for s, runs in enumerate(sets):
                values = [r["metrics"][name]["value"] for r in runs
                          if r and name in r["metrics"]]
                if len(values) < 2:
                    continue
                q1, median, q3 = statistics.quantiles(values, n=4)
                medians.append(median)
                spec_entry = bounds.get(name, {})
                worse = ""
                if s > 0 and "better" in spec_entry and medians[0] != 0:
                    change = (median - medians[0]) / abs(medians[0])
                    if spec_entry["better"] == "higher":
                        change = -change
                    worse = "%+.3f" % change
                bound = spec_entry.get("bound")
                print("%-28s %4d %14.6g %14.6g %14.6g %8.3f %6s %9s"
                      % (name, s + 1, median, q1, q3,
                         (q3 - q1) / abs(median) if median else float("nan"),
                         "" if bound is None else "%.2f" % bound, worse))


if __name__ == "__main__":
    main()
