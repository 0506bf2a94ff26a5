#!/usr/bin/env python3
"""One run of the MACE end-to-end benchmark.

    python3 perfbench/run.py --workload fit-score --seed 1 --seconds 30 --trace 0

Run it from the root of a MACE checkout. It builds the benchmark and the
program from source into .bench_build/ (the first run takes minutes), runs
one workload and prints, as the last line of standard output, one JSON
object: correct, attempted, failed and metrics. With --trace 0 the metrics
are the end-to-end metrics of BENCHMARK.json, which every workload measures;
with --trace 1 they are the per-layer metrics of BENCHMARK.json, measured by
the traced binary, plus trace.overhead_pct against an untraced run of the
same seed. A layer the workload does not run reads 0.

--fault NAME corrupts one output on purpose (see README.md, "Output checks");
the matching check must then fail the run, which exits with code 1.
"""

import argparse
import json
import os
import subprocess
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
BUILD_DIR = os.path.join(ROOT, ".bench_build", "perfbench")
WORK_DIR = os.path.join(ROOT, ".bench_build", "work")
MANIFEST = os.path.join(ROOT, "BENCHMARK.json")
WORKLOADS = ("fit-score", "serve-tumbling", "wire-router")
# The rate the traced run is compared against for trace.overhead_pct.
RATE = "throughput_per_s"
OVERHEAD = "trace.overhead_pct"
# The sample count behind each workload's latency_p50_us.
LATENCY_SAMPLES = {
    "serve-tumbling": "serve.latency_samples",
    "wire-router": "net.latency_samples",
}
# Layer entries that are sample counts: printed as text beside the
# percentiles they stand behind, not reported as metrics.
SAMPLE_SUFFIX = "_samples"
BUILD_TIMEOUT_S = 880
RUN_TIMEOUT_S = 80


def fail(message):
    print("run.py: " + message, file=sys.stderr)
    sys.exit(1)


def build(targets):
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("no MACE source tree around " + BENCH_DIR)
    steps = []
    if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        steps.append(["cmake", "-S", BENCH_DIR, "-B", BUILD_DIR,
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", BUILD_DIR, "-j", str(os.cpu_count() or 1),
                  "--target"] + list(targets))
    for step in steps:
        try:
            # Build output goes to stderr; stdout carries only the result.
            done = subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr,
                                  timeout=BUILD_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            fail("build timed out: " + " ".join(step))
        if done.returncode != 0:
            fail("build failed: " + " ".join(step))


def manifest_metrics():
    """End-to-end metric names and per-layer {name: unit}, from
    BENCHMARK.json."""
    try:
        with open(MANIFEST) as f:
            spec = json.load(f)
    except (OSError, ValueError) as error:
        fail("cannot read %s: %s" % (MANIFEST, error))
    return ([m["name"] for m in spec["end_to_end"]],
            {m["name"]: m["unit"] for m in spec["per_layer"]})


def run_binary(binary, args, extra=()):
    command = [os.path.join(BUILD_DIR, binary),
               "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--fault", args.fault,
               "--work-dir", WORK_DIR] + list(extra)
    try:
        done = subprocess.run(command, stdout=subprocess.PIPE,
                              stderr=sys.stderr, timeout=RUN_TIMEOUT_S,
                              cwd=ROOT, text=True)
    except subprocess.TimeoutExpired:
        fail(binary + " timed out")
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        fail("%s exited with %d" % (binary, done.returncode))
    result = json.loads(lines[-1])
    for group in ("metrics", "layers"):
        for name, metric in result[group].items():
            if metric["value"] is None:
                fail("%s measured no value for %s" % (binary, name))
    return result


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[1])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--fault", default="none")
    args = parser.parse_args()
    if args.seed < 0 or args.seconds < 1:
        parser.error("--seed must be >= 0 and --seconds >= 1")

    end_to_end, per_layer = manifest_metrics()
    build(["perfbench"] if args.trace == 0 else ["perfbench", "perfbench_traced"])
    os.makedirs(WORK_DIR, exist_ok=True)
    if args.trace == 0:
        run = run_binary("perfbench", args)
        samples = LATENCY_SAMPLES.get(args.workload)
        if samples:
            print("latency_p50_us over %d samples"
                  % run["layers"][samples]["value"])
        metrics = run["metrics"]
        if sorted(metrics) != sorted(end_to_end):
            fail("perfbench measured %s, BENCHMARK.json names %s"
                 % (sorted(metrics), sorted(end_to_end)))
        correct = run["correct"]
        attempted, failed = run["attempted"], run["failed"]
    else:
        plain = run_binary("perfbench", args)
        trace_file = os.path.join(
            WORK_DIR, "trace-%s-%d.json" % (args.workload, args.seed))
        traced = run_binary("perfbench_traced", args,
                            ["--trace-out", trace_file])
        print("spans written to " + os.path.relpath(trace_file, ROOT),
              file=sys.stderr)
        metrics = {}
        for name, metric in traced["layers"].items():
            if name.endswith(SAMPLE_SUFFIX):
                print("%s %d" % (name, metric["value"]))
            elif name in per_layer:
                metrics[name] = metric
            else:
                fail("perfbench_traced measured %s, which BENCHMARK.json "
                     "does not name" % name)
        metrics[OVERHEAD] = {
            "value": 100.0 * (plain["metrics"][RATE]["value"]
                              / traced["metrics"][RATE]["value"] - 1.0),
            "unit": "%",
        }
        # Every workload reports every layer; one it does not run did no
        # work in it, which reads 0 (README.md lists which run where).
        for name, unit in per_layer.items():
            if name not in metrics:
                metrics[name] = {"value": 0, "unit": unit}
        correct = plain["correct"] and traced["correct"]
        attempted = plain["attempted"] + traced["attempted"]
        failed = plain["failed"] + traced["failed"]

    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    sys.exit(0 if correct else 1)


if __name__ == "__main__":
    main()
