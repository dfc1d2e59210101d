#!/usr/bin/env python3
"""Builds and runs the benchmark for one workload.

Run from the repository root:

    python3 perfbench/run.py --workload train-seq2seq --seed 1 \
        --seconds 10 --trace 0

The first run configures and builds the program and the benchmark
binary under .bench_build/perfbench (later runs rebuild incrementally).
The binary's last stdout line, one JSON object, is checked against
BENCHMARK.json's metric list and printed as this script's last line.
Exits nonzero, without a result line, if the build fails, the binary
fails, or the result does not match the declared metrics. See
perfbench/README.md.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
BINARY = os.path.join(BUILD, "perfbench")
# A run must end within 180 s; leave room for the build check.
BINARY_TIMEOUT_S = 170
BUILD_JOBS = "4"


def fail(message):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(1)


def build():
    """Configures once, then builds the binary; output goes to stderr."""
    steps = []
    if not os.path.exists(os.path.join(BUILD, "Makefile")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD, "--target", "perfbench",
                  "-j", BUILD_JOBS])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            fail("build failed: " + " ".join(cmd))


def declared_metrics(trace):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return {m["name"]: m["unit"]
            for m in spec["per_layer" if trace else "end_to_end"]}


def check_result(line, trace):
    """Returns the parsed result line, or exits if it is malformed."""
    try:
        result = json.loads(line)
    except ValueError:
        fail("last binary line is not JSON: " + line[:200])
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        fail("result keys are " + ", ".join(sorted(result)))
    got = {name: m.get("unit") for name, m in result["metrics"].items()}
    want = declared_metrics(trace)
    if got != want:
        missing = sorted(set(want) - set(got))
        extra = sorted(set(got) - set(want))
        fail("metrics differ from BENCHMARK.json: missing %s, extra %s, "
             "or units differ" % (missing, extra))
    if not isinstance(result["attempted"], int) or result["attempted"] < 1:
        fail("no operation was attempted")
    return result


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    build()
    cmd = [BINARY, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--reference", os.path.join(HERE, "reference.txt"),
           "--artifact-dir", os.path.join(BUILD, "traces")]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=BINARY_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("binary ran past %d s" % BINARY_TIMEOUT_S)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        for line in lines:
            print(line, file=sys.stderr)
        fail("binary exited with code %d" % proc.returncode)
    result = check_result(lines[-1], args.trace)
    if not result["correct"]:
        fail("output checks failed")
    for line in lines[:-1]:
        print(line)
    print(json.dumps(result))


if __name__ == "__main__":
    main()
