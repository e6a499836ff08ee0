#!/usr/bin/env python3
"""Builds the vqlib benchmark and runs one workload.

    python3 vqibench/run.py --workload <name> --seed <n> --seconds <s> \
        --trace <0|1> [--fast]

Run from the repository root. The first call configures and compiles the
library sources and the driver (Release) into .bench_build/; later calls
only rebuild what changed. The driver's output is passed through: its last
line of standard output is the JSON result. Exits non-zero, printing no
result, when the build or the run fails.
"""
import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
BINARY = os.path.join(BUILD, "vqibench")
WORKLOADS = ("collection", "network", "serve_zipf", "serve_unique")
RUN_TIMEOUT_S = 170


def build():
    """Configures on first use, then compiles; returns True on success."""
    steps = []
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD, "-j", "4", "--target",
                  "vqibench"])
    for step in steps:
        # Build chatter goes to stderr so stdout stays the result alone.
        if subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr).returncode:
            return False
    return True


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", choices=("0", "1"), required=True)
    parser.add_argument("--fast", action="store_true",
                        help="tiny inputs that still exercise every check")
    args = parser.parse_args()

    if not build():
        print("benchmark build failed", file=sys.stderr)
        return 1
    command = [BINARY, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", args.trace]
    if args.fast:
        command.append("--fast")
    try:
        run = subprocess.run(command, stdout=subprocess.PIPE,
                             timeout=RUN_TIMEOUT_S, text=True)
    except subprocess.TimeoutExpired:
        print("workload timed out", file=sys.stderr)
        return 1
    lines = run.stdout.strip().splitlines()
    if run.returncode != 0 or not lines:
        print("workload failed with exit code %d" % run.returncode,
              file=sys.stderr)
        return 1
    try:
        json.loads(lines[-1])
    except ValueError:
        print("workload printed no JSON result", file=sys.stderr)
        return 1
    sys.stdout.write(run.stdout)
    return 0


if __name__ == "__main__":
    sys.exit(main())
