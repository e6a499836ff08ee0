#!/usr/bin/env python3
"""Steadiness check: runs each workload with several seeds and reports, for
every end-to-end metric, the median, the quartiles, the spread between them
and the largest deviation from the median, each against the metric's bound
in BENCHMARK.json. A metric whose quartile spread exceeds a third of its
bound is flagged, setup_s included, and the run ends "NOT steady".

    python3 vqibench/steady.py [--runs 10] [--workloads a,b] [--first-seed 1]
                               [--traced]

Run from the repository root. --traced adds one traced run per workload and
prints the tracing overhead: how far its end-to-end numbers sit from the
untraced medians.
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


def run(workload, seed, seconds, trace):
    """Returns (result JSON, traced end-to-end JSON or None, wall seconds)."""
    start = time.monotonic()
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace",
         "1" if trace else "0"],
        cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
    wall = time.monotonic() - start
    if proc.returncode != 0:
        sys.exit("%s seed %d failed:\n%s" % (workload, seed, proc.stderr[-2000:]))
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    traced_e2e = None
    for line in proc.stderr.splitlines():
        if line.startswith("traced-run end-to-end: "):
            traced_e2e = json.loads(line.split(": ", 1)[1])
    return result, traced_e2e, wall


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--workloads", default="")
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--traced", action="store_true")
    args = parser.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    workloads = [w["name"] for w in bench["workloads"]]
    if args.workloads:
        workloads = args.workloads.split(",")
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    all_steady = True
    for workload in workloads:
        values = {name: [] for name in bounds}
        shares, walls = set(), []
        for i in range(args.runs):
            result, _, wall = run(workload, args.first_seed + i,
                                  bench["run_seconds"], False)
            walls.append(wall)
            if not result["correct"]:
                all_steady = False
                print("%s seed %d: correct is false" %
                      (workload, args.first_seed + i))
            shares.add((result["failed"], result["attempted"]))
            for name in bounds:
                values[name].append(result["metrics"][name]["value"])
        print("\n== %s: %d runs, wall %.1f-%.1f s, failed/attempted %s" %
              (workload, args.runs, min(walls), max(walls),
               " ".join("%d/%d" % s for s in sorted(shares))))
        if len({f / a for f, a in shares}) > 1:
            all_steady = False
            print("   failed share differs between runs")
        print("   %-18s %12s %12s %12s %8s %8s %6s" %
              ("metric", "q1", "median", "q3", "spread", "maxdev", "bound"))
        for name, vals in values.items():
            q1, med, q3 = statistics.quantiles(vals, n=4)
            spread = (q3 - q1) / med if med else float("inf")
            maxdev = max(abs(v - med) for v in vals) / med if med else float("inf")
            limit = bounds[name] / 3
            flag = "" if spread <= limit else "  > bound/3"
            if spread > bounds[name]:
                flag = "  > bound"
            if flag:
                all_steady = False
            print("   %-18s %12.6g %12.6g %12.6g %8.3f %8.3f %6.2f%s" %
                  (name, q1, med, q3, spread, maxdev, bounds[name], flag))
        if args.traced:
            _, traced, wall = run(workload, args.first_seed, bench["run_seconds"],
                                  True)
            print("   traced run (%.1f s): overhead vs untraced median" % wall)
            for name, vals in values.items():
                med = statistics.median(vals)
                got = traced["metrics"][name]["value"]
                print("     %-18s %+7.1f%%" % (name, 100 * (got / med - 1)))
    print("\nsteady" if all_steady else "\nNOT steady")
    return 0 if all_steady else 1


if __name__ == "__main__":
    sys.exit(main())
