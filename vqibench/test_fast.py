#!/usr/bin/env python3
"""Tests of the benchmark itself.

    python3 vqibench/test_fast.py

Run from the repository root. Builds the benchmark, checks the oracle on
hand-counted cases, runs every workload in fast mode (tiny inputs that still
go through every check), untraced and traced, and checks that a directory
holding only the benchmark fails cleanly.
"""
import json
import os
import re
import shutil
import subprocess
import sys
import tempfile
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN = os.path.join(HERE, "run.py")


def load_bench():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


class FastModeTest(unittest.TestCase):
    bench = load_bench()

    def run_workload(self, workload, trace):
        proc = subprocess.run(
            [sys.executable, RUN, "--workload", workload, "--seed", "7",
             "--seconds", "2", "--trace", str(trace), "--fast"],
            cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
            text=True, timeout=600)
        self.assertEqual(proc.returncode, 0, proc.stderr[-3000:])
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        counts = {}
        for name, pattern in (
                ("stale", r"suggestions sent after the first batch: (\d+) "
                          r"\(failed as stale: (\d+)\)"),
                ("merged", r"suggestions the router merge gets wrong: (\d+) "
                           r"\(failed as merged: (\d+)\)")):
            found = re.search(pattern, proc.stderr)
            self.assertIsNotNone(found, proc.stderr[-3000:])
            # The expected count, worked out before serving, is the count
            # that failed.
            self.assertEqual(found.group(1), found.group(2), name)
            counts[name] = int(found.group(1))
        unrealised = re.search(r"realisation checks failed: (\d+)",
                               proc.stderr)
        self.assertIsNotNone(unrealised, proc.stderr[-3000:])
        counts["unrealised"] = int(unrealised.group(1))
        return result, counts, proc.stderr

    def check(self, workload, trace):
        result, counts, stderr = self.run_workload(workload, trace)
        self.assertEqual(set(result), {"correct", "attempted", "failed",
                                       "metrics"})
        self.assertTrue(result["correct"], stderr[-3000:])
        self.assertGreater(result["attempted"], 0)
        # The only failures are those of the known faults: stale suggestions
        # (serve_zipf), the router's suggestion merge (serve_unique) and
        # canned patterns that occur in no data graph.
        self.assertEqual(result["failed"], sum(counts.values()),
                         stderr[-3000:])
        self.assertEqual(counts["stale"] > 0, workload == "serve_zipf")
        self.assertEqual(counts["merged"] > 0, workload == "serve_unique")
        listed = self.bench["per_layer" if trace else "end_to_end"]
        self.assertEqual(set(result["metrics"]), {m["name"] for m in listed})
        for metric in listed:
            got = result["metrics"][metric["name"]]
            self.assertEqual(got["unit"], metric["unit"], metric["name"])
            if not trace:
                self.assertGreater(got["value"], 0, metric["name"])

    def test_workloads(self):
        for workload in self.bench["workloads"]:
            for trace in (0, 1):
                with self.subTest(workload=workload["name"], trace=trace):
                    self.check(workload["name"], trace)

    def test_oracle(self):
        subprocess.run([sys.executable, RUN, "--workload", "collection",
                        "--seed", "1", "--seconds", "1", "--trace", "0",
                        "--fast"], cwd=ROOT, stdout=subprocess.DEVNULL,
                       stderr=subprocess.DEVNULL, check=True, timeout=600)
        proc = subprocess.run(
            [os.path.join(ROOT, ".bench_build", "vqibench"), "--self-test"],
            stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True)
        self.assertEqual(proc.returncode, 0, proc.stdout)

    def test_fails_without_sources(self):
        with tempfile.TemporaryDirectory() as bare:
            shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
            shutil.copytree(HERE, os.path.join(bare, "vqibench"),
                            ignore=shutil.ignore_patterns("__pycache__"))
            proc = subprocess.run(
                [sys.executable, "vqibench/run.py", "--workload", "collection",
                 "--seed", "1", "--seconds", "1", "--trace", "0"],
                cwd=bare, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                text=True, timeout=170)
            self.assertNotEqual(proc.returncode, 0)
            self.assertEqual(proc.stdout, "")


if __name__ == "__main__":
    unittest.main()
