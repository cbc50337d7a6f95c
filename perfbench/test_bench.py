#!/usr/bin/env python3
"""Smoke tests for the benchmark: every workload at smoke size, in both
modes, must pass its output checks and print exactly the metrics that
BENCHMARK.json names, each with its unit.

Run from anywhere: python3 perfbench/test_bench.py
"""

import json
import os
import subprocess
import sys
import unittest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
    SPEC = json.load(f)


def bench(*args):
    cmd = [sys.executable, os.path.join(ROOT, "perfbench", "run.py"), *args]
    return subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)


class Smoke(unittest.TestCase):
    def run_workload(self, workload, trace):
        out = bench("--workload", workload, "--seed", "7", "--seconds", "2",
                    "--trace", str(trace), "--smoke")
        self.assertEqual(out.returncode, 0, out.stdout + out.stderr)
        result = json.loads(out.stdout.strip().splitlines()[-1])
        self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
        self.assertIs(result["correct"], True)
        self.assertEqual(result["failed"], 0)
        self.assertGreaterEqual(result["attempted"], 1)
        kind = "per_layer" if trace else "end_to_end"
        expected = {m["name"]: m["unit"] for m in SPEC[kind]}
        printed = {name: m["unit"] for name, m in result["metrics"].items()}
        self.assertEqual(printed, expected)
        for name, m in result["metrics"].items():
            self.assertIsInstance(m["value"], (int, float), name)
            if not trace:
                self.assertGreater(m["value"], 0, name)

    def test_workloads_are_named(self):
        names = [w["name"] for w in SPEC["workloads"]]
        self.assertEqual(names, ["fixw_paper", "fleet_ramp", "daemon_poll"])

    def test_unknown_workload_fails_without_a_result(self):
        out = bench("--workload", "nope", "--seed", "1", "--seconds", "1", "--trace", "0")
        self.assertNotEqual(out.returncode, 0)
        self.assertNotIn('"correct"', out.stdout)


def _add(workload, trace):
    def test(self):
        self.run_workload(workload, trace)
    setattr(Smoke, f"test_{workload}_trace_{trace}", test)


for _w in SPEC["workloads"]:
    for _t in (0, 1):
        _add(_w["name"], _t)


if __name__ == "__main__":
    unittest.main()
