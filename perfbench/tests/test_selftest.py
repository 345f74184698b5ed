#!/usr/bin/env python3
"""Tiny-size self-test of every benchmark workload.

Runs each workload at --tiny scale, untraced and traced, and checks that
the result line carries exactly the metrics BENCHMARK.json names with
their units, that every printed metric shows its sample count, and that
every correctness gate passed (the run exits nonzero otherwise).

    python3 perfbench/tests/test_selftest.py
"""

import json
import re
import subprocess
import sys
import unittest
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
METRIC_LINE = re.compile(
    r"^(e2e|layer)\s+(\S+)\s+(-?[0-9.]+)\s+(\S+)\s+samples=(\d+)$")


def run(workload, trace):
    return subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload",
         workload, "--seed", "7", "--seconds", "1", "--trace", str(trace),
         "--tiny"],
        capture_output=True, text=True, timeout=900, cwd=ROOT)


class WorkloadSelfTest(unittest.TestCase):

    def check(self, workload, trace):
        proc = run(workload, trace)
        self.assertEqual(proc.returncode, 0, proc.stdout + proc.stderr)
        lines = proc.stdout.strip().splitlines()
        result = json.loads(lines[-1])
        self.assertEqual(set(result),
                         {"correct", "attempted", "failed", "metrics"})
        self.assertIs(result["correct"], True)
        self.assertGreaterEqual(result["attempted"], 1)
        self.assertLessEqual(result["failed"], result["attempted"])

        group = "per_layer" if trace else "end_to_end"
        expected = {m["name"]: m["unit"] for m in SPEC[group]}
        got = {name: m["unit"] for name, m in result["metrics"].items()}
        self.assertEqual(got, expected)
        for name, m in result["metrics"].items():
            self.assertIsInstance(m["value"], (int, float), name)

        printed = {}
        for line in lines:
            match = METRIC_LINE.match(line)
            if match:
                printed[match.group(2)] = match.group(4)
        for name, unit in expected.items():
            self.assertEqual(printed.get(name), unit,
                             f"{name} not printed with unit and samples")
        self.assertIn("failed_frac", proc.stdout)
        fingerprint = [l for l in lines if l.startswith("fingerprint ")]
        self.assertEqual(len(fingerprint), 1)
        fp = json.loads(fingerprint[0][len("fingerprint "):])
        for key in ("nproc", "kernel", "compiler", "build_type", "source",
                    "seed"):
            self.assertIn(key, fp)


def add_cases():
    for w in SPEC["workloads"]:
        for trace in (0, 1):
            name = "test_%s_trace%d" % (w["name"].replace("-", "_"), trace)
            setattr(WorkloadSelfTest, name,
                    lambda self, w=w["name"], t=trace: self.check(w, t))


add_cases()

if __name__ == "__main__":
    unittest.main()
