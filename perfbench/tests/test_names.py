#!/usr/bin/env python3
"""Checks that BENCHMARK.json is well formed and that every metric name the
benchmark prints, in its table and in its JSON result line, is the one
BENCHMARK.json declares, with the same unit, for every workload in both
modes.

    python3 perfbench/tests/test_names.py <path to the perfbench binary>
"""
import json
import re
import subprocess
import sys
import unittest
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent.parent
SPEC = json.loads((BENCH_DIR.parent / "BENCHMARK.json").read_text())
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")
BINARY = None


def run(workload, trace):
    out = subprocess.run(
        [BINARY, "--workload", workload, "--seed", "1", "--seconds", "0.1",
         "--trace", str(trace),
         "--golden", str(BENCH_DIR / "golden" / f"{workload}.txt")],
        capture_output=True, text=True, timeout=170)
    return out


class BenchmarkSpec(unittest.TestCase):
    def test_keys_and_limits(self):
        self.assertEqual(set(SPEC), {"command", "paths", "run_seconds", "workloads",
                                     "end_to_end", "per_layer"})
        self.assertTrue(1 <= SPEC["run_seconds"] <= 60)
        self.assertTrue(2 <= len(SPEC["workloads"]) <= 8)
        names = []
        for w in SPEC["workloads"]:
            self.assertEqual(set(w), {"name", "why"})
            self.assertLessEqual(len(w["why"]), 200)
            names.append(w["name"])
        for m in SPEC["end_to_end"]:
            self.assertEqual(set(m), {"name", "unit", "better", "bound"})
            self.assertLessEqual(m["bound"], 0.25)
            names.append(m["name"])
        for m in SPEC["per_layer"]:
            self.assertEqual(set(m), {"name", "unit", "better"})
            names.append(m["name"])
        for m in SPEC["end_to_end"] + SPEC["per_layer"]:
            self.assertRegex(m["unit"], UNIT)
            self.assertIn(m["better"], ("lower", "higher"))
        for name in names:
            self.assertRegex(name, NAME)
        self.assertEqual(len(names), len(set(names)))
        setup = [m for m in SPEC["end_to_end"] if m["name"] == "setup_s"]
        self.assertEqual(len(setup), 1)
        self.assertEqual((setup[0]["unit"], setup[0]["better"]), ("s", "lower"))
        self.assertEqual(setup[0]["bound"], max(m["bound"] for m in SPEC["end_to_end"]))


class PrintedNames(unittest.TestCase):
    def check(self, workload, trace):
        out = run(workload, trace)
        self.assertEqual(out.returncode, 0, out.stderr)
        lines = out.stdout.rstrip("\n").split("\n")
        result = json.loads(lines[-1])
        self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
        self.assertTrue(result["correct"], out.stderr)
        self.assertEqual(result["failed"], 0)
        self.assertGreaterEqual(result["attempted"], 1)
        wanted = {m["name"]: m["unit"]
                  for m in SPEC["per_layer" if trace else "end_to_end"]}
        printed = {name: m["unit"] for name, m in result["metrics"].items()}
        self.assertEqual(printed, wanted)
        # The human-readable table lists the same names and units.
        start = lines.index(next(l for l in lines if l.startswith("metric ")))
        table = {}
        for line in lines[start + 1:-1]:
            name, _, unit = line.split()
            table[name] = unit
        self.assertEqual(table, wanted)

    def test_packet_uniform(self):
        self.check("packet-uniform", 0)
        self.check("packet-uniform", 1)

    def test_packet_hotspot_faulted(self):
        self.check("packet-hotspot-faulted", 0)
        self.check("packet-hotspot-faulted", 1)

    def test_topology_analysis(self):
        self.check("topology-analysis", 0)
        self.check("topology-analysis", 1)

    def test_every_declared_workload_is_checked(self):
        checked = {name[len("test_"):].replace("_", "-")
                   for name in dir(self) if name.startswith("test_")}
        for w in SPEC["workloads"]:
            self.assertIn(w["name"], checked)

    def test_unknown_workload_is_refused(self):
        self.assertEqual(run("no-such-workload", 0).returncode, 2)


if __name__ == "__main__":
    BINARY = sys.argv.pop(1)
    unittest.main()
