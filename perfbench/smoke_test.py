#!/usr/bin/env python3
"""Smoke test of the benchmark: every workload end to end at a small scale.

Run from the root of a checkout:

    python3 perfbench/smoke_test.py

Each workload runs once untraced and once traced on a 2,000-site, one-week
world. Every run must succeed, report correct output with no failed
operations, and emit exactly the metrics BENCHMARK.json names for its mode,
each with the unit BENCHMARK.json gives it. Every run's campaign digest
must be the same: full collection in memory, delta collection spilled,
and the traced campaign's reference campaign all render identical study
output and ObsReport at one seed.
"""

import json
import os
import subprocess
import sys
import unittest

DIGEST_PREFIX = "campaign digest: "
ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SMALL = ["--population", "2000", "--weeks", "1", "--seconds", "1"]


def load_benchmark():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


_runs = {}


def run(workload, trace):
    cmd = [sys.executable, os.path.join(ROOT, "perfbench", "run.py"),
           "--workload", workload, "--seed", "7", "--trace", str(trace)] + SMALL
    done = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                          timeout=900)
    return done.returncode, done.stdout.strip().splitlines()


def run_once(workload, trace):
    if (workload, trace) not in _runs:
        _runs[workload, trace] = run(workload, trace)
    return _runs[workload, trace]


def workloads():
    return [w["name"] for w in load_benchmark()["workloads"]]


class SmokeTest(unittest.TestCase):
    def check(self, trace, section):
        bench = load_benchmark()
        expected = {m["name"]: m["unit"] for m in bench[section]}
        for workload in workloads():
            with self.subTest(workload=workload, trace=trace):
                code, lines = run_once(workload, trace)
                self.assertEqual(code, 0, "\n".join(lines))
                result = json.loads(lines[-1])
                self.assertEqual(
                    sorted(result), ["attempted", "correct", "failed", "metrics"])
                self.assertTrue(result["correct"], "\n".join(lines))
                self.assertGreaterEqual(result["attempted"], 1)
                self.assertEqual(result["failed"], 0)
                units = {name: m["unit"] for name, m in result["metrics"].items()}
                self.assertEqual(units, expected)
                for name, metric in result["metrics"].items():
                    self.assertIsInstance(metric["value"], (int, float), name)

    def test_untraced_runs_emit_every_end_to_end_metric(self):
        self.check(0, "end_to_end")

    def test_traced_runs_emit_every_per_layer_metric(self):
        self.check(1, "per_layer")

    def test_every_campaign_mode_renders_the_same_digest(self):
        digests = {}
        for workload in workloads():
            for trace in (0, 1):
                _, lines = run_once(workload, trace)
                found = [l[len(DIGEST_PREFIX):] for l in lines
                         if l.startswith(DIGEST_PREFIX)]
                self.assertEqual(len(found), 1, (workload, trace))
                digests[workload, trace] = found[0]
        self.assertEqual(len(set(digests.values())), 1, digests)

    def test_unknown_workload_fails_without_a_result(self):
        code, lines = run("no-such-workload", 0)
        self.assertNotEqual(code, 0)
        self.assertFalse(lines and lines[-1].startswith("{"))


if __name__ == "__main__":
    unittest.main()
