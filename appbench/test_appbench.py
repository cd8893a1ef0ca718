#!/usr/bin/env python3
"""The benchmark's own tests. Run from the root of a checkout:

    python3 appbench/test_appbench.py

They build the benchmark (as run.py does), run its generator and checker
self-test, smoke-run every workload untraced and traced for a few seconds
at full data size, and check that a directory holding only the benchmark
fails without a result.
"""

import json
import os
import shutil
import subprocess
import sys
import tempfile
import unittest

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
sys.path.insert(0, BENCH_DIR)
import run  # noqa: E402


def declared():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return spec


class AppbenchTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        run.build()

    def test_generator_and_checker_selftest(self):
        proc = subprocess.run([run.BINARY, "selftest"], capture_output=True,
                              text=True, timeout=120)
        self.assertEqual(proc.returncode, 0, proc.stderr)
        self.assertIn("selftest: ok", proc.stdout)

    def smoke(self, workload, trace):
        # 3 s: at least one interactive and one analytic phase.
        proc = subprocess.run(
            [sys.executable, os.path.join(BENCH_DIR, "run.py"),
             "--workload", workload, "--seed", "5", "--seconds", "3",
             "--trace", trace],
            capture_output=True, text=True, timeout=300, cwd=ROOT)
        self.assertEqual(proc.returncode, 0, proc.stderr[-3000:])
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        self.assertEqual(set(result), {"correct", "attempted", "failed",
                                       "metrics"})
        self.assertTrue(result["correct"])
        self.assertEqual(result["failed"], 0)
        self.assertGreater(result["attempted"], 0)
        kind = "per_layer" if trace == "1" else "end_to_end"
        want = {m["name"]: m["unit"] for m in declared()[kind]}
        got = {name: m["unit"] for name, m in result["metrics"].items()}
        self.assertEqual(got, want)
        return result["metrics"]

    def test_smoke_runs(self):
        for workload in [w["name"] for w in declared()["workloads"]]:
            with self.subTest(workload=workload):
                metrics = self.smoke(workload, "0")
                for name, metric in metrics.items():
                    self.assertGreater(metric["value"], 0, name)
                self.smoke(workload, "1")

    def test_fails_without_program_sources(self):
        with tempfile.TemporaryDirectory() as tmp:
            shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp)
            shutil.copytree(BENCH_DIR, os.path.join(tmp, "appbench"),
                            ignore=shutil.ignore_patterns("__pycache__"))
            proc = subprocess.run(
                [sys.executable, "appbench/run.py", "--workload",
                 "views_1node", "--seed", "1", "--seconds", "1",
                 "--trace", "0"],
                capture_output=True, text=True, timeout=170, cwd=tmp)
            self.assertNotEqual(proc.returncode, 0)
            self.assertEqual(proc.stdout.strip(), "")


if __name__ == "__main__":
    unittest.main()
