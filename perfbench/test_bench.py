#!/usr/bin/env python3
"""The benchmark's own tests.

    python3 perfbench/test_bench.py

Runs every workload at smoke size, traced and untraced, and checks that
the printed metric names and units are exactly those of BENCHMARK.json and
that every answer was right. Then checks that a deliberately wrong model
fails the run. The Rust unit tests (generators, oracle, spans) run with
`cargo test --manifest-path perfbench/Cargo.toml`.
"""

import json
import os
import shutil
import subprocess
import sys
import tempfile
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("read_hot", "read_cold", "ingest_read")


def run_bench(*args):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--smoke", "--seconds", "1", *args]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
    lines = proc.stdout.strip().splitlines()
    return proc.returncode, (json.loads(lines[-1]) if lines else None), proc.stdout


class SmokeRun(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
            cls.spec = json.load(f)

    def check_metrics(self, kind, trace):
        code, result, out = run_bench("--workload", "all", "--seed", "5", "--trace", trace)
        self.assertEqual(code, 0, out)
        self.assertIs(result["correct"], True)
        self.assertEqual(result["failed"], 0)
        self.assertGreater(result["attempted"], 0)
        expected = {f"{w}/{m['name']}": m["unit"] for w in WORKLOADS for m in self.spec[kind]}
        got = {name: metric["unit"] for name, metric in result["metrics"].items()}
        self.assertEqual(got, expected)
        for name, metric in result["metrics"].items():
            self.assertIsInstance(metric["value"], (int, float), name)
        for w in WORKLOADS:
            self.assertIn(f"== {w} ", out)
            self.assertIn("failed_frac", out)

    def test_end_to_end_metrics_match_the_spec(self):
        self.check_metrics("end_to_end", "0")

    def test_per_layer_metrics_match_the_spec(self):
        self.check_metrics("per_layer", "1")

    def test_end_to_end_metrics_are_never_zero(self):
        for w in WORKLOADS:
            code, result, out = run_bench("--workload", w, "--seed", "6")
            self.assertEqual(code, 0, out)
            for name, metric in result["metrics"].items():
                self.assertGreater(metric["value"], 0, f"{w}/{name}")

    def test_a_wrong_expected_set_fails_the_run(self):
        for w in WORKLOADS:
            code, result, out = run_bench("--workload", w, "--seed", "7", "--corrupt-oracle")
            self.assertNotEqual(code, 0, f"{w} passed against a wrong model")
            self.assertIs(result["correct"], False, w)
            self.assertGreater(result["failed"], 0, w)


class WithoutTheProgram(unittest.TestCase):
    def test_fails_without_printing_a_result(self):
        """Beside only BENCHMARK.json and this directory there is nothing to
        build, so the command must fail and print no result."""
        work_root = os.path.join(ROOT, ".bench_work")
        os.makedirs(work_root, exist_ok=True)
        tmp = tempfile.mkdtemp(prefix="bare-", dir=work_root)
        try:
            shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp)
            shutil.copytree(HERE, os.path.join(tmp, "perfbench"),
                            ignore=shutil.ignore_patterns("target", "__pycache__"))
            env = dict(os.environ)
            env.pop("CARGO_TARGET_DIR", None)
            proc = subprocess.run(
                [sys.executable, "perfbench/run.py", "--workload", "read_hot", "--seed", "1",
                 "--seconds", "1", "--trace", "0"],
                cwd=tmp, capture_output=True, text=True, timeout=180, env=env)
            self.assertNotEqual(proc.returncode, 0)
            self.assertNotIn('"correct"', proc.stdout)
        finally:
            shutil.rmtree(tmp, ignore_errors=True)


if __name__ == "__main__":
    unittest.main()
