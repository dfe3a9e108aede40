#!/usr/bin/env python3
"""Tests of the benchmark's own checks.

    python3 perfbench/test_checks.py

Each test runs the benchmark through run.py with a short run, on the cheaper
workload unless it needs the other. A fault injected into the gate (a flipped
container byte, or a bound tightened below what the codec guarantees) must be
counted, printed, turn `correct` false and make the exit status 1, with no
crash; that holds for the SZx calls of the traced run too. A clean run
on a non-default seed must pass, and a tree without the library sources must
fail without printing a result.
"""

import json
import os
import shutil
import subprocess
import sys
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RUN = ["python3", str(HERE / "run.py")]
SHORT = ["--workload", "wavesz-nyx-t4", "--seconds", "1"]


def run(*args, cwd=ROOT):
    proc = subprocess.run([*RUN, *SHORT, *args], cwd=cwd,
                          capture_output=True, text=True, timeout=600)
    lines = proc.stdout.strip().splitlines()
    result = None
    if lines and lines[-1].startswith("{"):
        result = json.loads(lines[-1])
    return proc, result


class GateTest(unittest.TestCase):
    def assert_caught(self, proc, result):
        self.assertEqual(proc.returncode, 1, proc.stderr)
        self.assertIsNotNone(result, proc.stdout)
        self.assertFalse(result["correct"])
        self.assertGreater(result["failed"], 0)
        self.assertLessEqual(result["failed"], result["attempted"])
        self.assertIn("FAIL ", proc.stdout)

    def test_clean_run_on_second_seed_passes(self):
        proc, result = run("--seed", "7", "--trace", "0")
        self.assertEqual(proc.returncode, 0, proc.stdout + proc.stderr)
        self.assertTrue(result["correct"])
        self.assertEqual(result["failed"], 0)
        self.assertEqual(result["metrics"]["success_rate"]["value"], 1.0)

    def test_flipped_container_byte_is_caught(self):
        proc, result = run("--seed", "0", "--trace", "0",
                           "--inject", "flip-byte")
        self.assert_caught(proc, result)
        self.assertLess(result["metrics"]["success_rate"]["value"], 1.0)

    def test_tightened_bound_is_caught(self):
        proc, result = run("--seed", "0", "--trace", "0",
                           "--inject", "tight-bound")
        self.assert_caught(proc, result)
        self.assertIn("breaks the bound", proc.stdout)
        self.assertLess(result["metrics"]["success_rate"]["value"], 1.0)

    def test_traced_run_catches_a_flipped_byte(self):
        proc, result = run("--seed", "0", "--trace", "1",
                           "--inject", "flip-byte")
        self.assert_caught(proc, result)
        self.assertIn("trace.coverage_compress", result["metrics"])

    def test_traced_szx_calls_are_gated(self):
        proc, result = run("--seed", "0", "--trace", "1",
                           "--inject", "flip-byte",
                           "--workload", "sz14-hurricane-t1")
        self.assert_caught(proc, result)
        self.assertIn("FAIL SZx compress", proc.stdout)
        self.assertGreater(result["metrics"]["sz.szx_decode.ms"]["value"], 0)

    def test_tree_without_library_fails_without_result(self):
        bare = ROOT / ".bench_build" / "bare_tree"
        shutil.rmtree(bare, ignore_errors=True)
        shutil.copytree(HERE, bare / "perfbench",
                        ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
        env = dict(os.environ)
        env.pop("CARGO_TARGET_DIR", None)
        proc = subprocess.run(
            ["python3", "perfbench/run.py", *SHORT, "--seed", "0",
             "--trace", "0"],
            cwd=bare, env=env, capture_output=True, text=True, timeout=180)
        shutil.rmtree(bare, ignore_errors=True)
        self.assertNotEqual(proc.returncode, 0)
        self.assertNotIn('"correct"', proc.stdout)


if __name__ == "__main__":
    sys.exit(unittest.main())
