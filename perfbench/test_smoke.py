#!/usr/bin/env python3
"""Smoke tests of the benchmark: the one command at tiny scale.

    python3 perfbench/test_smoke.py

Run from the repository root. Each workload runs untraced and traced; the
tests assert that every metric of BENCHMARK.json prints with its unit,
that every check of the workload runs and passes, that a run whose exact
figures differ from an earlier run of the same seed fails, and that the
command fails without a result where the repository's crates are missing.
"""

import json
import os
import pathlib
import shutil
import subprocess
import sys
import unittest

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())

CHECKS = {
    "fleet-hare": {"plan_valid", "all_jobs_complete"},
    "fleet-baselines": {"all_jobs_complete", "clocked_matches_suite"},
    "serve-overload": {"admission_conserved", "admitted_accounted", "rung_hits_agree"},
}
ALWAYS = {"deterministic_passes", "deterministic_runs"}


def build_dir():
    target = pathlib.Path(os.environ.get("CARGO_TARGET_DIR", HERE / "target"))
    return target if target.is_absolute() else ROOT / target


def run(workload, trace, seed=1):
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", "0.01", "--trace", str(trace), "--smoke"]
    return subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)


def parse(out):
    lines = out.stdout.splitlines()
    metrics = {}
    checks = {}
    for line in lines[:-1]:
        parts = line.split()
        if parts[:1] == ["metric"]:
            metrics[parts[1]] = parts[3]
        elif parts[:1] == ["check"]:
            checks[parts[1]] = parts[2]
    return json.loads(lines[-1]), metrics, checks


class Smoke(unittest.TestCase):
    def test_every_metric_prints_with_its_unit_and_every_check_runs(self):
        for w in BENCH["workloads"]:
            name = w["name"]
            for trace, key in [(0, "end_to_end"), (1, "per_layer")]:
                with self.subTest(workload=name, trace=trace):
                    out = run(name, trace)
                    self.assertEqual(out.returncode, 0, out.stderr + out.stdout)
                    result, printed, checks = parse(out)
                    self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
                    self.assertTrue(result["correct"])
                    self.assertGreaterEqual(result["attempted"], 1)
                    self.assertEqual(result["failed"], 0)
                    for m in BENCH[key]:
                        self.assertEqual(result["metrics"][m["name"]]["unit"], m["unit"])
                        self.assertEqual(printed[m["name"]], m["unit"], m["name"])
                    self.assertEqual(set(result["metrics"]), {m["name"] for m in BENCH[key]})
                    self.assertEqual(set(checks), CHECKS[name] | ALWAYS)
                    self.assertTrue(all(v == "pass" for v in checks.values()), checks)

    def test_without_the_repository_the_command_fails_without_a_result(self):
        bare = build_dir() / "perfbench" / "bare"
        shutil.rmtree(bare, ignore_errors=True)
        shutil.copytree(HERE, bare / "perfbench", ignore=shutil.ignore_patterns("target", "__pycache__"))
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        try:
            out = subprocess.run(
                [sys.executable, "perfbench/run.py", "--workload", "serve-overload", "--seed", "1",
                 "--seconds", "1", "--trace", "0"],
                cwd=bare, capture_output=True, text=True, timeout=180,
                env={**os.environ, "CARGO_TARGET_DIR": ".bench_build"})
            self.assertNotEqual(out.returncode, 0)
            self.assertNotIn('"correct"', out.stdout)
        finally:
            shutil.rmtree(bare)

    def test_a_run_that_disagrees_with_an_earlier_run_of_its_seed_fails(self):
        seed = 424242
        first = run("serve-overload", 0, seed)
        self.assertEqual(first.returncode, 0, first.stderr)
        (record,) = (build_dir() / "perfbench").glob(f"exact-serve-overload-seed{seed}-smoke-*.json")
        exact = json.loads(record.read_text())
        exact["ladder.work"] += 1
        record.write_text(json.dumps(exact))
        try:
            second = run("serve-overload", 0, seed)
            result, _, checks = parse(second)
            self.assertEqual(second.returncode, 1)
            self.assertFalse(result["correct"])
            self.assertEqual(checks["deterministic_runs"], "FAIL")
        finally:
            record.unlink()


if __name__ == "__main__":
    unittest.main()
