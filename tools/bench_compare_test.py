#!/usr/bin/env python3
"""Tests for the benchmark regression gate (tools/bench_compare.py).

The centrepiece is the negative test: a doctored 20% regression MUST fail
the gate. A gate whose failure path is never exercised protects nothing.

Registered in ctest (tests/CMakeLists.txt) so the gate's own behaviour is
pinned by the same suite that pins the simulator.
"""

import json
import os
import pathlib
import subprocess
import sys
import tempfile
import unittest

REPO_ROOT = pathlib.Path(
    os.environ.get("MCSIM_REPO_ROOT", pathlib.Path(__file__).resolve().parent.parent))
BENCH_COMPARE = REPO_ROOT / "tools" / "bench_compare.py"

CALIBRATION = "BM_CalendarCalibration"
GS = "BM_ReplayThroughput/GS"
LS = "BM_ReplayThroughput/LS"


def gbench_json(rates, repetitions=5):
    """A minimal google-benchmark JSON document whose median rows carry the
    given items/sec, as written by --benchmark_repetitions."""
    benchmarks = []
    for name, rate in rates.items():
        # Iteration rows and the mean with wildly wrong rates: only the
        # median may be scored.
        for index in range(repetitions):
            benchmarks.append({"name": name, "run_name": name, "run_type": "iteration",
                               "repetition_index": index, "items_per_second": 1.0})
        for aggregate, value in (("mean", 1.0), ("median", rate)):
            benchmarks.append({
                "name": f"{name}_{aggregate}", "run_name": name,
                "run_type": "aggregate", "aggregate_name": aggregate,
                "repetitions": repetitions, "items_per_second": value,
            })
    return {"benchmarks": benchmarks}


def single_run_json(rates):
    """A document from a run without --benchmark_repetitions."""
    return {"benchmarks": [
        {"name": name, "run_name": name, "run_type": "iteration", "items_per_second": rate}
        for name, rate in rates.items()
    ]}


class BenchCompareTest(unittest.TestCase):
    def setUp(self):
        self.tmp = tempfile.TemporaryDirectory()
        self.dir = pathlib.Path(self.tmp.name)

    def tearDown(self):
        self.tmp.cleanup()

    def write(self, name, doc):
        path = self.dir / name
        path.write_text(json.dumps(doc))
        return path

    def run_gate(self, *argv):
        return subprocess.run(
            [sys.executable, str(BENCH_COMPARE), *map(str, argv)],
            capture_output=True, text=True)

    def baseline(self, gs_ratio, ls_ratio):
        return self.write("baseline.json", {"ratios": {GS: gs_ratio, LS: ls_ratio}})

    def test_identical_run_passes(self):
        results = self.write("results.json",
                             gbench_json({CALIBRATION: 10e6, GS: 4e6, LS: 3e6}))
        proc = self.run_gate(results, self.baseline(0.4, 0.3))
        self.assertEqual(proc.returncode, 0, proc.stdout + proc.stderr)
        self.assertIn("benchmark gate passed", proc.stdout)

    def test_uniformly_slower_machine_passes(self):
        # Everything (calibration included) at 60% speed: the normalized
        # ratios are unchanged, so the gate must not cry wolf.
        results = self.write("results.json",
                             gbench_json({CALIBRATION: 6e6, GS: 2.4e6, LS: 1.8e6}))
        proc = self.run_gate(results, self.baseline(0.4, 0.3))
        self.assertEqual(proc.returncode, 0, proc.stdout + proc.stderr)

    def test_doctored_regression_fails(self):
        # GS at 20% below baseline relative to calibration: must exit 1.
        results = self.write("results.json",
                             gbench_json({CALIBRATION: 10e6, GS: 3.2e6, LS: 3e6}))
        proc = self.run_gate(results, self.baseline(0.4, 0.3))
        self.assertEqual(proc.returncode, 1, proc.stdout + proc.stderr)
        self.assertIn("REGRESSION", proc.stdout)
        self.assertIn("docs/PERFORMANCE.md", proc.stdout)

    def test_regression_within_threshold_passes(self):
        # 5% down is noise, not a gate failure (threshold is 10%).
        results = self.write("results.json",
                             gbench_json({CALIBRATION: 10e6, GS: 3.8e6, LS: 2.85e6}))
        proc = self.run_gate(results, self.baseline(0.4, 0.3))
        self.assertEqual(proc.returncode, 0, proc.stdout + proc.stderr)

    def test_improvement_passes(self):
        results = self.write("results.json",
                             gbench_json({CALIBRATION: 10e6, GS: 6e6, LS: 4.5e6}))
        proc = self.run_gate(results, self.baseline(0.4, 0.3))
        self.assertEqual(proc.returncode, 0, proc.stdout + proc.stderr)

    def test_missing_calibration_is_an_error(self):
        results = self.write("results.json", gbench_json({GS: 4e6, LS: 3e6}))
        proc = self.run_gate(results, self.baseline(0.4, 0.3))
        self.assertNotEqual(proc.returncode, 0)
        self.assertIn(CALIBRATION, proc.stderr + proc.stdout)

    def test_min_time_suffix_is_ignored(self):
        # MinTime() registrations rename rows to "<name>/min_time:0.300".
        doc = gbench_json({CALIBRATION: 10e6, GS: 3.2e6, LS: 3e6})
        for bench in doc["benchmarks"]:
            bench["run_name"] += "/min_time:0.300"
        results = self.write("results.json", doc)
        proc = self.run_gate(results, self.baseline(0.4, 0.3))
        self.assertEqual(proc.returncode, 1, proc.stdout + proc.stderr)
        self.assertIn(f"{GS}: ratio 0.3200", proc.stdout)

    def test_single_run_results_are_an_error(self):
        results = self.write("results.json",
                             single_run_json({CALIBRATION: 10e6, GS: 4e6, LS: 3e6}))
        proc = self.run_gate(results, self.baseline(0.4, 0.3))
        self.assertNotEqual(proc.returncode, 0)
        self.assertIn("--benchmark_repetitions", proc.stderr + proc.stdout)

    def test_too_few_repetitions_are_an_error(self):
        results = self.write("results.json",
                             gbench_json({CALIBRATION: 10e6, GS: 4e6, LS: 3e6}, repetitions=3))
        proc = self.run_gate(results, self.baseline(0.4, 0.3))
        self.assertNotEqual(proc.returncode, 0)
        self.assertIn("3 repetitions", proc.stderr + proc.stdout)

    def test_update_writes_baseline_that_then_passes(self):
        results = self.write("results.json",
                             gbench_json({CALIBRATION: 10e6, GS: 4e6, LS: 3e6}))
        baseline = self.dir / "new_baseline.json"
        proc = self.run_gate(results, baseline, "--update")
        self.assertEqual(proc.returncode, 0, proc.stdout + proc.stderr)
        written = json.loads(baseline.read_text())
        self.assertAlmostEqual(written["ratios"][GS], 0.4)
        self.assertAlmostEqual(written["ratios"][LS], 0.3)
        proc = self.run_gate(results, baseline)
        self.assertEqual(proc.returncode, 0, proc.stdout + proc.stderr)

    def test_checked_in_baseline_is_well_formed(self):
        doc = json.loads((REPO_ROOT / "bench" / "baseline.json").read_text())
        self.assertEqual(doc["normalized_to"], CALIBRATION)
        for name in (GS, LS):
            self.assertIn(name, doc["ratios"])
            self.assertGreater(doc["ratios"][name], 0.0)


if __name__ == "__main__":
    unittest.main()
