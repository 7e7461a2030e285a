#!/usr/bin/env python3
"""Checks that perfbench's own checks work.

    python3 perfbench/selftest.py [--seconds 3]

1. Doctored digest: on the default seed with a wrong expected digest,
   every operation of every workload must be reported failed.
2. Default seed: with the recorded digests, no operation may fail.
3. Traced-run accounting: on every workload the traced run reports every
   per-layer metric, no operation fails the span checks, and
   layer_coverage_frac lands within run.COVERAGE_TOLERANCE of 1.
   trace_overhead_frac is printed per workload.

Exits non-zero on the first broken expectation.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
import run  # noqa: E402  (run.py sits next to this file)


def bench(workload, seconds, trace, *extra):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", str(run.DEFAULT_SEED), "--seconds", str(seconds),
           "--trace", str(trace), *extra]
    done = subprocess.run(cmd, capture_output=True, text=True, check=False)
    if done.returncode != 0:
        sys.exit(f"selftest: {' '.join(cmd)} exited {done.returncode}:\n{done.stderr}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def expect(condition, message):
    if not condition:
        sys.exit(f"selftest: FAILED: {message}")
    print(f"selftest: ok: {message}")


def main():
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--seconds", type=float, default=3.0)
    args = parser.parse_args()

    for workload in sorted(run.WORKLOADS):
        doctored = bench(workload, args.seconds, 0, "--doctor-digest")
        expect(not doctored["correct"] and doctored["failed"] == doctored["attempted"] > 0,
               f"{workload}: a doctored digest fails all {doctored['attempted']} operations")

        plain = bench(workload, args.seconds, 0)
        expect(plain["correct"] and plain["failed"] == 0
               and set(plain["metrics"]) == set(run.END_TO_END_UNITS),
               f"{workload}: default seed matches the recorded digests "
               f"({plain['attempted']} operations)")

        traced = bench(workload, args.seconds, 1)
        metrics = {name: entry["value"] for name, entry in traced["metrics"].items()}
        coverage = metrics.get("layer_coverage_frac", 0.0)
        expect(traced["correct"] and traced["failed"] == 0
               and set(metrics) == set(run.LAYER_UNITS)
               and abs(coverage - 1.0) <= run.COVERAGE_TOLERANCE,
               f"{workload}: spans nest, layer_coverage_frac = {coverage:.4f}, "
               f"trace_overhead_frac = {metrics.get('trace_overhead_frac', 0.0):.3f}")


if __name__ == "__main__":
    main()
