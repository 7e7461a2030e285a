#!/usr/bin/env python3
"""perfbench: the mcsim repository benchmark.

    python3 perfbench/run.py --workload sweep_fig3 --seed 3 --seconds 30 --trace 0

Builds mcsim_perf from source (perfbench/CMakeLists.txt, into
.bench_build), generates the workload's inputs from --seed, then runs one
operation at a time, each in a fresh mcsim_perf process, until --seconds have
passed. Every operation's results are checked (see README.md). The last
line of stdout is one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

--trace 0 reports the end-to-end metrics, --trace 1 the per-layer ones.
"""

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
import threading
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORK = os.path.join(ROOT, ".bench_work")
PROGRAM_NAME = "mcsim_perf"

DEFAULT_SEED = 1
MIN_OPS = 4
OP_TIMEOUT_S = 150
BUILD_JOBS = 4
LOGS_KEPT = 2

# Per-layer metrics the traced run reports, with their units. Names match
# the "layers" object mcsim_perf prints; trace_overhead_frac is computed here.
LAYER_UNITS = {
    "trace.parse_s": "s",
    "trace.parse_mb_per_s": "MB/s",
    "trace.records": "count",
    "trace.prescan_s": "s",
    "workload.draw_ns_per_job": "ns",
    "workload.split_ns_per_job": "ns",
    "policy.self_s": "s",
    "policy.ns_per_call": "ns",
    "policy.submit_calls": "count",
    "policy.departure_calls": "count",
    "policy.queue_depth_mean": "jobs",
    "cluster.place_attempts": "count",
    "cluster.place_rejects": "count",
    "cluster.place_success_ratio": "ratio",
    "core.run_s": "s",
    "core.start_job_s": "s",
    "core.self_s": "s",
    "core.events": "count",
    "core.ns_per_event": "ns",
    "sim.calendar_pending_mean": "events",
    "stats.ns_per_job": "ns",
    "obs.events": "count",
    "exp.load_s": "s",
    "exp.manifest_write_s": "s",
    "exp.manifest_bytes": "bytes",
    "exp.runner_busy_frac": "ratio",
    "trace_overhead_frac": "ratio",
    "layer_coverage_frac": "ratio",
}
END_TO_END_UNITS = {
    "wall_s": "s",
    "jobs_per_s": "1/s",
    "cpu_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}
# A traced operation whose self times miss the engine's own run() clock by
# more than this share has spans that overlap or leak.
COVERAGE_TOLERANCE = 0.05


def derive_seed(seed, label):
    """A 31-bit input seed for one generated input, fixed by (seed, label)."""
    digest = hashlib.sha256(f"{label}:{seed}".encode()).digest()
    return int.from_bytes(digest[:4], "big") % (2**31 - 1) + 1


def scenario(name, policy, run, workload=None):
    doc = {"schema": "mcsim-scenario", "schema_version": 1, "name": name,
           "policy": policy, "run": run}
    if workload is not None:
        doc["workload"] = workload
    return doc


def replay_log(seed, log_path):
    """GS replay of a generated DAS1-like log near its own load."""
    return [scenario("perfbench replay_log", {"kind": "GS"},
                     {"mode": "sweep", "sweep": {"grid": [0.2]},
                      "seed": derive_seed(seed, "replay_log")},
                     {"type": "trace", "path": os.path.basename(log_path)})]


def sweep_fig3(seed, _log_path):
    """Fig. 3: GS/LS/LP/SC at component limit 16, below each policy's maximum."""
    common = derive_seed(seed, "sweep_fig3")  # common random numbers, as in the paper
    return [scenario(f"perfbench sweep_fig3 {policy}", {"kind": policy},
                     {"mode": "sweep",
                      "sweep": {"from": 0.30, "to": 0.55, "step": 0.05},
                      "sim_jobs": 100000, "seed": common, "parallelism": 2},
                     {"component_limit": 16})
            for policy in ("GS", "LS", "LP", "SC")]


def backfill_deep(seed, _log_path):
    """GS with conservative backfill in the open system, margin below saturation."""
    return [scenario("perfbench backfill_deep", {"kind": "GS", "backfill": "conservative"},
                     {"mode": "sweep", "sweep": {"grid": [0.65]},
                      "sim_jobs": 600000, "seed": derive_seed(seed, "backfill_deep")})]


# name -> (scenario builder, exp::Runner workers, generated log or None)
WORKLOADS = {
    "replay_log": (replay_log, 1, {"jobs": 400000, "days": 1200}),
    "sweep_fig3": (sweep_fig3, 2, None),
    "backfill_deep": (backfill_deep, 1, None),
}


def log(message):
    print(f"perfbench: {message}", file=sys.stderr, flush=True)


def fail(message, code=2):
    log(message)
    sys.exit(code)


def build_dir():
    target = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    return os.path.join(ROOT, target)


def build():
    """Configure (cheap once cached) and bring mcsim_perf up to date."""
    if not os.path.exists(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail(f"no mcsim sources next to {HERE}: nothing to benchmark")
    out = build_dir()
    for step in (["cmake", "-S", HERE, "-B", out, "-DCMAKE_BUILD_TYPE=Release"],
                 ["cmake", "--build", out, "--target", PROGRAM_NAME, "-j", str(BUILD_JOBS)]):
        done = subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr, check=False)
        if done.returncode != 0:
            fail(f"build step failed: {' '.join(step)}")
    return os.path.join(out, PROGRAM_NAME)


def run_quiet(cmd):
    done = subprocess.run(cmd, capture_output=True, text=True, check=False)
    if done.returncode != 0:
        fail(f"{' '.join(cmd)} failed: {done.stderr.strip()}")
    return done.stdout


def generated_log(program, seed, spec):
    """The workload's SWF log for `seed`, generated once and cached."""
    log_seed = derive_seed(seed, "log")
    logs = os.path.join(WORK, "logs")
    os.makedirs(logs, exist_ok=True)
    path = os.path.join(logs, f"das1-{log_seed}-{spec['jobs']}.swf")
    if not os.path.exists(path):
        partial = path + ".partial"
        run_quiet([program, "gen-log", f"--seed={log_seed}", f"--jobs={spec['jobs']}",
                   f"--days={spec['days']}", f"--out={partial}"])
        os.replace(partial, path)
    os.utime(path)
    cached = sorted((os.path.join(logs, name) for name in os.listdir(logs)
                     if name.endswith(".swf")), key=os.path.getmtime)
    for stale in cached[:-LOGS_KEPT]:
        os.remove(stale)
    return path


def prepare(program, workload, seed):
    """Write the workload's scenario files; return their paths."""
    build_scenarios, _, log_spec = WORKLOADS[workload]
    log_path = generated_log(program, seed, log_spec) if log_spec else None
    directory = os.path.dirname(log_path) if log_path else os.path.join(WORK, "scenarios")
    os.makedirs(directory, exist_ok=True)
    paths = []
    for i, doc in enumerate(build_scenarios(seed, log_path)):
        path = os.path.join(directory, f"{workload}-{i}.json")
        with open(path, "w", encoding="utf-8") as out:
            json.dump(doc, out, indent=1)
        paths.append(path)
    return paths


def run_op(program, scenarios, workers, traced):
    """One operation in a fresh process: its report plus the child's peak RSS."""
    out_dir = os.path.join(WORK, "manifests")
    os.makedirs(out_dir, exist_ok=True)
    report_path = os.path.join(WORK, f"op-{os.getpid()}.json")
    errors_path = os.path.join(WORK, f"op-{os.getpid()}.err")
    cmd = [program, "op", *scenarios, f"--workers={workers}", f"--out-dir={out_dir}"]
    if traced:
        cmd.append("--traced")
    with open(report_path, "w", encoding="utf-8") as report, \
            open(errors_path, "w", encoding="utf-8") as errors:
        child = subprocess.Popen(cmd, stdout=report, stderr=errors)
        timer = threading.Timer(OP_TIMEOUT_S, child.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(child.pid, 0)
        finally:
            timer.cancel()
        child.returncode = os.waitstatus_to_exitcode(status)
    with open(errors_path, encoding="utf-8", errors="replace") as errors:
        message = errors.read().strip()
    os.remove(errors_path)
    if child.returncode != 0:
        os.remove(report_path)
        return None, f"exit {child.returncode}: {message}"
    try:
        with open(report_path, encoding="utf-8") as report:
            result = json.load(report)
    except ValueError as error:
        return None, f"unreadable report: {error}"
    finally:
        os.remove(report_path)
    result["peak_rss_mb"] = usage.ru_maxrss / 1024.0  # Linux reports KiB
    return result, None


def expected_digests():
    with open(os.path.join(HERE, "expected_digests.json"), encoding="utf-8") as data:
        return json.load(data)


class Checker:
    """Decides whether one operation's output is correct.

    On the default seed each scenario digest must equal the recorded one
    (expected_digests.json, made by exp::canonical_observation). On any
    other seed all operations of the run must agree with each other. Every
    job must complete, and a traced operation must also pass the span
    accounting check.
    """

    def __init__(self, workload, seed, doctor):
        self.reference = None
        if seed == DEFAULT_SEED:
            self.reference = expected_digests()[workload]
            if doctor:
                self.reference = ["fnv1a64:" + "0" * 16 for _ in self.reference]

    def check(self, result):
        if not result["all_complete"]:
            return "a job did not complete or the run went unstable"
        if self.reference is None:
            self.reference = result["digests"]
        if result["digests"] != self.reference:
            return f"digests {result['digests']} != expected {self.reference}"
        spans = result.get("span_check")
        if spans is not None:
            if spans["nesting_errors"] != 0:
                return f"{spans['nesting_errors']} span nesting errors"
            if abs(spans["self_sum_minus_root_s"]) > 1e-6 * result["layers"]["core.run_s"]:
                return f"self times miss the root spans by {spans['self_sum_minus_root_s']} s"
            coverage = result["layers"]["layer_coverage_frac"]
            if abs(coverage - 1.0) > COVERAGE_TOLERANCE:
                return f"layer_coverage_frac {coverage} is not within {COVERAGE_TOLERANCE} of 1"
        return None


def cpu_steal_s():
    with open("/proc/stat", encoding="ascii") as stat:
        fields = stat.readline().split()
    steal = int(fields[8]) if len(fields) > 8 else 0
    return steal / os.sysconf("SC_CLK_TCK")


def load_average():
    with open("/proc/loadavg", encoding="ascii") as loadavg:
        return [float(x) for x in loadavg.read().split()[:3]]


def calibration_s(program):
    return float(run_quiet([program, "calibrate"]).split()[0])


def measure(program, workload, seed, seconds, traced, doctor):
    """Run operations until `seconds` have passed; return (results, failures, context)."""
    scenarios = prepare(program, workload, seed)
    workers = WORKLOADS[workload][1]
    checker = Checker(workload, seed, doctor)
    context = {"cores": os.cpu_count(), "loadavg_before": load_average(),
               "calibration_s_before": calibration_s(program)}
    steal_start = cpu_steal_s()
    results, failures, attempts = [], 0, 0
    deadline = time.monotonic() + seconds
    while attempts < MIN_OPS or time.monotonic() < deadline:
        # The traced run alternates plain and traced operations so the
        # probes' own cost is measured on the same host state.
        with_probes = traced and attempts % 2 == 1
        attempts += 1
        result, error = run_op(program, scenarios, workers, with_probes)
        if error is None:
            error = checker.check(result)
        if error is not None:
            failures += 1
            log(f"{workload}: operation failed: {error}")
        if result is not None:
            result["traced"] = with_probes
            results.append(result)
    context["operations"] = attempts
    context["steal_s"] = cpu_steal_s() - steal_start
    context["loadavg_after"] = load_average()
    context["calibration_s_after"] = calibration_s(program)
    return results, failures, context


def median_of(results, key):
    return statistics.median(result[key] for result in results)


def end_to_end(ops):
    return {
        "wall_s": median_of(ops, "wall_s"),
        "jobs_per_s": statistics.median(op["jobs"] / op["wall_s"] for op in ops),
        "cpu_s": median_of(ops, "cpu_s"),
        "setup_s": median_of(ops, "setup_s"),
        "peak_rss_mb": median_of(ops, "peak_rss_mb"),
    }


def per_layer(ops, traced_ops):
    values = {name: statistics.median(op["layers"][name] for op in traced_ops)
              for name in LAYER_UNITS if name != "trace_overhead_frac"}
    values["trace_overhead_frac"] = (median_of(traced_ops, "wall_s")
                                     / median_of(ops, "wall_s") - 1.0)
    return values


def main():
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--doctor-digest", action="store_true",
                        help="self-test: expect a wrong digest on the default seed, "
                             "so every operation must be reported failed")
    parser.add_argument("--record-digests", action="store_true",
                        help="print expected_digests.json for the default seed "
                             "(from exp::canonical_observation) and exit")
    args = parser.parse_args()
    if args.workload is None and not args.record_digests:
        parser.error("--workload is required")

    program = build()
    if args.record_digests:
        record = {name: run_quiet([program, "canonical",
                                   *prepare(program, name, DEFAULT_SEED)]).split()
                  for name in sorted(WORKLOADS)}
        print(json.dumps(record, indent=2, sort_keys=True))
        return

    results, failures, context = measure(program, args.workload, args.seed, args.seconds,
                                         args.trace == 1, args.doctor_digest)
    ops = [result for result in results if not result["traced"]]
    traced_ops = [result for result in results if result["traced"]]
    if args.trace == 1 and ops and traced_ops:
        values, units, count = per_layer(ops, traced_ops), LAYER_UNITS, len(traced_ops)
    elif args.trace == 0 and ops:
        values, units, count = end_to_end(ops), END_TO_END_UNITS, len(ops)
    else:
        values, units, count = {}, {}, 0
    print(json.dumps({"workload": args.workload, "seed": args.seed, "context": context}))
    for name, value in values.items():
        print(f"{args.workload} {name} = {value:.6g} {units[name]} "
              f"(median of {count} operations)")
    print(json.dumps({
        "correct": failures == 0 and bool(values),
        "attempted": context["operations"],
        "failed": failures,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in values.items()},
    }))


if __name__ == "__main__":
    main()
