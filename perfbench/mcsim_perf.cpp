// mcsim_perf — the single-process program behind perfbench/run.py.
// run.py starts one of these per operation, so every operation gets a fresh
// process and its own peak RSS.
//
//   mcsim_perf gen-log --seed=S --jobs=N --days=D --out=log.swf
//   mcsim_perf canonical a.json [b.json ...]
//   mcsim_perf op a.json [b.json ...] --workers=W --out-dir=DIR [--traced]
//   mcsim_perf calibrate
//
// `op` loads sweep-mode scenario files, builds one engine per grid point
// (set-up), runs them all through exp::Runner with W workers and writes one
// run manifest per point (the measured phase), then digests each scenario's
// results in the layout exp::canonical_observation uses for a sweep. With
// --traced it also wires the layer probes of probes.hpp into every engine
// and reports per-layer costs. It prints one JSON object on stdout.
//
// `canonical` prints observation_digest(canonical_observation(spec)) for
// each scenario: the reference an untraced or traced `op` must reproduce.
#include <sys/resource.h>

#include <cstdint>
#include <exception>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <memory>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "core/engine.hpp"
#include "exp/golden.hpp"
#include "exp/manifest.hpp"
#include "exp/runner.hpp"
#include "exp/scenario_spec.hpp"
#include "exp/sweep.hpp"
#include "obs/json.hpp"
#include "obs/json_reader.hpp"
#include "obs/metrics.hpp"
#include "probes.hpp"
#include "stats/batch_means.hpp"
#include "stats/percentile.hpp"
#include "stats/welford.hpp"
#include "trace/swf.hpp"
#include "trace/synthetic_log.hpp"
#include "util/assert.hpp"
#include "util/cli.hpp"
#include "util/logging.hpp"
#include "workload/job_splitter.hpp"
#include "workload/workload.hpp"

namespace perfbench {
namespace {

using mcsim::SimulationConfig;
using mcsim::SimulationResult;
using mcsim::exp::ScenarioSpec;

double cpu_seconds() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  const auto seconds = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) + static_cast<double>(tv.tv_usec) * 1e-6;
  };
  return seconds(usage.ru_utime) + seconds(usage.ru_stime);
}

/// Everything the traced run attaches to one engine.
struct Probe {
  SpanLedger ledger;
  PolicyCounters policy;
  TraceCounters trace;
  CountingSink sink;
  mcsim::obs::MetricsRegistry metrics;
  std::vector<double> responses;
  double prescan_s = 0.0;
};

/// One grid point of one scenario: an engine and what its run produced.
struct Point {
  std::size_t scenario = 0;
  double utilization = 0.0;
  SimulationConfig config;
  std::unique_ptr<Probe> probe;  // traced run only
  std::unique_ptr<mcsim::MulticlusterSimulation> simulation;
  SimulationResult result;
  double task_s = 0.0;
  double manifest_s = 0.0;
  std::uint64_t manifest_bytes = 0;
};

/// Route the engine's scheduler, trace stream and observers through the
/// probe. Results are unchanged: every proxy forwards to the real object.
void attach_probe(Point& point) {
  Probe& probe = *point.probe;
  SimulationConfig& config = point.config;
  if (config.trace_workload != nullptr) {
    auto trace = std::make_shared<mcsim::TraceWorkloadConfig>(*config.trace_workload);
    trace->open_source = [open = trace->open_source, &probe]() {
      return std::unique_ptr<mcsim::TraceRecordSource>(
          std::make_unique<TimedSource>(open(), probe.ledger, probe.trace));
    };
    config.trace_workload = std::move(trace);
  }
  // The same choice MulticlusterSimulation makes when no factory is set.
  config.scheduler_factory = [policy = config.policy, pipeline = config.pipeline,
                              placement = config.placement, backfill = config.backfill,
                              discipline = config.discipline,
                              &probe](mcsim::SchedulerContext& engine) {
    auto context = std::make_unique<ProxyContext>(engine, probe.ledger, probe.policy);
    std::unique_ptr<mcsim::Scheduler> inner =
        pipeline ? mcsim::make_scheduler(policy, *pipeline, *context)
                 : mcsim::make_scheduler(policy, *context, placement, backfill, discipline);
    return std::unique_ptr<mcsim::Scheduler>(std::make_unique<ProxyScheduler>(
        engine, std::move(context), std::move(inner), probe.ledger, probe.policy));
  };
}

void attach_observers(Point& point) {
  Probe& probe = *point.probe;
  probe.responses.reserve(point.config.total_jobs);
  point.simulation->set_trace_sink(&probe.sink);
  point.simulation->set_metrics(&probe.metrics);
  point.simulation->set_job_observer([&probe](const mcsim::Job& job, double finish) {
    probe.responses.push_back(finish - job.spec.arrival_time);
  });
}

/// The sweep observation of exp::canonical_observation, rebuilt from this
/// operation's own results, and its digest.
std::string sweep_digest(const ScenarioSpec& spec, const std::vector<const Point*>& points) {
  mcsim::SweepSeries series;
  std::ostringstream out;
  mcsim::obs::JsonWriter json(out);
  json.begin_object();
  json.key("mode").value(mcsim::exp::run_mode_name(spec.mode));
  json.key("points").begin_array();
  for (const Point* point : points) {
    json.begin_object();
    json.key("utilization").value(point->utilization);
    json.key("result");
    mcsim::write_result_json(json, point->result);
    json.key("end_time").value(point->result.end_time);
    json.key("events_executed").value(point->result.events_executed);
    json.end_object();
    series.points.push_back({point->utilization, point->result});
  }
  json.end_array();
  json.key("max_stable_utilization").value(series.max_stable_utilization());
  json.end_object();
  out << '\n';
  return mcsim::exp::observation_digest(mcsim::obs::parse_json(out.str()));
}

/// ns per job of a standalone WorkloadGenerator drawing the point's arrivals.
double draw_ns_per_job(const SimulationConfig& config) {
  mcsim::WorkloadGenerator generator(config.workload, config.seed);
  double checksum = 0.0;
  const Clock::time_point start = Clock::now();
  for (std::uint64_t i = 0; i < config.total_jobs; ++i) checksum += generator.next().service_time;
  const double elapsed = seconds_between(start, Clock::now());
  if (checksum < 0.0) std::cerr << checksum;  // keeps the loop observable
  return elapsed * 1e9 / static_cast<double>(config.total_jobs);
}

/// ns per record of split_job over the sizes the replayed log held.
double split_ns_per_job(const std::vector<std::uint32_t>& sizes,
                        const mcsim::TraceWorkloadConfig& trace) {
  std::uint64_t components = 0;
  const Clock::time_point start = Clock::now();
  for (const std::uint32_t size : sizes) {
    components += mcsim::split_job(size, trace.component_limit, trace.num_clusters).size();
  }
  const double elapsed = seconds_between(start, Clock::now());
  if (components == 0) std::cerr << components;
  return elapsed * 1e9 / static_cast<double>(sizes.size());
}

/// ns per response of the engine's response-time collectors, fed the
/// responses the run observed.
double stats_ns_per_job(const std::vector<double>& responses) {
  mcsim::RunningStats running;
  mcsim::P2Quantile p95(0.95);
  mcsim::BatchMeans batches(std::max<std::size_t>(1, responses.size() / 20));
  const Clock::time_point start = Clock::now();
  for (const double response : responses) {
    running.add(response);
    p95.add(response);
    batches.add(response);
  }
  const double elapsed = seconds_between(start, Clock::now());
  if (p95.value() < 0.0 || running.mean() < 0.0) std::cerr << batches.total_observations();
  return elapsed * 1e9 / static_cast<double>(responses.size());
}

void write_layers(mcsim::obs::JsonWriter& json, const std::vector<Point>& points,
                  const std::vector<ScenarioSpec>& specs, double load_s, double wall_s,
                  unsigned workers) {
  double parse_s = 0, prescan_s = 0, log_bytes = 0, policy_self = 0, start_job = 0,
         run_s = 0, core_self = 0, trace_self = 0, engine_wall = 0, pending_sum = 0,
         manifest_s = 0, busy_s = 0, draw_ns = 0, split_ns = 0, stats_ns = 0;
  std::uint64_t records = 0, submits = 0, departures = 0, depth_sum = 0, attempts = 0,
                rejects = 0, events = 0, obs_events = 0, manifest_bytes = 0,
                nesting_errors = 0, top_level_calls = 0;
  std::size_t draws = 0, splits = 0;
  std::vector<bool> drawn(specs.size(), false);
  for (const Point& point : points) {
    const Probe& probe = *point.probe;
    const SpanLedger& ledger = probe.ledger;
    parse_s += ledger.inclusive_s(kTrace) + ledger.setup_trace_s();
    prescan_s += probe.prescan_s;
    records += probe.trace.records;
    policy_self += ledger.self_s(kPolicy);
    start_job += ledger.self_s(kStartJob);
    run_s += ledger.inclusive_s(kRun);
    core_self += ledger.self_s(kRun);
    trace_self += ledger.self_s(kTrace);
    top_level_calls += ledger.calls(kRun);
    nesting_errors += ledger.nesting_errors();
    engine_wall += point.result.wall_seconds;
    submits += probe.policy.submit_calls;
    departures += probe.policy.departure_calls;
    depth_sum += probe.policy.depth_sum;
    attempts += probe.policy.place_attempts;
    rejects += probe.policy.place_rejects;
    events += point.result.events_executed;
    obs_events += probe.sink.events();
    pending_sum += probe.metrics.all_series().at("calendar.pending").time_average(
        point.result.end_time);
    manifest_s += point.manifest_s;
    manifest_bytes += point.manifest_bytes;
    busy_s += point.task_s;
    stats_ns += stats_ns_per_job(probe.responses);
    const auto& trace = point.config.trace_workload;
    if (trace != nullptr) {
      log_bytes += static_cast<double>(std::filesystem::file_size(trace->source_path));
      split_ns += split_ns_per_job(probe.trace.usable_sizes, *trace);
      ++splits;
    } else if (!drawn[point.scenario]) {
      // One standalone draw per scenario: every grid point draws the same
      // job bodies, only the arrival rate differs.
      drawn[point.scenario] = true;
      draw_ns += draw_ns_per_job(point.config);
      ++draws;
    }
  }
  const auto n = static_cast<double>(points.size());
  const auto ratio = [](double num, double den) { return den > 0.0 ? num / den : 0.0; };
  const auto put = [&json](const char* name, double value) { json.key(name).value(value); };
  const auto count = [&json](const char* name, std::uint64_t value) {
    json.key(name).value(value);
  };
  json.key("layers").begin_object();
  put("trace.parse_s", parse_s);
  put("trace.parse_mb_per_s", ratio(log_bytes / 1e6, parse_s));
  count("trace.records", records);
  put("trace.prescan_s", prescan_s);
  put("workload.draw_ns_per_job", ratio(draw_ns, static_cast<double>(draws)));
  put("workload.split_ns_per_job", ratio(split_ns, static_cast<double>(splits)));
  put("policy.self_s", policy_self);
  put("policy.ns_per_call", ratio(policy_self * 1e9, static_cast<double>(submits + departures)));
  count("policy.submit_calls", submits);
  count("policy.departure_calls", departures);
  put("policy.queue_depth_mean", ratio(static_cast<double>(depth_sum), static_cast<double>(submits)));
  count("cluster.place_attempts", attempts);
  count("cluster.place_rejects", rejects);
  put("cluster.place_success_ratio",
      ratio(static_cast<double>(attempts - rejects), static_cast<double>(attempts)));
  put("core.run_s", run_s);
  put("core.start_job_s", start_job);
  put("core.self_s", core_self);
  count("core.events", events);
  put("core.ns_per_event", ratio(run_s * 1e9, static_cast<double>(events)));
  put("sim.calendar_pending_mean", pending_sum / n);
  put("stats.ns_per_job", stats_ns / n);
  count("obs.events", obs_events);
  put("exp.load_s", load_s);
  put("exp.manifest_write_s", manifest_s);
  count("exp.manifest_bytes", manifest_bytes);
  put("exp.runner_busy_frac", ratio(busy_s, wall_s * static_cast<double>(workers)));
  // Self times of every layer inside run() must add up to the engine's own
  // clock of run(): more means a span was counted twice, less that time
  // escaped every span.
  put("layer_coverage_frac",
      ratio(core_self + policy_self + start_job + trace_self, engine_wall));
  json.end_object();
  json.key("span_check").begin_object();
  count("nesting_errors", nesting_errors);
  count("root_spans", top_level_calls);
  put("self_sum_minus_root_s", core_self + policy_self + start_job + trace_self - run_s);
  json.end_object();
}

int cmd_op(int argc, const char* const* argv) {
  const Clock::time_point process_start = Clock::now();
  mcsim::CliParser parser("mcsim_perf op: one measured operation");
  parser.add_option("workers", "1", "exp::Runner worker threads");
  parser.add_option("out-dir", ".", "directory for the run manifests");
  parser.add_flag("traced", "attach the layer probes");
  if (!parser.parse(argc, argv)) return 0;
  const auto workers = static_cast<unsigned>(parser.get_uint("workers"));
  const std::filesystem::path out_dir = parser.get("out-dir");
  const bool traced = parser.get_flag("traced");

  // Set-up: scenario load and validation ...
  std::vector<ScenarioSpec> specs;
  for (const std::string& path : parser.positional()) {
    specs.push_back(mcsim::exp::load_scenario(path));
    mcsim::exp::validate(specs.back());
    MCSIM_REQUIRE(specs.back().mode == mcsim::exp::RunMode::kSweep,
                  path + ": perfbench scenarios are sweeps");
  }
  const double load_s = seconds_between(process_start, Clock::now());

  // ... then the configs (with the SWF pre-scan) and the engines.
  std::vector<Point> points;
  for (std::size_t s = 0; s < specs.size(); ++s) {
    for (const double utilization : specs[s].sweep_grid()) {
      Point& point = points.emplace_back();
      point.scenario = s;
      point.utilization = utilization;
      if (traced) {
        point.probe = std::make_unique<Probe>();
        Probe& probe = *point.probe;
        point.config = mcsim::exp::to_simulation_config(
            specs[s], utilization, [&probe](const std::string& path) {
              const Clock::time_point start = Clock::now();
              mcsim::exp::ResolvedTrace resolved = mcsim::exp::resolve_trace_from_file(path);
              probe.prescan_s += seconds_between(start, Clock::now());
              return resolved;
            });
        attach_probe(point);
      } else {
        point.config = mcsim::exp::to_simulation_config(specs[s], utilization);
      }
      point.config.engine_threads = specs[s].engine_threads_for(workers);
      point.simulation = std::make_unique<mcsim::MulticlusterSimulation>(point.config);
      if (traced) attach_observers(point);
    }
  }
  mcsim::exp::Runner runner(workers);
  const double setup_s = seconds_between(process_start, Clock::now());

  // Measured phase: first event to last manifest written.
  const double cpu_start = cpu_seconds();
  const Clock::time_point start = Clock::now();
  runner.run(points.size(), [&](std::size_t i) {
    Point& point = points[i];
    const Clock::time_point task_start = Clock::now();
    if (point.probe) {
      const Span span(point.probe->ledger, kRun);
      point.result = point.simulation->run();
    } else {
      point.result = point.simulation->run();
    }
    const Clock::time_point manifest_start = Clock::now();
    const std::filesystem::path path = out_dir / ("point-" + std::to_string(i) + ".json");
    std::ofstream out(path);
    mcsim::ManifestInfo info;
    info.scenario = &specs[point.scenario];
    mcsim::write_run_manifest(out, point.config, point.result,
                              point.probe ? &point.probe->metrics : nullptr, info);
    point.manifest_bytes = static_cast<std::uint64_t>(out.tellp());
    out.close();
    MCSIM_REQUIRE(!out.fail(), "cannot write " + path.string());
    const Clock::time_point task_end = Clock::now();
    point.manifest_s = seconds_between(manifest_start, task_end);
    point.task_s = seconds_between(task_start, task_end);
  });
  const double wall_s = seconds_between(start, Clock::now());
  const double cpu_s = cpu_seconds() - cpu_start;

  // Correctness: every job completed, and each scenario's digest.
  std::uint64_t jobs = 0;
  bool all_complete = true;
  for (const Point& point : points) {
    jobs += point.result.completed_jobs;
    all_complete = all_complete && !point.result.unstable &&
                   point.result.completed_jobs == point.config.total_jobs;
  }

  std::ostringstream text;
  mcsim::obs::JsonWriter json(text);
  json.begin_object();
  json.key("setup_s").value(setup_s);
  json.key("wall_s").value(wall_s);
  json.key("cpu_s").value(cpu_s);
  json.key("jobs").value(jobs);
  json.key("all_complete").value(all_complete);
  json.key("digests").begin_array();
  for (std::size_t s = 0; s < specs.size(); ++s) {
    std::vector<const Point*> mine;
    for (const Point& point : points) {
      if (point.scenario == s) mine.push_back(&point);
    }
    json.value(sweep_digest(specs[s], mine));
  }
  json.end_array();
  if (traced) write_layers(json, points, specs, load_s, wall_s, workers);
  json.end_object();
  std::cout << text.str() << std::endl;
  return 0;
}

int cmd_canonical(int argc, const char* const* argv) {
  mcsim::CliParser parser("mcsim_perf canonical: reference digests");
  if (!parser.parse(argc, argv)) return 0;
  for (const std::string& path : parser.positional()) {
    const std::string observation =
        mcsim::exp::canonical_observation(mcsim::exp::load_scenario(path));
    std::cout << mcsim::exp::observation_digest(mcsim::obs::parse_json(observation)) << '\n';
  }
  return 0;
}

int cmd_gen_log(int argc, const char* const* argv) {
  mcsim::CliParser parser("mcsim_perf gen-log: synthetic DAS1-like SWF log");
  parser.add_option("seed", "1", "generator seed");
  parser.add_option("jobs", "100000", "jobs in the log");
  parser.add_option("days", "300", "log span in days");
  parser.add_option("out", "log.swf", "output path");
  if (!parser.parse(argc, argv)) return 0;
  mcsim::SyntheticLogConfig config;
  config.num_jobs = parser.get_uint("jobs");
  config.duration_seconds = parser.get_double("days") * 86400.0;
  config.seed = parser.get_uint("seed");
  mcsim::write_swf_file(parser.get("out"), mcsim::generate_synthetic_das1_log(config));
  return 0;
}

/// A fixed integer loop: its time tracks how fast this host runs plain
/// code right now (frequency, steal), independent of mcsim.
int cmd_calibrate() {
  const Clock::time_point start = Clock::now();
  std::uint64_t x = 88172645463325252ull;
  for (int i = 0; i < 50'000'000; ++i) {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
  }
  const double elapsed = seconds_between(start, Clock::now());
  std::cout << elapsed << ' ' << (x & 1U) << '\n';
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  mcsim::set_log_level(mcsim::LogLevel::kWarn);
  if (argc < 2) {
    std::cerr << "usage: mcsim_perf {op|canonical|gen-log|calibrate} ...\n";
    return mcsim::kExitUsage;
  }
  const std::string command = argv[1];
  try {
    if (command == "op") return perfbench::cmd_op(argc - 1, argv + 1);
    if (command == "canonical") return perfbench::cmd_canonical(argc - 1, argv + 1);
    if (command == "gen-log") return perfbench::cmd_gen_log(argc - 1, argv + 1);
    if (command == "calibrate") return perfbench::cmd_calibrate();
  } catch (const std::exception& error) {
    std::cerr << "mcsim_perf " << command << ": " << error.what() << '\n';
    return mcsim::cli_exit_code(error);
  }
  std::cerr << "mcsim_perf: unknown command " << command << '\n';
  return mcsim::kExitUsage;
}
