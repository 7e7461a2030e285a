// Engine microbenchmarks (google-benchmark): the DES calendar, placement
// rules (the WF/FF/BF ablation from DESIGN.md), distribution sampling, SWF
// stream parsing, the conservative-backfill pass, and end-to-end simulation
// throughput per policy.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <functional>
#include <memory>
#include <queue>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "cluster/placement.hpp"
#include "core/engine.hpp"
#include "exp/scenario.hpp"
#include "obs/ring_recorder.hpp"
#include "obs/swf_builder.hpp"
#include "policy/composed_scheduler.hpp"
#include "policy/pipeline.hpp"
#include "sim/calendar.hpp"
#include "trace/swf_stream.hpp"
#include "trace/synthetic_log.hpp"
#include "util/rng.hpp"
#include "workload/das_workload.hpp"
#include "workload/job_splitter.hpp"

namespace {

using namespace mcsim;

// Minimum measuring time per benchmark, set here rather than with
// --benchmark_min_time, whose value syntax differs between gbench releases
// ("0.05" vs "0.05s"). These rows are advisory, so short runs suffice.
constexpr double kMinTime = 0.05;

void BM_CalendarPushPop(benchmark::State& state) {
  const auto batch = static_cast<std::size_t>(state.range(0));
  Rng rng(1);
  for (auto _ : state) {
    Calendar cal;
    for (std::size_t i = 0; i < batch; ++i) cal.push(rng.uniform(0.0, 1e6));
    while (!cal.empty()) benchmark::DoNotOptimize(cal.pop());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(batch));
}
BENCHMARK(BM_CalendarPushPop)->Arg(256)->Arg(4096)->Arg(65536)->MinTime(kMinTime);

void BM_CalendarHold(benchmark::State& state) {
  // The classic "hold" model: steady-state push/pop on a part-full calendar.
  Rng rng(2);
  Calendar cal;
  for (int i = 0; i < 1024; ++i) cal.push(rng.uniform(0.0, 1000.0));
  double now = 0.0;
  for (auto _ : state) {
    const auto entry = cal.pop();
    now = entry.time;
    cal.push(now + rng.uniform(0.0, 1000.0));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_CalendarHold)->MinTime(kMinTime);

void BM_CalendarCancelHeavy(benchmark::State& state) {
  // The engine's real pop path: jobs schedule cancellable events (departure
  // guards, backfill reservations) and many get cancelled before they fire.
  // Each iteration pops one event, pushes two and cancels one of them, so
  // half of all heap entries are stale and both the cancel path and the
  // liveness check on pop are exercised; the calendar stays at 1024 live.
  Rng rng(7);
  Calendar cal;
  for (int i = 0; i < 1024; ++i) cal.push(rng.uniform(0.0, 1000.0));
  double now = 0.0;
  std::uint64_t cursor = 0;
  for (auto _ : state) {
    const auto entry = cal.pop();
    now = entry.time;
    const EventId a = cal.push(now + rng.uniform(0.0, 1000.0));
    const EventId b = cal.push(now + rng.uniform(0.0, 1000.0));
    cal.cancel((cursor & 1) != 0 ? a : b);
    ++cursor;
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_CalendarCancelHeavy)->MinTime(kMinTime);

void BM_Placement(benchmark::State& state) {
  const auto rule = static_cast<PlacementRule>(state.range(0));
  Rng rng(3);
  std::vector<std::vector<std::uint32_t>> requests;
  for (int i = 0; i < 512; ++i) {
    const auto size = static_cast<std::uint32_t>(das_s_128().sample(rng));
    requests.push_back(split_job(size, 16, 4));
  }
  std::vector<std::uint32_t> idle{17, 3, 29, 11};
  std::size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(place_components(requests[i % requests.size()], idle, rule));
    ++i;
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_Placement)
    ->Arg(static_cast<int>(PlacementRule::kWorstFit))
    ->Arg(static_cast<int>(PlacementRule::kFirstFit))
    ->Arg(static_cast<int>(PlacementRule::kBestFit))
    ->MinTime(kMinTime);

void BM_SampleDasS128(benchmark::State& state) {
  Rng rng(4);
  for (auto _ : state) benchmark::DoNotOptimize(das_s_128().sample(rng));
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_SampleDasS128)->MinTime(kMinTime);

void BM_SampleDasT900(benchmark::State& state) {
  Rng rng(5);
  const auto dist = das_t_900();
  for (auto _ : state) benchmark::DoNotOptimize(dist->sample(rng));
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_SampleDasT900)->MinTime(kMinTime);

// The workload-build ledger row: the synthetic generator filling one
// recycled JobSpec in place, the way the engine draws every arrival (the
// sweep_fig3 workload's Fig. 3 configuration at component limit 16).
// Items are jobs.
void BM_WorkloadDraw(benchmark::State& state) {
  PaperScenario scenario;
  scenario.policy = PolicyKind::kGS;
  scenario.component_limit = 16;
  const SimulationConfig config = make_paper_config(scenario, 0.5, 1, 1);
  WorkloadGenerator generator(config.workload, 1);
  JobSpec spec;
  for (auto _ : state) {
    generator.next(spec);
    benchmark::DoNotOptimize(spec.components.data());
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_WorkloadDraw)->MinTime(kMinTime);

void BM_EndToEndSimulation(benchmark::State& state) {
  const auto policy = static_cast<PolicyKind>(state.range(0));
  std::uint64_t jobs = 0;
  std::uint64_t seed = 1;
  for (auto _ : state) {
    PaperScenario scenario;
    scenario.policy = policy;
    scenario.component_limit = 16;
    auto config = make_paper_config(scenario, 0.5, 5000, seed++);
    const auto result = run_simulation(config);
    benchmark::DoNotOptimize(result.mean_response());
    jobs += result.completed_jobs;
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(jobs));
  state.SetLabel("jobs/s");
}
BENCHMARK(BM_EndToEndSimulation)
    ->Arg(static_cast<int>(PolicyKind::kGS))
    ->Arg(static_cast<int>(PolicyKind::kLS))
    ->Arg(static_cast<int>(PolicyKind::kLP))
    ->Arg(static_cast<int>(PolicyKind::kSC))
    ->Unit(benchmark::kMillisecond)
    ->MinTime(kMinTime);

// The observability zero-cost contract (BENCH_obs.json): BM_EngineHot is
// the engine with no sink attached — the body is BM_EndToEndSimulation's,
// duplicated so before/after comparisons have a stable name — and must
// stay within noise of the pre-observability baseline. BM_EngineTraced
// runs the full pipeline (ring recorder + SWF builder + metrics) and
// quantifies what tracing costs when you do ask for it.
void BM_EngineHot(benchmark::State& state) {
  const auto policy = static_cast<PolicyKind>(state.range(0));
  std::uint64_t jobs = 0;
  std::uint64_t seed = 1;
  for (auto _ : state) {
    PaperScenario scenario;
    scenario.policy = policy;
    scenario.component_limit = 16;
    auto config = make_paper_config(scenario, 0.5, 5000, seed++);
    const auto result = run_simulation(config);
    benchmark::DoNotOptimize(result.mean_response());
    jobs += result.completed_jobs;
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(jobs));
  state.SetLabel("jobs/s");
}
BENCHMARK(BM_EngineHot)
    ->Arg(static_cast<int>(PolicyKind::kGS))
    ->Arg(static_cast<int>(PolicyKind::kLS))
    ->Arg(static_cast<int>(PolicyKind::kLP))
    ->Arg(static_cast<int>(PolicyKind::kSC))
    ->Unit(benchmark::kMillisecond)
    ->MinTime(kMinTime);

void BM_EngineTraced(benchmark::State& state) {
  const auto policy = static_cast<PolicyKind>(state.range(0));
  std::uint64_t jobs = 0;
  std::uint64_t seed = 1;
  for (auto _ : state) {
    PaperScenario scenario;
    scenario.policy = policy;
    scenario.component_limit = 16;
    auto config = make_paper_config(scenario, 0.5, 5000, seed++);
    MulticlusterSimulation simulation(config);
    obs::RingRecorder recorder;
    obs::SwfTraceBuilder builder;
    obs::MetricsRegistry metrics;
    recorder.add_emitter(
        [&builder](const obs::TraceEvent& event) { builder.record(event); });
    simulation.set_trace_sink(&recorder);
    simulation.set_metrics(&metrics);
    const auto result = simulation.run();
    benchmark::DoNotOptimize(result.mean_response());
    benchmark::DoNotOptimize(builder.trace().records.size());
    jobs += result.completed_jobs;
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(jobs));
  state.SetLabel("jobs/s");
}
BENCHMARK(BM_EngineTraced)
    ->Arg(static_cast<int>(PolicyKind::kGS))
    ->Arg(static_cast<int>(PolicyKind::kLS))
    ->Unit(benchmark::kMillisecond)
    ->MinTime(kMinTime);

// The SWF parse layer in bytes per second: SwfStreamReader over a
// generated DAS1-like log held in memory, so the row measures parsing, not
// the disk.
void BM_SwfStreamParse(benchmark::State& state) {
  SyntheticLogConfig config;
  config.num_jobs = 20000;
  std::ostringstream out;
  write_swf(out, generate_synthetic_das1_log(config));
  const std::string log = out.str();
  std::istringstream in(log);
  std::uint64_t records = 0;
  for (auto _ : state) {
    in.clear();
    in.seekg(0);
    SwfStreamReader reader(in, "<bench>");
    TraceRecord record;
    while (reader.next(record)) benchmark::DoNotOptimize(record);
    records += reader.records_read();
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations() * log.size()));
  state.SetItemsProcessed(static_cast<std::int64_t>(records));
}
BENCHMARK(BM_SwfStreamParse)->Unit(benchmark::kMillisecond)->MinTime(kMinTime);

// The policy layer of a conservative-backfill run, without the engine: a
// GS+conservative scheduler on 4 x 32 processors with its queue held at a
// fixed depth. Each iteration completes the running job that ends first
// (one pass) and refills the queue with seeded jobs (one pass per submit),
// so the rate is in scheduling passes, each over the same kind of running
// set and queue a backfill_deep run sees.
class PassBenchContext final : public SchedulerContext {
 public:
  [[nodiscard]] const Multicluster& system() const override { return system_; }
  [[nodiscard]] double now() const override { return clock_; }
  void start_job(JobPtr job, Allocation allocation) override {
    job->allocation = std::move(allocation);
    job->start_time = clock_;
    system_.allocate(job->allocation);
    ending_.emplace(clock_ + job->spec.gross_service_time, job);
  }

  /// Complete the running job that ends first; returns its slot.
  JobPtr depart() {
    const auto [end, job] = ending_.top();
    ending_.pop();
    clock_ = end;
    system_.release(job->allocation);
    return job;
  }

 private:
  using Ending = std::pair<double, JobPtr>;
  Multicluster system_{4, 32};
  double clock_ = 0.0;
  std::priority_queue<Ending, std::vector<Ending>, std::greater<>> ending_;
};

void BM_ConservativeBackfillPass(benchmark::State& state) {
  const auto depth = static_cast<std::size_t>(state.range(0));
  PassBenchContext context;
  ComposedScheduler scheduler(
      context,
      expand_policy(PolicyKind::kGS, PlacementRule::kWorstFit, BackfillMode::kConservative),
      "GS+conservative-bf");
  Rng rng(2003);
  JobPool pool(context.system().num_clusters());
  std::uint64_t next_id = 1;
  const auto submit_one = [&]() {
    JobPtr job = pool.acquire();
    JobSpec& spec = job->spec;
    spec.id = next_id++;
    spec.arrival_time = context.now();
    const std::uint64_t parts = 1 + rng.uniform_int(4);
    spec.components.clear();
    for (std::uint64_t i = 0; i < parts; ++i) {
      spec.components.push_back(1 + static_cast<std::uint32_t>(rng.uniform_int(16)));
    }
    std::sort(spec.components.begin(), spec.components.end(), std::greater<>());
    spec.total_size = 0;
    for (std::uint32_t c : spec.components) spec.total_size += c;
    spec.wide_area = parts > 1;
    spec.service_time = rng.exponential_mean(100.0);
    spec.gross_service_time = spec.wide_area ? 1.25 * spec.service_time : spec.service_time;
    scheduler.submit(job);
  };
  while (scheduler.queued_jobs() < depth) submit_one();

  std::uint64_t passes = 0;
  for (auto _ : state) {
    pool.release(context.depart());
    scheduler.on_departure();
    ++passes;
    while (scheduler.queued_jobs() < depth) {
      submit_one();
      ++passes;
    }
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(passes));
}
BENCHMARK(BM_ConservativeBackfillPass)->Arg(8)->Arg(64)->Arg(512)->MinTime(kMinTime);

// Placement-rule ablation at the system level: does WF vs FF/BF move the
// response time? (DESIGN.md ablation; the paper fixes WF.)
void BM_PlacementRuleAblation(benchmark::State& state) {
  const auto rule = static_cast<PlacementRule>(state.range(0));
  double response = 0.0;
  std::uint64_t jobs = 0;
  for (auto _ : state) {
    PaperScenario scenario;
    scenario.policy = PolicyKind::kLS;
    scenario.component_limit = 16;
    scenario.placement = rule;
    auto config = make_paper_config(scenario, 0.55, 5000, 77);
    const auto result = run_simulation(config);
    response = result.mean_response();
    jobs += result.completed_jobs;
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(jobs));
  state.counters["mean_response_s"] = response;
}
BENCHMARK(BM_PlacementRuleAblation)
    ->Arg(static_cast<int>(PlacementRule::kWorstFit))
    ->Arg(static_cast<int>(PlacementRule::kFirstFit))
    ->Arg(static_cast<int>(PlacementRule::kBestFit))
    ->Unit(benchmark::kMillisecond)
    ->MinTime(kMinTime);

}  // namespace

BENCHMARK_MAIN();
