// Allocation-free job lifecycle: once a run has warmed up, a simulated job
// goes from arrival through placement, start and departure back to the
// JobPool free list without a single operator new (docs/PERFORMANCE.md,
// "Pooled jobs").
//
// The probe counts global allocations inside MulticlusterSimulation::run()
// at N and at 2N jobs. Set-up (engine construction, opening a trace) is
// outside the probed region, and whatever the run allocates once — pool
// slabs, buffers reaching their high-water capacity, the result's vectors —
// is the same at both lengths. So the difference is the per-job cost times
// N, which must be zero up to a small constant: the few pool slots and
// queue slots a longer run's deeper peaks first touch.
#include <gtest/gtest.h>

#include <cstdlib>
#include <functional>
#include <iostream>
#include <memory>
#include <new>
#include <string>

#include "core/engine.hpp"
#include "exp/scenario.hpp"
#include "trace/swf.hpp"
#include "trace/swf_stream.hpp"
#include "trace/synthetic_log.hpp"
#include "test_support.hpp"

// ---------------------------------------------------------------------------
// Global-allocation probe (the same shape as tests/core_queue_test.cpp):
// this binary's operator new counts every call.
// ---------------------------------------------------------------------------
namespace {
std::size_t g_allocation_count = 0;
}  // namespace

void* operator new(std::size_t size) {
  ++g_allocation_count;
  if (void* p = std::malloc(size)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t size) { return ::operator new(size); }
void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

namespace mcsim {
namespace {

constexpr std::uint64_t kJobs = 4000;
/// Allowed growth from N to 2N jobs: the pool slots (two buffers each) and
/// queue capacity that the longer run's deeper peaks first need. GS grows
/// by 52 here, the most of the seven. Before the lifecycle was made
/// allocation-free the growth was about 2 per job (8000 here).
constexpr std::size_t kSlack = 96;

using MakeConfig = std::function<SimulationConfig(std::uint64_t jobs)>;

MakeConfig paper(PolicyKind policy) {
  return [policy](std::uint64_t jobs) {
    PaperScenario scenario;
    scenario.policy = policy;
    scenario.component_limit = 16;
    return make_paper_config(scenario, /*rho=*/0.5, jobs, /*seed=*/11);
  };
}

MakeConfig backfilled(BackfillMode mode) {
  return [mode](std::uint64_t jobs) {
    PaperScenario scenario;
    scenario.policy = PolicyKind::kGS;
    scenario.component_limit = 16;
    SimulationConfig config = make_paper_config(scenario, /*rho=*/0.65, jobs, /*seed=*/11);
    config.backfill = mode;
    return config;
  };
}

/// A streamed GS replay of a synthetic DAS1-like log, read through the same
/// file-backed SwfFileStream `mcsim replay` uses.
SimulationConfig replayed(std::uint64_t jobs) {
  static const std::string path = [] {
    SyntheticLogConfig log;
    log.num_jobs = 2 * kJobs + 500;
    log.seed = 29;
    const std::string file = ::testing::TempDir() + "mcsim_allocation_free.swf";
    write_swf_file(file, generate_synthetic_das1_log(log));
    return file;
  }();
  const SwfScan scan = scan_swf_file(path);
  auto trace = std::make_shared<TraceWorkloadConfig>();
  trace->open_source = [] { return std::make_unique<SwfFileStream>(path); };
  trace->streamed_usable_records = scan.summary.usable_records;
  trace->arrival_scale = trace_scale_for_utilization(scan.summary, 128, 0.3);
  SimulationConfig config;
  config.policy = PolicyKind::kGS;
  config.trace_workload = trace;
  config.total_jobs = jobs;
  return config;
}

std::size_t allocations_in_run(const SimulationConfig& config) {
  MulticlusterSimulation simulation(config);
  const std::size_t before = g_allocation_count;
  const SimulationResult result = simulation.run();
  const std::size_t allocations = g_allocation_count - before;
  EXPECT_FALSE(result.unstable);
  EXPECT_EQ(result.completed_jobs, config.total_jobs);
  return allocations;
}

/// Growth of the run's allocation count from kJobs to 2 * kJobs jobs.
std::size_t growth(const MakeConfig& make) {
  const std::size_t at_n = allocations_in_run(make(kJobs));
  const std::size_t at_2n = allocations_in_run(make(2 * kJobs));
  std::cout << "allocations in run(): " << at_n << " at " << kJobs << " jobs, " << at_2n
            << " at " << 2 * kJobs << '\n';
  return at_2n > at_n ? at_2n - at_n : 0;
}

TEST(AllocationFree, GS) {
  EXPECT_LE(growth(paper(PolicyKind::kGS)), kSlack);
}

TEST(AllocationFree, LS) {
  EXPECT_LE(growth(paper(PolicyKind::kLS)), kSlack);
}

TEST(AllocationFree, LP) {
  EXPECT_LE(growth(paper(PolicyKind::kLP)), kSlack);
}

TEST(AllocationFree, SC) {
  EXPECT_LE(growth(paper(PolicyKind::kSC)), kSlack);
}

TEST(AllocationFree, StreamedReplay) {
  EXPECT_LE(growth(replayed), kSlack);
}

TEST(AllocationFree, EasyBackfill) {
  EXPECT_LE(growth(backfilled(BackfillMode::kEasy)), kSlack);
}

TEST(AllocationFree, ConservativeBackfill) {
  EXPECT_LE(growth(backfilled(BackfillMode::kConservative)), kSlack);
}

// The placement half of the lifecycle, buffer by buffer: a start hands the
// job's own allocation buffer through start_job and back, and a reject
// leaves it with the job, empty.
void expect_buffers_stay_with_jobs(PolicyKind policy, std::vector<std::uint32_t> blocking) {
  testing::FakeContext context({32, 32, 32, 32});
  auto scheduler = testing::make_policy(policy, context);
  const JobPtr fits = testing::make_job(1, {8});
  const JobPtr blocked = testing::make_job(2, std::move(blocking));
  fits->allocation.reserve(4);
  blocked->allocation.reserve(4);
  const ComponentPlacement* fits_buffer = fits->allocation.data();
  const ComponentPlacement* blocked_buffer = blocked->allocation.data();

  scheduler->submit(fits);
  scheduler->submit(blocked);  // cluster 0 has 24 idle processors left

  ASSERT_TRUE(fits->started());
  EXPECT_EQ(fits->allocation.data(), fits_buffer);
  EXPECT_EQ(fits->allocation.front().cluster, 0u);
  EXPECT_FALSE(blocked->started());
  EXPECT_TRUE(blocked->allocation.empty());
  EXPECT_EQ(blocked->allocation.data(), blocked_buffer);
}

TEST(AllocationFree, PlacementUsesTheJobsOwnBuffer) {
  // GS places through try_place (Worst Fit over the whole system).
  expect_buffers_stay_with_jobs(PolicyKind::kGS, {32, 32, 32, 32});
}

TEST(AllocationFree, LocalPlacementUsesTheJobsOwnBuffer) {
  // LS places single-component jobs through try_place_local.
  expect_buffers_stay_with_jobs(PolicyKind::kLS, {32});
}

}  // namespace
}  // namespace mcsim
