// Differential gate for the conservative-backfill pass: on every seeded
// workload, ComposedScheduler with BackfillMode::kConservative must make
// exactly the placement attempts and starts the pass it replaced made.
// OracleProfile and OracleConservativeGs below are verbatim copies of that
// pass — a profile rebuilt per pass and an earliest_fit + reserve pair for
// every job in the scan window — the implementation the three
// matrix_*_conservative goldens were sealed with.
//
// Each case drives both schedulers through the same arrivals and
// departures on their own Multicluster (a small event loop below) and
// compares every placement attempt (job, outcome) and every start (job,
// time, layout) in order. The oracle also records the reservations it held
// in each pass, so each pass of the scheduler under test is checked for
// the no-delay property: its starts, together with the reservations of the
// jobs it left waiting, never need more processors than the profile had.
// Counters in the oracle assert that the edge cases the pass must get
// right actually occur.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <deque>
#include <functional>
#include <limits>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "policy/composed_scheduler.hpp"
#include "policy/pipeline.hpp"
#include "policy/queue.hpp"
#include "policy/reservation.hpp"
#include "policy/scheduler.hpp"
#include "util/assert.hpp"
#include "util/rng.hpp"

namespace mcsim {
namespace {

// ---------------------------------------------------------------------------
// Edge cases the oracle saw, summed over every run of a test.
struct Coverage {
  std::uint64_t tie_merges = 0;            // running jobs ending together
  std::uint64_t window_on_breakpoint = 0;  // a reservation ending on a breakpoint
  std::uint64_t oversize = 0;              // a job wider than the machine
  std::uint64_t never_fits = 0;            // no slot at all (wider than the profile)
  std::uint64_t fragmentation_holds = 0;   // fits in aggregate, not per cluster
  std::uint64_t deep_queue_passes = 0;     // more queued jobs than the scan depth
  std::uint64_t zero_free_passes = 0;      // nothing free at now
  std::uint64_t stop_boundary = 0;         // free at now == smallest size left
};

// ---------------------------------------------------------------------------
// Reference profile: the historical AvailabilityProfile, unchanged apart
// from the coverage counters.
class OracleProfile {
 public:
  explicit OracleProfile(Coverage& coverage) : coverage_(coverage) {}

  void reset(double now, std::uint32_t idle,
             const std::vector<ReservationTracker::RunningJob>& running) {
    points_.clear();
    points_.emplace_back(now, idle);
    ends_.clear();
    for (const ReservationTracker::RunningJob& job : running) {
      if (job.end_time <= now) {
        points_.front().second += job.processors;
      } else {
        ends_.emplace_back(job.end_time, job.processors);
      }
    }
    std::sort(ends_.begin(), ends_.end());
    for (const auto& [time, processors] : ends_) {
      if (points_.back().first == time) {
        points_.back().second += processors;
        ++coverage_.tie_merges;
      } else {
        points_.emplace_back(time, points_.back().second + processors);
      }
    }
  }

  [[nodiscard]] double earliest_fit(std::uint32_t size, double duration) const {
    for (std::size_t i = 0; i < points_.size(); ++i) {
      if (points_[i].second < size) continue;
      const double end = points_[i].first + duration;
      bool fits = true;
      for (std::size_t j = i + 1; j < points_.size(); ++j) {
        if (points_[j].first >= end) break;
        if (points_[j].second < size) {
          fits = false;
          break;
        }
      }
      if (fits) return points_[i].first;
    }
    return std::numeric_limits<double>::infinity();
  }

  void reserve(double start, double duration, std::uint32_t size) {
    MCSIM_ASSERT(!points_.empty());
    const std::size_t first = split_at(start);
    const std::size_t last = split_at(start + duration);
    for (std::size_t i = first; i < last; ++i) {
      std::uint32_t& free = points_[i].second;
      free = free >= size ? free - size : 0;
    }
  }

  [[nodiscard]] const std::vector<std::pair<double, std::uint32_t>>& points() const {
    return points_;
  }

 private:
  std::size_t split_at(double time) {
    const auto it = std::lower_bound(
        points_.begin(), points_.end(), time,
        [](const std::pair<double, std::uint32_t>& point, double t) {
          return point.first < t;
        });
    const auto index = static_cast<std::size_t>(it - points_.begin());
    if (index == 0 || (it != points_.end() && it->first == time)) {
      if (index > 0) ++coverage_.window_on_breakpoint;
      return index;
    }
    points_.insert(it, {time, std::prev(it)->second});
    return index;
  }

  Coverage& coverage_;
  std::vector<std::pair<double, std::uint32_t>> points_;
  std::vector<std::pair<double, std::uint32_t>> ends_;
};

// ---------------------------------------------------------------------------
// Test context: a real Multicluster, a clock, and a log of every placement
// attempt and start, each tagged with the scheduler call it happened in.
struct PlacementCall {
  std::uint64_t call;
  std::uint64_t job;
  bool success;
  bool operator==(const PlacementCall&) const = default;
};

struct StartCall {
  std::uint64_t call;
  std::uint64_t job;
  double time;
  std::vector<std::pair<ClusterId, std::uint32_t>> layout;
  bool operator==(const StartCall&) const = default;
};

class LoggingContext final : public SchedulerContext {
 public:
  explicit LoggingContext(const std::vector<std::uint32_t>& cluster_sizes)
      : system_(cluster_sizes) {}

  [[nodiscard]] const Multicluster& system() const override { return system_; }
  [[nodiscard]] double now() const override { return clock; }

  void start_job(JobPtr job, Allocation allocation) override {
    job->allocation = std::move(allocation);
    job->start_time = clock;
    system_.allocate(job->allocation);
    running.push_back(job);
    StartCall start{call, job->spec.id, clock, {}};
    for (const ComponentPlacement& placement : job->allocation) {
      start.layout.emplace_back(placement.cluster, placement.processors);
    }
    starts.push_back(std::move(start));
  }

  void record_placement(Job& job, bool success, std::int16_t /*cluster*/) override {
    placements.push_back(PlacementCall{call, job.spec.id, success});
  }

  void release(JobPtr job) { system_.release(job->allocation); }

  double clock = 0.0;
  std::uint64_t call = 0;
  std::vector<JobPtr> running;
  std::vector<PlacementCall> placements;
  std::vector<StartCall> starts;

 private:
  Multicluster system_;
};

// ---------------------------------------------------------------------------
// Reference scheduler: the single-global-queue protocol with the historical
// conservative pass, unchanged apart from what it records for the checks.
struct Reservation {
  std::uint64_t job;
  double start;
  double duration;
  std::uint32_t size;
};

struct PassRecord {
  std::uint64_t call;
  std::size_t fcfs_starts;  // starts in this call before the pass began
  double now;
  std::vector<std::pair<double, std::uint32_t>> baseline;
  std::vector<Reservation> held;  // reservations of jobs that did not start
};

class OracleConservativeGs final : public Scheduler {
 public:
  OracleConservativeGs(LoggingContext& context, QueueDiscipline discipline,
                       Coverage& coverage)
      : Scheduler(context, PlacementRule::kWorstFit),
        log_(context),
        coverage_(coverage),
        profile_(coverage) {
    global_.set_order(make_job_order(discipline));
  }

  void submit(JobPtr job) override {
    job->queue_class = QueueClass::kGlobal;
    global_.push(job);
    try_schedule_single();
  }

  void on_departure() override {
    const double now = context_.now();
    std::erase_if(running_, [now](const ReservationTracker::RunningJob& r) {
      return r.end_time <= now;
    });
    try_schedule_single();
  }

  [[nodiscard]] std::size_t queued_jobs() const override { return global_.size(); }
  [[nodiscard]] std::size_t max_queue_length() const override { return global_.size(); }
  [[nodiscard]] std::vector<std::size_t> queue_lengths() const override {
    return {global_.size()};
  }
  [[nodiscard]] std::string name() const override { return "oracle"; }

  std::vector<PassRecord> passes;

 private:
  void start_at(std::size_t index, Allocation allocation) {
    JobPtr job = global_.remove_at(index);
    running_.push_back({context_.now() + job->spec.gross_service_time, job->spec.total_size});
    context_.start_job(job, std::move(allocation));
  }

  void try_schedule_single() {
    const std::size_t starts_before = log_.starts.size();
    while (!global_.empty()) {
      auto allocation = try_place(*global_.front());
      if (!allocation) break;
      start_at(0, std::move(*allocation));
    }
    if (global_.size() < 2) return;
    PassRecord record;
    record.call = log_.call;
    record.fcfs_starts = log_.starts.size() - starts_before;
    backfill_conservative(record);
    passes.push_back(std::move(record));
  }

  void backfill_conservative(PassRecord& record) {
    const double now = context_.now();
    profile_.reset(now, context_.system().total_idle(), running_);
    record.now = now;
    record.baseline = profile_.points();
    if (global_.size() > 256) ++coverage_.deep_queue_passes;
    if (profile_.points().front().second == 0) ++coverage_.zero_free_passes;
    // Coverage only: the smallest size among the jobs not yet scanned.
    const std::size_t depth = std::min<std::size_t>(global_.size(), 256);
    std::vector<std::uint32_t> smallest_left(depth + 1,
                                             std::numeric_limits<std::uint32_t>::max());
    for (std::size_t i = depth; i-- > 0;) {
      smallest_left[i] = std::min(smallest_left[i + 1], global_.at(i)->spec.total_size);
    }
    std::size_t index = 0;
    std::size_t scanned = 0;
    while (index < global_.size() && scanned < 256) {
      if (profile_.points().front().second == smallest_left[scanned]) {
        ++coverage_.stop_boundary;
      }
      ++scanned;
      Job& job = *global_.at(index);
      const double start =
          profile_.earliest_fit(job.spec.total_size, job.spec.gross_service_time);
      if (!std::isfinite(start)) {
        // Wider than the machine, or than the profile when a departure
        // pruned a simultaneous one not yet released.
        ++coverage_.never_fits;
        if (job.spec.total_size > context_.system().total_processors()) ++coverage_.oversize;
        ++index;
        continue;
      }
      if (start <= now) {
        auto allocation = try_place(job);
        if (allocation) {
          profile_.reserve(now, job.spec.gross_service_time, job.spec.total_size);
          start_at(index, std::move(*allocation));
          continue;
        }
        ++coverage_.fragmentation_holds;
      }
      profile_.reserve(std::max(start, now), job.spec.gross_service_time,
                       job.spec.total_size);
      record.held.push_back({job.spec.id, std::max(start, now),
                             job.spec.gross_service_time, job.spec.total_size});
      ++index;
    }
  }

  LoggingContext& log_;
  Coverage& coverage_;
  JobQueue global_;
  std::vector<ReservationTracker::RunningJob> running_;
  OracleProfile profile_;
};

// ---------------------------------------------------------------------------
// Workloads and the event loop.
struct Scenario {
  std::vector<std::uint32_t> clusters;
  QueueDiscipline discipline = QueueDiscipline::kFcfs;
  std::vector<JobSpec> jobs;  // in arrival order
};

struct ScenarioShape {
  std::size_t jobs;
  double mean_interarrival;
  bool integer_times;      // arrivals and service times on a coarse grid
  double oversize_share;   // jobs wider than the whole machine
  double zero_service_share;
};

Scenario make_scenario(std::uint64_t seed, const ScenarioShape& shape) {
  Rng rng(seed);
  static const std::vector<std::vector<std::uint32_t>> kLayouts = {
      {8, 8, 8, 8}, {16, 8, 4}, {32, 32, 32, 32}, {6}};
  static const QueueDiscipline kDisciplines[] = {
      QueueDiscipline::kFcfs, QueueDiscipline::kShortestJobFirst,
      QueueDiscipline::kLargestFirst};
  Scenario scenario;
  scenario.clusters = kLayouts[rng.uniform_int(kLayouts.size())];
  scenario.discipline = kDisciplines[rng.uniform_int(3)];
  std::uint32_t capacity = 0;
  for (std::uint32_t size : scenario.clusters) capacity += size;
  // Component k of a job is drawn no wider than the k-th widest cluster, so
  // every ordinary job fits an empty machine.
  std::vector<std::uint32_t> widest_first = scenario.clusters;
  std::sort(widest_first.begin(), widest_first.end(), std::greater<>());
  double clock = 0.0;
  for (std::size_t i = 0; i < shape.jobs; ++i) {
    JobSpec spec;
    spec.id = i + 1;
    const double gap = rng.exponential_mean(shape.mean_interarrival);
    clock += shape.integer_times ? std::floor(gap) : gap;
    spec.arrival_time = clock;
    const std::uint64_t parts =
        1 + rng.uniform_int(std::min<std::size_t>(scenario.clusters.size(), 3));
    if (rng.uniform() < shape.oversize_share) {
      spec.components.assign(parts, capacity / static_cast<std::uint32_t>(parts) + 1);
    } else {
      for (std::uint64_t p = 0; p < parts; ++p) {
        const std::uint64_t widest = widest_first[p];
        spec.components.push_back(1 + static_cast<std::uint32_t>(rng.uniform_int(widest)));
      }
    }
    std::sort(spec.components.begin(), spec.components.end(), std::greater<>());
    for (std::uint32_t c : spec.components) spec.total_size += c;
    spec.wide_area = spec.components.size() > 1;
    if (rng.uniform() < shape.zero_service_share) {
      spec.service_time = 0.0;
    } else if (shape.integer_times) {
      spec.service_time = 5.0 * static_cast<double>(1 + rng.uniform_int(8));
    } else {
      spec.service_time = rng.exponential_mean(20.0);
    }
    spec.gross_service_time = spec.wide_area ? spec.service_time * 1.25 : spec.service_time;
    scenario.jobs.push_back(std::move(spec));
  }
  return scenario;
}

/// Feed `scenario` to `scheduler`: arrivals in order, each departure at its
/// start plus its gross service time, an arrival before a departure at the
/// same time (so a pass can see a job that has ended but not yet left),
/// simultaneous departures in job-id order.
void drive(const Scenario& scenario, LoggingContext& context, Scheduler& scheduler,
           std::deque<Job>& arena) {
  std::size_t next = 0;
  for (;;) {
    const double arrival = next < scenario.jobs.size()
                               ? scenario.jobs[next].arrival_time
                               : std::numeric_limits<double>::infinity();
    auto leaving = context.running.end();
    for (auto it = context.running.begin(); it != context.running.end(); ++it) {
      const double end = (*it)->start_time + (*it)->spec.gross_service_time;
      if (leaving == context.running.end()) {
        leaving = it;
        continue;
      }
      const double best = (*leaving)->start_time + (*leaving)->spec.gross_service_time;
      if (end < best || (end == best && (*it)->spec.id < (*leaving)->spec.id)) leaving = it;
    }
    const double departure =
        leaving == context.running.end()
            ? std::numeric_limits<double>::infinity()
            : (*leaving)->start_time + (*leaving)->spec.gross_service_time;
    if (std::isinf(arrival) && std::isinf(departure)) return;
    ++context.call;
    if (arrival <= departure) {
      context.clock = arrival;
      arena.emplace_back(scenario.jobs[next++]);
      scheduler.submit(&arena.back());
    } else {
      context.clock = departure;
      JobPtr job = *leaving;
      context.running.erase(leaving);
      context.release(job);
      scheduler.on_departure();
    }
  }
}

/// The no-delay property of one pass: the jobs it started, together with
/// the reservations held for the jobs it left waiting, fit the pass's
/// starting profile at every moment. A start that cut into a reservation
/// made for a job ahead of it would overbook some moment.
::testing::AssertionResult no_start_delays_a_reservation(
    const PassRecord& pass, const std::vector<StartCall>& pass_starts,
    const std::vector<JobSpec>& jobs) {
  // (time, change in processors booked), swept in time order. The free
  // count of the starting profile only rises over time, so checking at each
  // booking change is enough.
  std::vector<std::pair<double, std::int64_t>> changes;
  auto book = [&changes](double start, double duration, std::uint32_t size) {
    changes.emplace_back(start, size);
    changes.emplace_back(start + duration, -static_cast<std::int64_t>(size));
  };
  for (const Reservation& held : pass.held) book(held.start, held.duration, held.size);
  for (const StartCall& start : pass_starts) {
    const JobSpec& spec = jobs[start.job - 1];
    book(pass.now, spec.gross_service_time, spec.total_size);
  }
  std::sort(changes.begin(), changes.end());
  std::int64_t used = 0;
  std::int64_t free = 0;
  std::size_t point = 0;
  for (std::size_t i = 0; i < changes.size();) {
    const double t = changes[i].first;
    while (i < changes.size() && changes[i].first == t) used += changes[i++].second;
    while (point < pass.baseline.size() && pass.baseline[point].first <= t) {
      free = pass.baseline[point++].second;
    }
    if (used > free) {
      return ::testing::AssertionFailure()
             << "call " << pass.call << " books " << used << " processors at t=" << t
             << " with only " << free << " free";
    }
  }
  return ::testing::AssertionSuccess();
}

/// Run `scenario` through both schedulers and compare everything.
void expect_identical(const Scenario& scenario, Coverage& coverage) {
  LoggingContext oracle_context(scenario.clusters);
  std::deque<Job> oracle_jobs;
  OracleConservativeGs oracle(oracle_context, scenario.discipline, coverage);
  drive(scenario, oracle_context, oracle, oracle_jobs);

  LoggingContext context(scenario.clusters);
  std::deque<Job> jobs;
  const PipelineSpec pipeline = expand_policy(PolicyKind::kGS, PlacementRule::kWorstFit,
                                              BackfillMode::kConservative,
                                              scenario.discipline);
  ComposedScheduler composed(context, pipeline, "GS+conservative-bf");
  drive(scenario, context, composed, jobs);

  ASSERT_EQ(context.placements.size(), oracle_context.placements.size());
  for (std::size_t i = 0; i < context.placements.size(); ++i) {
    ASSERT_EQ(context.placements[i], oracle_context.placements[i])
        << "placement attempt " << i << " (call " << oracle_context.placements[i].call
        << ", job " << oracle_context.placements[i].job << ")";
  }
  ASSERT_EQ(context.starts.size(), oracle_context.starts.size());
  for (std::size_t i = 0; i < context.starts.size(); ++i) {
    ASSERT_EQ(context.starts[i], oracle_context.starts[i]) << "start " << i;
  }
  EXPECT_EQ(composed.queued_jobs(), oracle.queued_jobs());

  // Starts of each call, in order, from the scheduler under test.
  std::size_t cursor = 0;
  for (const PassRecord& pass : oracle.passes) {
    while (cursor < context.starts.size() && context.starts[cursor].call < pass.call) {
      ++cursor;
    }
    std::vector<StartCall> pass_starts;
    for (std::size_t i = cursor + pass.fcfs_starts;
         i < context.starts.size() && context.starts[i].call == pass.call; ++i) {
      pass_starts.push_back(context.starts[i]);
    }
    ASSERT_TRUE(no_start_delays_a_reservation(pass, pass_starts, scenario.jobs));
  }
}

TEST(ConservativeDifferential, StableLoadsMatchTheReferencePass) {
  Coverage coverage;
  for (std::uint64_t seed = 1; seed <= 16; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    const Scenario scenario = make_scenario(
        seed, {/*jobs=*/400, /*mean_interarrival=*/seed % 2 ? 1.5 : 3.0,
               /*integer_times=*/seed % 3 != 0, /*oversize_share=*/0.0,
               /*zero_service_share=*/0.02});
    expect_identical(scenario, coverage);
  }
  EXPECT_GT(coverage.tie_merges, 0u);
  EXPECT_GT(coverage.window_on_breakpoint, 0u);
  EXPECT_GT(coverage.fragmentation_holds, 0u);
  EXPECT_GT(coverage.zero_free_passes, 0u);
  EXPECT_GT(coverage.never_fits, 0u);
  EXPECT_GT(coverage.stop_boundary, 0u);
}

TEST(ConservativeDifferential, OverloadBeyondTheScanDepth) {
  // Arrivals far faster than service: the queue grows past the scan depth,
  // so the window bound and the stop rule interact on deep queues.
  Coverage coverage;
  for (std::uint64_t seed = 101; seed <= 104; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    const Scenario scenario = make_scenario(
        seed, {/*jobs=*/700, /*mean_interarrival=*/0.2, /*integer_times=*/seed % 2 == 0,
               /*oversize_share=*/0.0, /*zero_service_share=*/0.0});
    expect_identical(scenario, coverage);
  }
  EXPECT_GT(coverage.deep_queue_passes, 0u);
  EXPECT_GT(coverage.stop_boundary, 0u);
}

TEST(ConservativeDifferential, JobsWiderThanTheMachine) {
  // A job no profile slot can hold gets no reservation and blocks the head
  // FCFS-style; everything behind it starts only by backfilling.
  Coverage coverage;
  for (std::uint64_t seed = 201; seed <= 208; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    const Scenario scenario = make_scenario(
        seed, {/*jobs=*/300, /*mean_interarrival=*/2.0, /*integer_times=*/true,
               /*oversize_share=*/0.03, /*zero_service_share=*/0.02});
    expect_identical(scenario, coverage);
  }
  EXPECT_GT(coverage.oversize, 0u);
  EXPECT_GT(coverage.deep_queue_passes, 0u);
}

// ---------------------------------------------------------------------------
// The profile on its own: reserve_earliest against earliest_fit + reserve,
// over random profiles and request streams, breakpoint for breakpoint.
TEST(ConservativeDifferential, ReserveEarliestMatchesFitThenReserve) {
  Coverage coverage;
  Rng rng(77);
  for (int round = 0; round < 400; ++round) {
    const bool grid = round % 2 == 0;
    const double now =
        grid ? static_cast<double>(rng.uniform_int(50)) : rng.uniform(0.0, 50.0);
    std::vector<ReservationTracker::RunningJob> running;
    const std::uint64_t count = rng.uniform_int(12);
    for (std::uint64_t i = 0; i < count; ++i) {
      // Some end at or before now: their processors count as free now.
      const double offset = grid ? static_cast<double>(rng.uniform_int(12)) - 2.0
                                 : rng.uniform(-2.0, 10.0);
      running.push_back({now + offset, 1 + static_cast<std::uint32_t>(rng.uniform_int(8))});
    }
    const std::uint32_t idle = static_cast<std::uint32_t>(rng.uniform_int(10));

    OracleProfile oracle(coverage);
    oracle.reset(now, idle, running);
    AvailabilityProfile profile;
    profile.reset(now, idle, running);
    ASSERT_EQ(profile.points(), oracle.points());

    for (int job = 0; job < 30; ++job) {
      const std::uint32_t size = static_cast<std::uint32_t>(rng.uniform_int(80));
      const double duration = rng.uniform() < 0.05 ? 0.0
                              : grid ? static_cast<double>(1 + rng.uniform_int(6))
                                     : rng.uniform(0.0, 8.0);
      const double expected = oracle.earliest_fit(size, duration);
      if (std::isfinite(expected)) oracle.reserve(expected, duration, size);
      const double got = profile.reserve_earliest(size, duration);
      ASSERT_EQ(got, expected) << "round " << round << " job " << job;
      ASSERT_EQ(profile.points(), oracle.points()) << "round " << round << " job " << job;
      ASSERT_EQ(profile.free_now(), oracle.points().front().second);
    }
  }
  EXPECT_GT(coverage.tie_merges, 0u);
  EXPECT_GT(coverage.window_on_breakpoint, 0u);
}

}  // namespace
}  // namespace mcsim
