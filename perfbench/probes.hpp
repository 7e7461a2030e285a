// Layer probes for the traced benchmark run. Every probe sits on a public
// seam of the mcsim libraries, so the simulator itself is measured without
// a single change to src/:
//
//   SimulationConfig::scheduler_factory -> ProxyScheduler + ProxyContext
//   TraceWorkloadConfig::open_source     -> TimedSource
//   obs::TraceSink                       -> CountingSink
//
// Each simulation owns one SpanLedger. A simulation runs on exactly one
// thread, so the ledger needs no locking. Spans nest on a stack; a span's
// self time is its duration minus the durations of the spans opened
// inside it. The totals stay in memory and are read once the run ends.
#pragma once

#include <array>
#include <chrono>
#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "obs/sink.hpp"
#include "policy/scheduler.hpp"
#include "policy/scheduler_factory.hpp"
#include "workload/trace_source.hpp"

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double seconds_between(Clock::time_point from, Clock::time_point to) {
  return std::chrono::duration<double>(to - from).count();
}

/// The layers a span can belong to. kRun is the root: one span around each
/// MulticlusterSimulation::run().
enum Layer : std::uint8_t { kRun, kPolicy, kStartJob, kTrace, kLayerCount };

class SpanLedger {
 public:
  void enter(Layer layer) { stack_.push_back({layer, Clock::now(), 0.0}); }

  void leave(Layer layer) {
    const Clock::time_point end = Clock::now();
    const Open top = stack_.back();
    stack_.pop_back();
    if (top.layer != layer) ++nesting_errors_;
    const double span = seconds_between(top.start, end);
    const auto index = static_cast<std::size_t>(layer);
    ++calls_[index];
    if (stack_.empty()) {
      // A top-level span. Only kRun may be one, except that the trace
      // layer is also read while the engine is being built (set-up).
      if (layer == kTrace) {
        setup_trace_s_ += span;
        return;
      }
      if (layer != kRun) ++nesting_errors_;
      top_level_s_ += span;
    } else {
      stack_.back().child_s += span;
      // start_job is only ever called by a policy; anything else means a
      // probe was wired to the wrong seam.
      if (layer == kStartJob && stack_.back().layer != kPolicy) ++nesting_errors_;
    }
    inclusive_s_[index] += span;
    self_s_[index] += span - top.child_s;
  }

  [[nodiscard]] double self_s(Layer layer) const { return self_s_[layer]; }
  [[nodiscard]] double inclusive_s(Layer layer) const { return inclusive_s_[layer]; }
  [[nodiscard]] std::uint64_t calls(Layer layer) const { return calls_[layer]; }
  /// Trace reads made before run() started (the engine primes its source).
  [[nodiscard]] double setup_trace_s() const { return setup_trace_s_; }
  /// Sum of the root spans: what the self times must add up to.
  [[nodiscard]] double top_level_s() const { return top_level_s_; }
  /// Spans closed out of order, start_job outside a policy call, or a
  /// non-root span with no parent. Must be 0.
  [[nodiscard]] std::uint64_t nesting_errors() const {
    return nesting_errors_ + (stack_.empty() ? 0 : 1);
  }

 private:
  struct Open {
    Layer layer;
    Clock::time_point start;
    double child_s;
  };
  std::vector<Open> stack_;
  std::array<double, kLayerCount> self_s_{};
  std::array<double, kLayerCount> inclusive_s_{};
  std::array<std::uint64_t, kLayerCount> calls_{};
  double setup_trace_s_ = 0.0;
  double top_level_s_ = 0.0;
  std::uint64_t nesting_errors_ = 0;
};

class Span {
 public:
  Span(SpanLedger& ledger, Layer layer) : ledger_(ledger), layer_(layer) {
    ledger_.enter(layer_);
  }
  ~Span() { ledger_.leave(layer_); }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  SpanLedger& ledger_;
  Layer layer_;
};

/// Counters the proxies fill alongside the spans.
struct PolicyCounters {
  std::uint64_t submit_calls = 0;
  std::uint64_t departure_calls = 0;
  /// Sum of queued jobs seen by each arriving job (before its submit).
  std::uint64_t depth_sum = 0;
  std::uint64_t place_attempts = 0;
  std::uint64_t place_rejects = 0;
};

/// The context the real scheduler talks to: forwards to the engine, times
/// start_job and counts placement attempts.
class ProxyContext final : public mcsim::SchedulerContext {
 public:
  ProxyContext(mcsim::SchedulerContext& engine, SpanLedger& ledger, PolicyCounters& counters)
      : engine_(engine), ledger_(ledger), counters_(counters) {}

  [[nodiscard]] const mcsim::Multicluster& system() const override { return engine_.system(); }
  [[nodiscard]] double now() const override { return engine_.now(); }
  void start_job(mcsim::JobPtr job, mcsim::Allocation allocation) override {
    const Span span(ledger_, kStartJob);
    engine_.start_job(job, std::move(allocation));
  }
  void record_placement(mcsim::Job& job, bool success, std::int16_t cluster) override {
    ++counters_.place_attempts;
    if (!success) ++counters_.place_rejects;
    engine_.record_placement(job, success, cluster);
  }

 private:
  mcsim::SchedulerContext& engine_;
  SpanLedger& ledger_;
  PolicyCounters& counters_;
};

/// Wraps the scheduler the engine would have built and times the two calls
/// the engine drives it with.
class ProxyScheduler final : public mcsim::Scheduler {
 public:
  ProxyScheduler(mcsim::SchedulerContext& engine, std::unique_ptr<ProxyContext> context,
                 std::unique_ptr<mcsim::Scheduler> inner, SpanLedger& ledger,
                 PolicyCounters& counters)
      : Scheduler(engine, mcsim::PlacementRule::kWorstFit),
        context_(std::move(context)),
        inner_(std::move(inner)),
        ledger_(ledger),
        counters_(counters) {}

  void submit(mcsim::JobPtr job) override {
    ++counters_.submit_calls;
    counters_.depth_sum += inner_->queued_jobs();
    const Span span(ledger_, kPolicy);
    inner_->submit(job);
  }
  void on_departure() override {
    ++counters_.departure_calls;
    const Span span(ledger_, kPolicy);
    inner_->on_departure();
  }
  [[nodiscard]] std::size_t queued_jobs() const override { return inner_->queued_jobs(); }
  [[nodiscard]] std::size_t max_queue_length() const override {
    return inner_->max_queue_length();
  }
  [[nodiscard]] std::vector<std::size_t> queue_lengths() const override {
    return inner_->queue_lengths();
  }
  [[nodiscard]] std::string name() const override { return inner_->name(); }

 private:
  std::unique_ptr<ProxyContext> context_;  // outlives inner_, which holds a reference
  std::unique_ptr<mcsim::Scheduler> inner_;
  SpanLedger& ledger_;
  PolicyCounters& counters_;
};

/// What the trace probe saw: every record read, and the total size of each
/// replayable one (input to the standalone split_job measurement).
struct TraceCounters {
  std::uint64_t records = 0;
  std::vector<std::uint32_t> usable_sizes;
};

/// Times every record pulled from the log.
class TimedSource final : public mcsim::TraceRecordSource {
 public:
  TimedSource(std::unique_ptr<mcsim::TraceRecordSource> inner, SpanLedger& ledger,
              TraceCounters& counters)
      : inner_(std::move(inner)), ledger_(ledger), counters_(counters) {}

  bool next(mcsim::TraceRecord& out) override {
    bool more = false;
    {
      const Span span(ledger_, kTrace);
      more = inner_->next(out);
    }
    if (more) {
      ++counters_.records;
      if (mcsim::trace_record_usable(out)) counters_.usable_sizes.push_back(out.processors);
    }
    return more;
  }

 private:
  std::unique_ptr<mcsim::TraceRecordSource> inner_;
  SpanLedger& ledger_;
  TraceCounters& counters_;
};

/// The obs layer's probe: counts events, does nothing else.
class CountingSink final : public mcsim::obs::TraceSink {
 public:
  void record(const mcsim::obs::TraceEvent& /*event*/) override { ++events_; }
  [[nodiscard]] std::uint64_t events() const { return events_; }

 private:
  std::uint64_t events_ = 0;
};

}  // namespace perfbench
