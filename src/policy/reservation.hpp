// Reservation bookkeeping for the backfilling stages (docs/SCHEDULING.md).
//
// ReservationTracker is the running-job ledger the EASY/aggressive/
// conservative stages share: which started jobs occupy how many processors
// until when. It was lifted out of the historical PolicyGS so every
// backfilling composition reuses one implementation. Service times are
// known exactly in the model ("perfect estimates"), so end times are exact;
// the counts are aggregate — actual starts still go through real
// per-cluster placement.
//
// AvailabilityProfile is the conservative stage's working state: a
// piecewise-constant free-processor profile over future time, built from
// the tracker and carved down by one reservation per queued job.
#pragma once

#include <cstdint>
#include <utility>
#include <vector>

namespace mcsim {

class ReservationTracker {
 public:
  struct RunningJob {
    double end_time;
    std::uint32_t processors;
  };

  /// Record a started job occupying `processors` until `end_time`.
  void on_start(double end_time, std::uint32_t processors) {
    running_.push_back(RunningJob{end_time, processors});
  }

  /// Drop jobs that have completed by `now` (called at departures).
  void prune(double now);

  [[nodiscard]] bool empty() const { return running_.empty(); }
  [[nodiscard]] const std::vector<RunningJob>& running() const { return running_; }

  /// EASY head reservation: the earliest completion time at which at least
  /// `needed` processors are free given `idle` free now, and the processors
  /// spare at that moment. {infinity, 0} when the ledger can never free
  /// enough (the scheduler then degrades to plain FCFS).
  [[nodiscard]] std::pair<double, std::uint32_t> head_reservation(
      std::uint32_t idle, std::uint32_t needed) const;

 private:
  std::vector<RunningJob> running_;
  /// head_reservation's sort buffer, kept to reuse its capacity.
  mutable std::vector<RunningJob> by_end_;
};

class AvailabilityProfile {
 public:
  /// Rebuild the profile: `idle` processors free at `now`, plus each
  /// running job's processors returning at its end time.
  void reset(double now, std::uint32_t idle,
             const std::vector<ReservationTracker::RunningJob>& running);

  /// Processors free at `now`, the profile's first breakpoint. Reservations
  /// only ever lower it.
  [[nodiscard]] std::uint32_t free_now() const { return points_.front().second; }

  /// Reserve `size` processors over [t, t + duration) at the earliest time
  /// t >= now with at least `size` free over that whole window, and return
  /// t. Infinity, with nothing reserved, when `size` never fits (a job wider
  /// than the machine).
  double reserve_earliest(std::uint32_t size, double duration);

  /// The profile's breakpoints (time, processors free from then on), for
  /// tests.
  [[nodiscard]] const std::vector<std::pair<double, std::uint32_t>>& points() const {
    return points_;
  }

 private:
  /// Breakpoints sorted by time; free counts are constant between them.
  std::vector<std::pair<double, std::uint32_t>> points_;
  /// reset's sort buffer, kept to reuse its capacity.
  std::vector<std::pair<double, std::uint32_t>> ends_;
};

}  // namespace mcsim
