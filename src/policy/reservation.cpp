#include "policy/reservation.hpp"

#include <algorithm>
#include <limits>

#include "util/assert.hpp"

namespace mcsim {

void ReservationTracker::prune(double now) {
  std::erase_if(running_, [now](const RunningJob& r) { return r.end_time <= now; });
}

std::pair<double, std::uint32_t> ReservationTracker::head_reservation(
    std::uint32_t idle, std::uint32_t needed) const {
  MCSIM_ASSERT(idle < needed || !running_.empty());
  // Identical to the historical PolicyGS implementation (the EASY goldens
  // are sealed on its exact accumulation order): sort a copy by end time
  // and accumulate returning processors until the head fits.
  by_end_.assign(running_.begin(), running_.end());
  std::sort(by_end_.begin(), by_end_.end(),
            [](const RunningJob& a, const RunningJob& b) { return a.end_time < b.end_time; });
  for (const RunningJob& job : by_end_) {
    idle += job.processors;
    if (idle >= needed) {
      return {job.end_time, idle - needed};
    }
  }
  // A head larger than the machine cannot happen (the workload is bounded),
  // but guard against it so the scheduler degrades to plain FCFS.
  return {std::numeric_limits<double>::infinity(), 0};
}

void AvailabilityProfile::reset(double now, std::uint32_t idle,
                                const std::vector<ReservationTracker::RunningJob>& running) {
  points_.clear();
  points_.emplace_back(now, idle);
  ends_.clear();
  for (const ReservationTracker::RunningJob& job : running) {
    if (job.end_time <= now) {
      // Already completed (the departure releasing it is being processed);
      // its processors are part of the free count from now on.
      points_.front().second += job.processors;
    } else {
      ends_.emplace_back(job.end_time, job.processors);
    }
  }
  // Sorting pairs (time, processors) merges ties deterministically whatever
  // order the ledger listed them in.
  std::sort(ends_.begin(), ends_.end());
  for (const auto& [time, processors] : ends_) {
    if (points_.back().first == time) {
      points_.back().second += processors;
    } else {
      points_.emplace_back(time, points_.back().second + processors);
    }
  }
}

double AvailabilityProfile::reserve_earliest(std::uint32_t size, double duration) {
  // Free counts only change at breakpoints, so the earliest feasible start
  // is at one. The profile ends at full capacity (every running job and
  // reservation expires), so any job that fits the machine finds a slot.
  //
  // One forward sweep: a breakpoint with fewer than `size` free inside the
  // candidate's window also lies inside the window of every breakpoint
  // between the two (times increase, and so does time + duration), so the
  // next candidate is the first breakpoint past it with enough free.
  const std::size_t n = points_.size();
  std::size_t first = 0;
  while (first < n) {
    if (points_[first].second < size) {
      ++first;
      continue;
    }
    const double start = points_[first].first;
    const double end = start + duration;
    std::size_t last = first + 1;
    while (last < n && points_[last].first < end && points_[last].second >= size) ++last;
    if (last < n && points_[last].first < end) {
      first = last + 1;  // points_[last] is too full and inside the window
      continue;
    }
    // [first, last) is the window, and every breakpoint in it has at least
    // `size` free. An empty window (zero duration) reserves nothing.
    if (!(start < end)) return start;
    if (last == n || points_[last].first != end) {
      points_.insert(points_.begin() + static_cast<std::ptrdiff_t>(last),
                     {end, points_[last - 1].second});
    }
    for (std::size_t i = first; i < last; ++i) points_[i].second -= size;
    return start;
  }
  return std::numeric_limits<double>::infinity();
}

}  // namespace mcsim
