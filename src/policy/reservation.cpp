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

double AvailabilityProfile::earliest_fit(std::uint32_t size, double duration) const {
  // Free counts only change at breakpoints, so the earliest feasible start
  // is at one. The profile ends at full capacity (every running job and
  // reservation expires), so any job that fits the machine finds a slot.
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

std::size_t AvailabilityProfile::split_at(double time) {
  const auto it = std::lower_bound(
      points_.begin(), points_.end(), time,
      [](const std::pair<double, std::uint32_t>& point, double t) { return point.first < t; });
  const auto index = static_cast<std::size_t>(it - points_.begin());
  if (index == 0 || (it != points_.end() && it->first == time)) return index;
  points_.insert(it, {time, std::prev(it)->second});
  return index;
}

void AvailabilityProfile::reserve(double start, double duration, std::uint32_t size) {
  MCSIM_ASSERT(!points_.empty());
  const std::size_t first = split_at(start);
  const std::size_t last = split_at(start + duration);
  for (std::size_t i = first; i < last; ++i) {
    std::uint32_t& free = points_[i].second;
    free = free >= size ? free - size : 0;
  }
}

}  // namespace mcsim
