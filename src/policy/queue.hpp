// FCFS job queue with the enable/disable state of the paper's scheduling
// protocol (Sect. 2.5): a queue whose head job does not fit is disabled
// until the next departure from the system.
//
// The queue stores trivially-copyable JobPtr handles (core/job.hpp) in one
// vector whose front part holds already-popped slots: pop() advances a
// head index, a push that would outgrow the vector first slides the live
// handles back to the start when at least half of it is popped slots, and
// remove_at() erases (or pops, at index 0). Once the vector holds
// the queue's high-water length, push/pop/remove_at and the
// priority-insert comparator path move plain pointers and never touch an
// allocator or a refcount (tests/core_queue_test.cpp pins this with a
// global-allocation probe). A std::deque would allocate and free a block
// every 64 pushes.
#pragma once

#include <cstdint>
#include <vector>

#include "core/job.hpp"

namespace mcsim {

/// Queue ordering predicate: `a` before `b` means `a` is served first.
/// Insertion is stable (FCFS among equals). A plain function pointer over
/// the concrete Job — no type-erased callable on the insert path.
using JobOrder = bool (*)(const Job& a, const Job& b);

class JobQueue {
 public:
  /// Set a non-FCFS service order (extension; the paper is FCFS-only).
  /// Must be called while the queue is empty.
  void set_order(JobOrder order);

  void push(JobPtr job);
  [[nodiscard]] JobPtr front() const;
  JobPtr pop();

  /// Random access for the backfilling schedulers (index 0 is the head).
  [[nodiscard]] JobPtr at(std::size_t index) const;
  /// Remove and return the job at `index` (backfill start out of order).
  JobPtr remove_at(std::size_t index);

  [[nodiscard]] bool empty() const { return head_ == jobs_.size(); }
  [[nodiscard]] std::size_t size() const { return jobs_.size() - head_; }

  [[nodiscard]] bool enabled() const { return enabled_; }
  void enable() { enabled_ = true; }
  void disable() { enabled_ = false; }

  /// Total jobs ever enqueued (for sanity checks).
  [[nodiscard]] std::uint64_t total_enqueued() const { return total_enqueued_; }

 private:
  /// Make room for one more handle without reallocating while at least
  /// half of `jobs_` is popped slots.
  void reclaim_popped_slots();

  std::vector<JobPtr> jobs_;
  /// Index of the queue head in `jobs_`; the slots before it are popped.
  std::size_t head_ = 0;
  JobOrder order_ = nullptr;  // null = FCFS
  bool enabled_ = true;
  std::uint64_t total_enqueued_ = 0;
};

}  // namespace mcsim
