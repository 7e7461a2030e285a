#include "policy/queue.hpp"

#include "util/assert.hpp"

namespace mcsim {

void JobQueue::set_order(JobOrder order) {
  MCSIM_REQUIRE(empty(), "service order must be set before jobs arrive");
  order_ = order;
}

void JobQueue::reclaim_popped_slots() {
  if (jobs_.size() < jobs_.capacity() || head_ < jobs_.size() - head_) return;
  jobs_.erase(jobs_.begin(), jobs_.begin() + static_cast<long>(head_));
  head_ = 0;
}

void JobQueue::push(JobPtr job) {
  MCSIM_REQUIRE(job != nullptr, "cannot enqueue a null job");
  reclaim_popped_slots();
  if (order_ == nullptr) {
    jobs_.push_back(job);
  } else {
    // Stable priority insert: after all jobs that are not strictly worse.
    auto it = jobs_.begin() + static_cast<long>(head_);
    while (it != jobs_.end() && !order_(*job, **it)) ++it;
    jobs_.insert(it, job);
  }
  ++total_enqueued_;
}

JobPtr JobQueue::front() const {
  MCSIM_REQUIRE(!empty(), "queue is empty");
  return jobs_[head_];
}

JobPtr JobQueue::pop() {
  MCSIM_REQUIRE(!empty(), "queue is empty");
  JobPtr job = jobs_[head_++];
  if (head_ == jobs_.size()) {
    // Drained: start over at the front of the buffer (the common case for
    // the paper's shallow queues, so the buffer rarely needs reclaiming).
    jobs_.clear();
    head_ = 0;
  }
  return job;
}

JobPtr JobQueue::at(std::size_t index) const {
  MCSIM_REQUIRE(index < size(), "queue index out of range");
  return jobs_[head_ + index];
}

JobPtr JobQueue::remove_at(std::size_t index) {
  MCSIM_REQUIRE(index < size(), "queue index out of range");
  if (index == 0) return pop();
  const auto slot = jobs_.begin() + static_cast<long>(head_ + index);
  JobPtr job = *slot;
  jobs_.erase(slot);
  return job;
}

}  // namespace mcsim
