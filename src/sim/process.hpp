/// \file
/// \brief Process-oriented simulation facade (the CSIM18 programming
/// model) on top of the event-driven core, built on C++20 coroutines.
//
// CSIM expresses a model as processes that hold state across simulated
// time; our schedulers use raw events instead, but the facade exists so
// models written in CSIM style port directly:
//
//   Process customer(Simulator& sim, Resource& cpu) {
//     co_await delay(sim, 5.0);        // think time
//     co_await cpu.acquire();          // CSIM "use"/"reserve"
//     co_await delay(sim, 1.7);        // service
//     cpu.release();
//   }
//
// Processes start eagerly and are detached: the coroutine frame lives until
// the body finishes, kept alive by the pending event that will resume it.
// Exceptions escaping a process terminate the program (there is no caller
// to rethrow to), matching the behaviour of detached CSIM processes.
#pragma once

#include <coroutine>
#include <cstdint>
#include <deque>
#include <exception>

#include "sim/simulator.hpp"

namespace mcsim {

// Not [[nodiscard]]: the handle is empty, so dropping it — as every caller
// does — loses nothing.
class Process {
 public:
  struct promise_type {
    Process get_return_object() { return Process{}; }
    std::suspend_never initial_suspend() noexcept { return {}; }
    std::suspend_never final_suspend() noexcept { return {}; }
    void return_void() noexcept {}
    [[noreturn]] void unhandled_exception() { std::terminate(); }
  };
};

/// Awaitable that resumes the process after `dt` simulated seconds.
class DelayAwaitable {
 public:
  DelayAwaitable(Simulator& sim, double dt) : sim_(sim), dt_(dt) {}
  bool await_ready() const noexcept { return dt_ == 0.0; }
  void await_suspend(std::coroutine_handle<> handle) {
    sim_.schedule_in(dt_, [handle] { handle.resume(); });
  }
  void await_resume() const noexcept {}

 private:
  Simulator& sim_;
  double dt_;
};

/// co_await delay(sim, dt) — CSIM's hold().
inline DelayAwaitable delay(Simulator& sim, double dt) { return {sim, dt}; }

/// A counted resource with FIFO waiting — CSIM's facility. Acquire suspends
/// the calling process until the requested units are free; release hands
/// units to waiters in arrival order (no barging: a large request at the
/// head blocks smaller ones behind it, like the paper's FCFS queues).
class Resource {
 public:
  Resource(Simulator& sim, std::uint32_t capacity);
  Resource(const Resource&) = delete;
  Resource& operator=(const Resource&) = delete;

  [[nodiscard]] std::uint32_t capacity() const { return capacity_; }
  [[nodiscard]] std::uint32_t available() const { return available_; }
  [[nodiscard]] std::size_t waiters() const { return waiting_.size(); }

  class AcquireAwaitable {
   public:
    AcquireAwaitable(Resource& resource, std::uint32_t units)
        : resource_(resource), units_(units) {}
    /// Claims the units on the fast path (no waiters, enough available), so
    /// the caller proceeds without suspending; otherwise the process queues.
    bool await_ready() noexcept;
    void await_suspend(std::coroutine_handle<> handle);
    void await_resume() const noexcept {}

   private:
    friend class Resource;
    Resource& resource_;
    std::uint32_t units_;
  };

  /// co_await resource.acquire(n).
  AcquireAwaitable acquire(std::uint32_t units = 1);

  /// Return units and wake eligible waiters (in FIFO order).
  void release(std::uint32_t units = 1);

 private:
  struct Waiter {
    std::coroutine_handle<> handle;
    std::uint32_t units;
  };
  void grant_waiters();

  Simulator& sim_;
  std::uint32_t capacity_;
  std::uint32_t available_;
  std::deque<Waiter> waiting_;
};

}  // namespace mcsim
