// Discrete-event simulation kernel.
//
// One Simulation owns a virtual clock and a pending-event queue (see
// sim/event_queue.hpp). All processes (clients, schedulers, database
// workers, replication streams, failure detectors) are coroutines spawned
// onto it. Every resumption goes through the event
// queue, so for a given seed a run is bit-deterministic — that determinism
// is what makes fail-over experiments and property tests exactly
// reproducible. Events are ordered by (time, seq): equal-timestamp events
// run strictly in schedule order.
#pragma once

#include <functional>

#include "sim/event_queue.hpp"
#include "sim/task.hpp"
#include "sim/time.hpp"
#include "util/assert.hpp"

namespace dmv::sim {

class Simulation {
 public:
  Simulation() = default;
  Simulation(const Simulation&) = delete;
  Simulation& operator=(const Simulation&) = delete;

  Time now() const { return now_; }

  // Schedule fn to run at absolute virtual time `at` (>= now).
  void schedule_at(Time at, std::function<void()> fn);
  void schedule_after(Time delay, std::function<void()> fn) {
    schedule_at(now_ + delay, std::move(fn));
  }

  // Run a coroutine as a detached process, starting at the current time.
  void spawn(Task<> task);

  // Awaitable: suspend the current coroutine for `delay` virtual time.
  auto delay(Time d) {
    struct Awaiter {
      Simulation* sim;
      Time d;
      bool await_ready() const noexcept { return false; }
      void await_suspend(std::coroutine_handle<> h) {
        sim->schedule_after(d, [h] { h.resume(); });
      }
      void await_resume() const noexcept {}
    };
    DMV_ASSERT(d >= 0);
    return Awaiter{this, d};
  }

  // Awaitable: reschedule through the event queue at the current time
  // (yield point; later-scheduled events at this instant run first).
  auto yield() { return delay(0); }

  // Drain events until the queue is empty, stop() is called, or the clock
  // would pass `until` (Time max by default). Returns the final clock.
  Time run(Time until = kTimeMax);

  void stop() { stopped_ = true; }

  size_t events_processed() const { return events_processed_; }
  size_t pending_events() const { return queue_.size(); }

  static constexpr Time kTimeMax = INT64_MAX;

 private:
  Time now_ = 0;
  uint64_t next_seq_ = 0;
  bool stopped_ = false;
  size_t events_processed_ = 0;
  EventQueue queue_;
};

}  // namespace dmv::sim
