// Discrete-event simulation kernel.
//
// One Simulation owns a virtual clock and the pending events. All
// processes (clients, schedulers, database workers, replication streams,
// failure detectors) are coroutines spawned onto it. Every resumption goes
// through the kernel, so for a given seed a run is bit-deterministic — that
// determinism is what makes fail-over experiments and property tests
// exactly reproducible. Events are ordered by (time, seq): equal-timestamp
// events run strictly in schedule order.
//
// Pending events live in two places. An event for a later instant goes to
// the (time, seq) heap of sim/event_queue.hpp; an event for the current
// instant goes to a plain FIFO. The loop runs the heap's entries for the
// current instant first, then the FIFO. That is exact (time, seq) order: a
// heap entry for instant T was scheduled before the clock reached T, so its
// seq is below that of every FIFO entry of T. The FIFO is empty whenever
// the clock advances.
//
// Coroutine wakes (delay, yield, spawn, WaitQueue, Channel) carry the
// coroutine handle itself. An Action event (a Resource hand-off) carries
// the address of a node its owner keeps alive. schedule_at() closures sit
// in a recycled slot pool, so neither structure holds a std::function.
#pragma once

#include <coroutine>
#include <cstdint>
#include <functional>
#include <vector>

#include "sim/event_queue.hpp"
#include "sim/task.hpp"
#include "sim/time.hpp"
#include "util/assert.hpp"

namespace dmv::sim {

class Simulation {
 public:
  Simulation();
  // Hands the thread's cached coroutine frames back to the allocator.
  ~Simulation();
  Simulation(const Simulation&) = delete;
  Simulation& operator=(const Simulation&) = delete;

  Time now() const { return now_; }

  // Schedule fn to run at absolute virtual time `at` (>= now).
  void schedule_at(Time at, std::function<void()> fn);
  void schedule_after(Time delay, std::function<void()> fn) {
    schedule_at(now_ + delay, std::move(fn));
  }

  // Resume the suspended coroutine h at absolute virtual time `at`
  // (>= now). One event, like schedule_at, without a closure.
  void resume_at(Time at, std::coroutine_handle<> h) {
    const auto what = reinterpret_cast<uintptr_t>(h.address());
    DMV_ASSERT((what & kTagMask) == 0);  // the low bits tag other kinds
    push(at, what);
  }

  // An event that calls fire(node) on a node the caller owns, such as an
  // awaiter in a suspended frame. One event, like resume_at, without a
  // closure; the node must stay put until the event has run.
  struct Action {
    void (*fire)(Action*);
  };
  void run_at(Time at, Action* a) {
    const auto what = reinterpret_cast<uintptr_t>(a);
    DMV_ASSERT((what & kTagMask) == 0);
    push(at, what | kActionTag);
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
        sim->resume_at(sim->now_ + d, h);
      }
      void await_resume() const noexcept {}
    };
    DMV_ASSERT(d >= 0);
    return Awaiter{this, d};
  }

  // Awaitable: reschedule through the kernel at the current time (yield
  // point; later-scheduled events at this instant run first).
  auto yield() { return delay(0); }

  // Drain events until none is pending, stop() is called, or the clock
  // would pass `until` (Time max by default). Returns the final clock.
  // The clock never moves back: with until < now() nothing runs.
  Time run(Time until = kTimeMax);

  void stop() { stopped_ = true; }

  size_t events_processed() const { return events_processed_; }
  size_t pending_events() const {
    return heap_.size() + (fifo_.size() - fifo_head_);
  }

  static constexpr Time kTimeMax = INT64_MAX;

 private:
  // Tags in the low bits of an event's `what` word; an untagged word is a
  // coroutine address.
  static constexpr uintptr_t kClosureTag = 1;  // (slot << 1) | 1
  static constexpr uintptr_t kActionTag = 2;   // Action address | 2
  static constexpr uintptr_t kTagMask = 3;
  static_assert(alignof(Action) > kTagMask);

  void push(Time at, uintptr_t what) {
    DMV_ASSERT_MSG(at >= now_, "cannot schedule into the past");
    if (at == now_)
      fifo_.push_back(what);
    else
      heap_.push(Event{at, next_seq_++, what});
  }
  void dispatch(uintptr_t what);

  Time now_ = 0;
  uint64_t next_seq_ = 0;
  bool stopped_ = false;
  size_t events_processed_ = 0;
  EventQueue heap_;
  // Events of the current instant, in schedule order from fifo_head_ on.
  // Cleared (capacity kept) each time it drains.
  std::vector<uintptr_t> fifo_;
  size_t fifo_head_ = 0;
  // schedule_at closures, indexed by slot; free slots are reused.
  std::vector<std::function<void()>> slots_;
  std::vector<uint32_t> free_slots_;
};

}  // namespace dmv::sim
