#include "sim/simulation.hpp"

namespace dmv::sim {

void Simulation::schedule_at(Time at, std::function<void()> fn) {
  DMV_ASSERT_MSG(at >= now_, "cannot schedule into the past");
  queue_.push(Event{at, next_seq_++, std::move(fn)});
}

void Simulation::spawn(Task<> task) {
  auto h = task.release();
  DMV_ASSERT(h);
  h.promise().detached = true;
  schedule_at(now_, [h] { h.resume(); });
}

Time Simulation::run(Time until) {
  stopped_ = false;
  while (!queue_.empty() && !stopped_) {
    if (queue_.peek_time() > until) {
      now_ = until;
      return now_;
    }
    Event ev = queue_.pop();
    DMV_ASSERT(ev.at >= now_);
    now_ = ev.at;
    ++events_processed_;
    ev.fn();
  }
  return now_;
}

}  // namespace dmv::sim
