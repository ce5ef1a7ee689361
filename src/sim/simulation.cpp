#include "sim/simulation.hpp"

namespace dmv::sim {

Simulation::Simulation() { detail::FrameCache::enter(); }

Simulation::~Simulation() { detail::FrameCache::leave(); }

void Simulation::schedule_at(Time at, std::function<void()> fn) {
  uint32_t slot;
  if (free_slots_.empty()) {
    slot = uint32_t(slots_.size());
    slots_.push_back(std::move(fn));
  } else {
    slot = free_slots_.back();
    free_slots_.pop_back();
    slots_[slot] = std::move(fn);
  }
  push(at, (uintptr_t(slot) << 1) | kClosureTag);
}

void Simulation::spawn(Task<> task) {
  auto h = task.release();
  DMV_ASSERT(h);
  h.promise().detached = true;
  resume_at(now_, h);
}

void Simulation::dispatch(uintptr_t what) {
  if ((what & kTagMask) == 0) {
    std::coroutine_handle<>::from_address(reinterpret_cast<void*>(what))
        .resume();
    return;
  }
  if ((what & kClosureTag) == 0) {
    auto* a = reinterpret_cast<Action*>(what & ~kActionTag);
    a->fire(a);
    return;
  }
  // Take the closure out before calling it: it may schedule more closures,
  // which can reuse its slot or grow the pool.
  const auto slot = uint32_t(what >> 1);
  std::function<void()> fn;
  fn.swap(slots_[slot]);
  free_slots_.push_back(slot);
  fn();
}

Time Simulation::run(Time until) {
  stopped_ = false;
  if (until < now_) return now_;
  while (!stopped_) {
    uintptr_t what;
    if (!heap_.empty() && heap_.peek_time() == now_) {
      what = heap_.pop().what;
    } else if (fifo_head_ < fifo_.size()) {
      what = fifo_[fifo_head_++];
      if (fifo_head_ == fifo_.size()) {
        fifo_.clear();
        fifo_head_ = 0;
      }
    } else if (heap_.empty()) {
      break;
    } else if (heap_.peek_time() > until) {
      now_ = until;
      break;
    } else {
      const Event ev = heap_.pop();
      DMV_ASSERT(ev.at > now_);
      now_ = ev.at;
      what = ev.what;
    }
    ++events_processed_;
    dispatch(what);
  }
  return now_;
}

}  // namespace dmv::sim
