#include "sim/sync.hpp"

namespace dmv::sim {

void WaitQueue::wake(Waiter* w, bool ok) {
  w->result = ok;
  sim_->resume_at(sim_->now(), w->h);
}

void WaitQueue::notify_one(bool ok) {
  if (!waiters_.empty()) wake(waiters_.pop_front(), ok);
}

void WaitQueue::notify_all(bool ok) {
  for (auto ws = waiters_.take(); !ws.empty();) wake(ws.pop_front(), ok);
}

Task<> Resource::use(Time cost) {
  co_await acquire();
  busy_ += cost;
  co_await sim_->delay(cost);
  release();
}

Task<> Resource::acquire() {
  // Fast path only when no one is queued (strict FIFO admission).
  if (in_use_ < capacity_ && queue_.waiting() == 0) {
    ++in_use_;
    co_return;
  }
  // Slot ownership is handed off directly by release(): in_use_ stays
  // counted across the wake-up, so late arrivals cannot barge in front of
  // a woken waiter and starve it (livelock under retry storms otherwise).
  co_await queue_.wait();
}

void Resource::release() {
  DMV_ASSERT(in_use_ > 0);
  if (queue_.waiting() > 0) {
    queue_.notify_one();  // hand the slot to the head waiter
  } else {
    --in_use_;
  }
}

}  // namespace dmv::sim
