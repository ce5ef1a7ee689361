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

}  // namespace dmv::sim
