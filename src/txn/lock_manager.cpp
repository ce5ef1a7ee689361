#include "txn/lock_manager.hpp"

#include <set>

#include "obs/trace.hpp"

namespace dmv::txn {

LockManager::~LockManager() { shutdown(); }

bool LockManager::compatible(const LockState& ls, const TxnCtx& txn,
                             LockMode mode) const {
  if (ls.x_holder && ls.x_holder != &txn) return false;
  if (mode == LockMode::Exclusive) {
    for (auto& [id, holder] : ls.sharers)
      if (holder != &txn) return false;
  }
  return true;
}

void LockManager::grant(LockState& ls, TxnCtx& txn, LockMode mode) {
  // Callers record the pid in txn.held_locks() on first grant.
  if (mode == LockMode::Exclusive) {
    ls.sharers.erase(txn.id());  // covers S -> X upgrade
    ls.x_holder = &txn;
  } else {
    if (ls.x_holder != &txn) ls.sharers.emplace(txn.id(), &txn);
  }
}

bool LockManager::creates_cycle(const TxnCtx& txn,
                                storage::PageId pid) const {
  // Page-level search (see the header): each page is entered at most once
  // and pushes only its holders, never its queue. A path back to `txn` is
  // a cycle.
  std::vector<const TxnCtx*> stack;
  std::set<storage::PageId> entered;
  auto enter = [&](storage::PageId q) {
    if (!entered.insert(q).second) return;
    auto it = locks_.find(q);
    if (it == locks_.end()) return;
    if (it->second.x_holder) stack.push_back(it->second.x_holder);
    for (const auto& [id, holder] : it->second.sharers)
      stack.push_back(holder);
  };
  // We would wait for pid's holders other than ourselves. A non-empty
  // queue makes pid itself entered: its waiters, granted ahead of us, wait
  // for all of pid's holders, us included, which is how an S->X upgrade
  // behind a queue closes a cycle. So pid is not marked entered up front.
  const LockState& ls = locks_.at(pid);
  if (ls.queue.empty()) {
    if (ls.x_holder && ls.x_holder != &txn) stack.push_back(ls.x_holder);
    for (const auto& [id, holder] : ls.sharers)
      if (holder != &txn) stack.push_back(holder);
  } else {
    enter(pid);
  }
  while (!stack.empty()) {
    const TxnCtx* u = stack.back();
    stack.pop_back();
    if (u == &txn) return true;
    auto bit = blocked_on_.find(u);
    if (bit != blocked_on_.end()) enter(bit->second);  // else running
  }
  return false;
}

sim::Task<LockRc> LockManager::acquire(TxnCtx& txn, storage::PageId pid,
                                       LockMode mode) {
  if (shutdown_) co_return LockRc::Cancelled;
  LockState& ls = locks_[pid];

  // Reentrant fast paths.
  if (ls.x_holder == &txn) co_return LockRc::Granted;
  if (mode == LockMode::Shared && ls.sharers.count(txn.id()))
    co_return LockRc::Granted;

  const bool was_holder = ls.sharers.count(txn.id()) > 0;
  if (ls.queue.empty() && compatible(ls, txn, mode)) {
    grant(ls, txn, mode);
    if (!was_holder) txn.held_locks().push_back(pid);
    co_return LockRc::Granted;
  }

  if (creates_cycle(txn, pid)) {
    ++deaths_;
    obs::count("lock.deaths", trace_node_);
    co_return LockRc::Died;
  }

  ++waits_;
  Waiter waiter(txn, mode, sim_);
  ls.queue.push_back(&waiter);
  blocked_on_[&txn] = pid;

  obs::SpanGuard span("lock.wait", obs::Cat::Lock, trace_node_, txn.id());
  const sim::Time wait_start = sim_.now();
  const bool ok = co_await waiter.wake.wait();
  span.done();
  obs::count("lock.wait_us", trace_node_, double(sim_.now() - wait_start));
  blocked_on_.erase(&txn);
  if (!ok) co_return LockRc::Cancelled;
  // pump() granted the lock and recorded it before waking us.
  co_return LockRc::Granted;
}

void LockManager::pump(storage::PageId pid) {
  auto it = locks_.find(pid);
  if (it == locks_.end()) return;
  LockState& ls = it->second;
  while (!ls.queue.empty()) {
    Waiter& head = *ls.queue.front();
    if (!compatible(ls, *head.txn, head.mode)) break;
    const bool was_holder = ls.sharers.count(head.txn->id()) > 0 ||
                            ls.x_holder == head.txn;
    grant(ls, *head.txn, head.mode);
    if (!was_holder) head.txn->held_locks().push_back(pid);
    ls.queue.pop_front();
    head.wake.notify_one(true);
  }
  if (ls.queue.empty() && ls.sharers.empty() && !ls.x_holder)
    locks_.erase(it);
}

void LockManager::release_all(TxnCtx& txn) {
  for (storage::PageId pid : txn.held_locks()) {
    auto it = locks_.find(pid);
    if (it == locks_.end()) continue;
    LockState& ls = it->second;
    if (ls.x_holder == &txn) ls.x_holder = nullptr;
    ls.sharers.erase(txn.id());
    pump(pid);
  }
  txn.held_locks().clear();
}

void LockManager::shutdown() {
  if (shutdown_) return;
  shutdown_ = true;
  for (auto& [pid, ls] : locks_)
    while (!ls.queue.empty()) ls.queue.pop_front()->wake.notify_one(false);
  locks_.clear();
}

bool LockManager::x_locked(storage::PageId pid) const {
  auto it = locks_.find(pid);
  return it != locks_.end() && it->second.x_holder != nullptr;
}

bool LockManager::held_by(storage::PageId pid, const TxnCtx& txn) const {
  auto it = locks_.find(pid);
  if (it == locks_.end()) return false;
  return it->second.x_holder == &txn ||
         it->second.sharers.count(txn.id()) > 0;
}

}  // namespace dmv::txn
