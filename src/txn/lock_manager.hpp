// Per-page shared/exclusive lock table with strict 2PL (all locks released
// at commit/abort) and deadlock detection.
//
// Conflicting requests block in FIFO order. A request that would close a
// waits-for cycle dies instead, and its transaction restarts. This matches
// MySQL/InnoDB: conflicts queue and aborts are rare. A blocked request
// waits for the page's holders and for *every* transaction queued on the
// page (FIFO grants all of them first); the graph is exact on holders and
// conservative on the queue. S->X upgrades take part in the graph like any
// other request: two transactions that both hold S on a page and then ask
// for X deadlock, and one of them dies.
//
// The cycle search runs over pages rather than transactions. Every waiter
// queued on a page is blocked on that page and the requester is never a
// waiter, so reaching any waiter of page q reaches exactly q's holders
// plus q's other waiters. The search enters each page at most once and
// pushes only its holders, which gives the same verdict as the
// transaction-level search in time linear in the holders reached, instead
// of quadratic in the length of a convoy.
#pragma once

#include <cstdint>
#include <map>

#include "sim/sync.hpp"
#include "storage/page.hpp"
#include "txn/transaction.hpp"

namespace dmv::txn {

enum class LockMode { Shared, Exclusive };
enum class LockRc {
  Granted,
  Died,      // deadlock victim: abort and restart the transaction
  Cancelled  // lock table shut down (node killed)
};

class LockManager {
 public:
  explicit LockManager(sim::Simulation& sim) : sim_(sim) {}
  ~LockManager();

  // Blocks (in virtual time) until granted, or returns Died/Cancelled.
  // Reentrant: S-under-X and repeat requests are granted immediately;
  // S->X upgrade is supported and subject to deadlock detection.
  sim::Task<LockRc> acquire(TxnCtx& txn, storage::PageId pid, LockMode mode);

  // Strict 2PL: drop everything this transaction holds, waking waiters.
  void release_all(TxnCtx& txn);

  // Cancel all waiters and refuse future requests (fail-stop of the node).
  void shutdown();

  bool held_by(storage::PageId pid, const TxnCtx& txn) const;
  // True if some transaction holds this page exclusively (page is dirty
  // with uncommitted data — fuzzy checkpoints skip such pages).
  bool x_locked(storage::PageId pid) const;
  size_t lock_count() const { return locks_.size(); }
  uint64_t wait_count() const { return waits_; }
  uint64_t death_count() const { return deaths_; }

  // Node id attached to lock-wait trace spans (obs); kNoNode by default.
  void set_trace_node(uint32_t node) { trace_node_ = node; }

 private:
  // A blocked request. It lives in the frame of the LockManager::acquire()
  // coroutine that waits on it and is linked into its page's queue until
  // granted or cancelled, as a sim::Resource::Use is linked into its
  // resource's queue.
  struct Waiter {
    Waiter(TxnCtx& t, LockMode m, sim::Simulation& sim)
        : txn(&t), mode(m), wake(sim) {}
    TxnCtx* txn;
    LockMode mode;
    sim::WaitQueue wake;
    Waiter* next = nullptr;
  };
  struct LockState {
    std::map<uint64_t, TxnCtx*> sharers;  // txn id -> ctx
    TxnCtx* x_holder = nullptr;
    sim::IntrusiveFifo<Waiter> queue;
  };

  bool compatible(const LockState& ls, const TxnCtx& txn,
                  LockMode mode) const;
  // True if blocking txn on pid would close a waits-for cycle.
  bool creates_cycle(const TxnCtx& txn, storage::PageId pid) const;
  void grant(LockState& ls, TxnCtx& txn, LockMode mode);
  void pump(storage::PageId pid);

  sim::Simulation& sim_;
  std::map<storage::PageId, LockState> locks_;
  std::map<const TxnCtx*, storage::PageId> blocked_on_;
  bool shutdown_ = false;
  uint64_t waits_ = 0;
  uint64_t deaths_ = 0;
  uint32_t trace_node_ = UINT32_MAX;
};

}  // namespace dmv::txn
