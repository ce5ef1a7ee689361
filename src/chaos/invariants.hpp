// Invariant checking for chaos runs (what "survived the fault schedule"
// means, precisely).
//
// The harness runs a ledgered workload: every attempted deposit and every
// acknowledged deposit is counted per row before/after the wire round-trip.
// Because acknowledgement can be lost after commit (scheduler dies between
// the master's TxnDone and the client reply), the ground truth for a row is
// an *interval*, not a number:
//
//   acked[id]  <=  (final balance - initial balance)  <=  attempted[id]
//
// On top of the ledger, the checker asserts at quiesce:
//  - no hang: the event queue drained before the quiesce horizon and every
//    client coroutine completed;
//  - scheduler drain: every live scheduler has zero outstanding requests,
//    zero held reads/updates/joins, no recovery marked in flight, and its
//    per-node in-flight counters sum to zero;
//  - span balance: no span left open in the tracer (a leaked request or
//    protocol span is how the fail-over hangs originally escaped notice);
//  - durability: every row on a live master lies in its ledger interval,
//    and the row count never changed;
//  - convergence: max(version, received) per table is identical across
//    every live node in the read rotation (masters + slaves);
//  - monotonicity (sampled during the run): scheduler and engine version
//    vectors never move backwards within one process lifetime. Engine
//    `received` is exempt — §4.2 discard legitimately clamps it down.
//
// Read results are checked inline by the harness with the same interval
// logic: a read of row `id` acknowledged at time T must report a balance
// whose delta lies in [acked[id] at send, attempted[id] at reply] — the
// lower bound holds because the scheduler merges a commit into its version
// vector (and gossips it) before the client ack, so any later tag covers it.
#pragma once

#include <string>
#include <vector>

#include "core/cluster.hpp"
#include "obs/trace.hpp"

namespace dmv::chaos {

// Initial balance of row `id` in the chaos workload (loader and checker
// must agree).
inline constexpr int64_t kBalanceBase = 10;

struct Violations {
  std::vector<std::string> items;
  bool ok() const { return items.empty(); }
  void add(std::string msg) { items.push_back(std::move(msg)); }
};

struct WorkloadLedger {
  int64_t rows = 0;
  std::vector<uint64_t> attempted, acked;  // per-row deposit counts
  uint64_t global_attempted = 0, global_acked = 0;

  void init(int64_t n) {
    rows = n;
    attempted.assign(size_t(n), 0);
    acked.assign(size_t(n), 0);
    global_attempted = global_acked = 0;
  }
  void on_attempt(int64_t id) {
    ++attempted[size_t(id)];
    ++global_attempted;
  }
  void on_ack(int64_t id) {
    ++acked[size_t(id)];
    ++global_acked;
  }
};

// Inline read checks (called by harness clients when a reply arrives).
void check_read_value(const WorkloadLedger& lg, int64_t id, int64_t value,
                      uint64_t acked_at_send, Violations* v);
void check_sum_value(const WorkloadLedger& lg, int64_t rows_seen,
                     int64_t value, uint64_t global_acked_at_send,
                     Violations* v);

// Everything the end-of-run checks need to see.
struct ClusterProbe {
  core::DmvCluster* cluster = nullptr;
  net::Network* net = nullptr;
  obs::Tracer* tracer = nullptr;
  std::vector<net::NodeId> engine_ids;
  size_t scheduler_count = 0;
};

// Sampled during the run (and once more at quiesce): version vectors only
// move forward within one process lifetime. A node's death clears its
// baseline, so a restarted (rebuilt) process starts a fresh history.
class MonotonicityProbe {
 public:
  void sample(const ClusterProbe& p, Violations* v);

 private:
  std::map<net::NodeId, std::vector<uint64_t>> last_engine_;
  std::map<net::NodeId, std::vector<uint64_t>> last_sched_;
};

// Scheduler drain: once the event queue is empty, no live scheduler may
// hold outstanding or parked work, a recovery in flight, or a non-zero
// per-node in-flight counter.
void check_scheduler_drain(core::DmvCluster& cluster, Violations* v);

// End-of-run structural + durability + convergence checks (see header
// comment). Call after the simulation has quiesced, *before* tearing the
// cluster down (teardown legitimately closes spans). `ledgers[t]` is the
// ledger for table t — one per conflict class in a multi-class deployment;
// the durability interval is checked against EVERY class's live master
// (not just class 0's), so a corrupted or short table on any master is a
// violation regardless of which class it belongs to.
void check_end_invariants(const ClusterProbe& p,
                          const std::vector<const WorkloadLedger*>& ledgers,
                          Violations* v);

// Single-class convenience (table 0 only).
inline void check_end_invariants(const ClusterProbe& p,
                                 const WorkloadLedger& lg, Violations* v) {
  check_end_invariants(p, std::vector<const WorkloadLedger*>{&lg}, v);
}

}  // namespace dmv::chaos
