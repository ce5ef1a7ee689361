// Structural invariants of a fault-injection run (what "survived the fault
// schedule" means, beyond the one-copy-serializability oracle of
// src/check/). check::run_check asserts every one of them on every run:
//  - no hang: the event queue drained before the quiesce horizon and every
//    client coroutine completed (checked by run_check itself);
//  - scheduler drain: every live scheduler has zero outstanding requests,
//    zero held reads/updates/joins, no recovery marked in flight, and its
//    per-node in-flight counters sum to zero;
//  - span balance: no span left open in the tracer (a leaked request or
//    protocol span is how the fail-over hangs originally escaped notice);
//  - backend drain (§4.6): every live, recoverable backend applied the
//    whole update log by quiesce;
//  - convergence: max(version, received) per table is identical across
//    every live node in the read rotation (masters + slaves);
//  - monotonicity (sampled during the run): scheduler and engine version
//    vectors never move backwards within one process lifetime. Engine
//    `received` is exempt — §4.2 discard legitimately clamps it down.
#pragma once

#include <map>
#include <string>
#include <vector>

#include "core/cluster.hpp"
#include "obs/trace.hpp"

namespace dmv::chaos {

struct Violations {
  std::vector<std::string> items;
  bool ok() const { return items.empty(); }
  void add(std::string msg) { items.push_back(std::move(msg)); }
};

// Every engine node the cluster deployed: masters, slaves (elastic adds
// included) and spares.
std::vector<net::NodeId> engine_ids(core::DmvCluster& cluster);

// Sampled during the run (and once more at quiesce): version vectors only
// move forward within one process lifetime. A restarted (rebuilt) process
// has a new network epoch and starts a fresh history.
class MonotonicityProbe {
 public:
  void sample(core::DmvCluster& cluster, Violations* v);

 private:
  struct Last {
    uint64_t epoch = 0;
    std::vector<uint64_t> version;
  };
  std::map<net::NodeId, Last> last_engine_;
  std::map<net::NodeId, Last> last_sched_;
};

// End-of-run structural checks: scheduler drain, span balance, backend
// drain and convergence (see header comment). Call after the simulation
// has quiesced, *before* tearing the cluster down (teardown legitimately
// closes spans).
void check_end_invariants(core::DmvCluster& cluster,
                          const obs::Tracer& tracer, Violations* v);

}  // namespace dmv::chaos
