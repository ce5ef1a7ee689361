// FaultExec: executes a FaultPlan against a running DmvCluster.
//
// Timed faults (`@t:usec`) are scheduled on the simulation when armed;
// point faults (`@p:span#occ`) are held pending and fired from
// observe_point(), which the harness wires into the tracer's point
// observer. Kill/restart go through the cluster controller (so scheduler
// kills run their shutdown path and restarts rejoin via §4.4); drop, heal
// and slow manipulate network links directly. Plan references that don't
// resolve (unknown node, restarting a non-engine node) are reported as
// violations rather than asserts, so a bad plan fails the run instead of
// crashing the sweep.
//
// check::run_check, the one fault harness, arms it for every run.
#pragma once

#include <set>
#include <vector>

#include "chaos/fault_plan.hpp"
#include "chaos/invariants.hpp"
#include "core/cluster.hpp"

namespace dmv::chaos {

class FaultExec {
 public:
  FaultExec(sim::Simulation& sim, net::Network& net,
            core::DmvCluster& cluster, Violations* viol);

  // Register the plan's faults: timed ones on the simulation clock, point
  // ones pending until observe_point() matches. Call once, before the run.
  void arm(const FaultPlan& plan);

  // Feed from Tracer::set_point_observer with every emitted point name.
  // Matching pending faults are *scheduled* at the current instant, so the
  // emitting coroutine finishes its synchronous step before the fault
  // lands (the determinism the replayable plan string relies on).
  void observe_point(const char* name);

  size_t fired_count() const { return fired_count_; }
  size_t unfired_count() const {
    size_t n = 0;
    for (const auto& p : pending_)
      if (!p.fired) ++n;
    return n;
  }

 private:
  struct Pending {
    Fault f;
    size_t seen = 0;
    bool fired = false;
  };

  void fire(const Fault& f);
  void plan_error(const Fault& f, const char* why);

  sim::Simulation& sim_;
  net::Network& net_;
  core::DmvCluster& cluster_;
  Violations* viol_;
  std::vector<net::NodeId> sched_ids_;
  std::set<net::NodeId> engine_ids_;
  std::vector<Pending> pending_;
  size_t fired_count_ = 0;
};

}  // namespace dmv::chaos
