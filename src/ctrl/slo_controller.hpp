// SloController: closed-loop elastic sizing of the read tier.
//
// The controller runs on the virtual clock inside the simulation, polling
// the primary scheduler's dispatch-side signals: admission-queue depth
// (held_reads) and in-flight utilization of the fleet's read capacity (the
// scheduler's own max_reads_inflight_per_node per live slave). When the
// fleet is saturated for a few consecutive polls it scales out
// (Cluster::add_slave, the §4.4 join running under live load); when it has
// been comfortably idle for many polls it retires the most recently added
// node (Cluster::retire_node, drain-then-kill). Hysteresis comes from the
// separate high/low thresholds and the consecutive-poll counters; a
// cooldown after every action lets the previous decision take effect
// before the signals are trusted again (a joiner takes no reads until its
// join completes, so acting during the join would double-provision). The
// thresholds are constants in slo_controller.cpp.
//
// The controller only ever retires nodes it added itself (scale-in pops
// its own stack), so the operator-configured baseline fleet is never
// shrunk, and it never retires the last live slave.
#pragma once

#include <vector>

#include "core/cluster.hpp"

namespace dmv::ctrl {

struct SloControllerStats {
  uint64_t scale_outs = 0;
  uint64_t scale_ins = 0;
  uint64_t polls = 0;
  sim::Time first_scale_out = -1;
};

class SloController {
 public:
  // Never grows the fleet beyond `max_slaves` live slaves.
  SloController(sim::Simulation& sim, core::DmvCluster& cluster,
                size_t max_slaves = 16);
  ~SloController();

  void start();
  void stop();

  SloControllerStats& stats() { return stats_; }
  size_t added_live() const;  // controller-added nodes still in service

 private:
  sim::Task<> loop(std::shared_ptr<bool> alive);
  void poll_once();

  sim::Simulation& sim_;
  core::DmvCluster& cluster_;
  size_t max_slaves_;
  std::shared_ptr<bool> alive_;
  std::vector<net::NodeId> added_;  // scale-out stack (newest last)
  net::NodeId pending_join_ = net::kNoNode;  // added, not yet serving
  sim::Time cooldown_until_ = 0;
  int breach_streak_ = 0;
  int idle_streak_ = 0;
  SloControllerStats stats_;
};

}  // namespace dmv::ctrl
