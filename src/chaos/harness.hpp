// dmv_chaos: deterministic fault-injection harness.
//
// run_chaos() deploys a DMV cluster inside a fresh simulation, drives a
// ledgered deposit/check/sum workload from closed-loop clients, executes a
// FaultPlan against it (timed faults on the virtual clock, protocol-point
// faults hooked onto dmv_obs span names via the tracer's point observer),
// and checks the invariants in chaos/invariants.hpp at quiesce.
//
// Determinism: the simulation is single-threaded and every stochastic
// choice derives from cfg.seed, so a (config, plan, seed) triple replays
// bit-identically — a failing schedule found by the sweep is rerun and
// shrunk to a minimal plan that still fails.
#pragma once

#include <map>

#include "chaos/fault_plan.hpp"
#include "chaos/invariants.hpp"
#include "core/cluster.hpp"

namespace dmv::chaos {

// The fault sweeps' deployment: 2 slaves, 1 spare, 2 schedulers and, when
// the persistence tier is enabled, a backend checkpoint every 2 s.
core::DmvCluster::Config sweep_cluster();

// The sweeps' batched replication pipeline: masters coalesce up to 4
// write-sets per replica link, replicas ack every 4th write-set, and each
// window holds for at most 500 us.
void open_batch_windows(core::EngineNode::Config& node);

struct ChaosConfig {
  // Role counts, replication windows, heartbeats and the persistence tier
  // (§4.6: on-disk backends fed from the scheduler update log, targetable
  // by killbackend/restartbackend/wipe-tier faults; the end-of-run
  // invariants then require every drained live backend to hold the acked
  // ledger intervals). Conflict classes, scheduler seed, schema and loader
  // are filled in by run_chaos.
  core::DmvCluster::Config cluster = sweep_cluster();
  // Conflict classes (§2.1): classes > 1 deploys one account table per
  // class (each with its own master, ledger and per-class deposit/check/
  // sum procs). The end-of-run durability invariant then checks EVERY
  // class's live master against its own ledger.
  int classes = 1;
  int clients = 4;
  int ops_per_client = 25;
  int64_t rows = 64;
  double update_fraction = 0.5;
  double sum_fraction = 0.1;  // fraction of reads that are full-table sums
  sim::Time mean_think = 2 * sim::kMsec;
  // Hang detector: the event queue must drain before this virtual time.
  sim::Time quiesce_horizon = 600 * sim::kSec;
  uint64_t seed = 1;
  // Read-availability bound (0 = unchecked): a *successful* read-only op
  // taking longer than this is a violation. Schedules that kill the last
  // slave set it to assert the paper's continuous-availability claim —
  // reads must divert to the live master immediately, not stall behind
  // the failure-detection window.
  sim::Time max_read_stall = 0;
};

struct ChaosReport {
  bool passed = false;
  std::vector<std::string> violations;
  // Recovery/Migration/Warmup trace points that fired, with counts — the
  // sweep enumerates these to build point-triggered double-fault plans.
  std::map<std::string, size_t> points_fired;
  size_t faults_fired = 0;
  size_t faults_unfired = 0;  // point triggers whose point never happened

  uint64_t ops_ok = 0;
  uint64_t client_errors = 0;
  uint64_t update_commits = 0;
  uint64_t read_commits = 0;
  uint64_t recoveries = 0;
  uint64_t takeovers = 0;
  uint64_t joins = 0;
  sim::Time max_read_latency = 0;  // successful read-only ops only
  sim::Time end_time = 0;

  // One-line outcome for sweep logs.
  std::string summary() const;
};

ChaosReport run_chaos(const ChaosConfig& cfg, const FaultPlan& plan);

// Convenience: parse `plan_str` (aborting on syntax errors) and run it.
ChaosReport run_chaos(const ChaosConfig& cfg, const std::string& plan_str);

}  // namespace dmv::chaos
