// Property-based one-copy-serializability checker (dmv_check), and the
// one fault-injection harness of the repository.
//
// run_check() builds an N-class DMV cluster (one single-table conflict
// class per master: tables acct_a, acct_b, ... — two classes by default),
// installs a history Recorder as the check::Sink, runs a randomized
// multi-row workload — two-row transfers, read-modify-writes, single
// gets, two-row pair reads (torn-snapshot detectors, including one
// crossing two conflict classes) and full-table range sums — composed
// with an arbitrary FaultPlan schedule, then replays the recorded history
// through the sequential Oracle. On top of the oracle every run checks the
// structural invariants (checker.cpp: no hang, scheduler and backend
// drain, span balance, convergence, version monotonicity sampled after
// every client reply), the read-stall bound, and that each live
// master holds exactly the oracle's state at its own version. Everything
// is deterministic in (CheckConfig, plan, seed): a failure reproduces from
// the one-line
//
//   check_sweep --seed N --fault-plan '...'
//
// Workload shape is deliberate: only updates of pre-loaded rows (no
// inserts or deletes after load). An uncommitted delete hides a row from
// the index; a master-served scan that misses it is *correct* if the
// delete later aborts, but rollback republishes no version, so the oracle
// could not tell that apart from a lost row. Updates-only keeps the oracle
// exact instead of interval-shaped.
//
// Mutation smoke mode (run_mutation_smoke) plants one check::PlantedBug
// at a time (DmvCluster::Config::bug), each disabling a known-critical
// check — the §2.1 tag-upgrade guard, the scheduler's ack merge,
// fail-over discard, replication apply order, batch order, the master's
// at-most-once lookup — and asserts the checker reports each with its
// expected named violation. A checker that cannot see a planted bug is
// worse than none.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <ostream>
#include <string>
#include <vector>

#include "core/cluster.hpp"
#include "sim/time.hpp"

namespace dmv::check {

class Oracle;
struct Violations;

// The fault sweeps' deployment: 2 slaves, 1 spare, 2 schedulers and, when
// the persistence tier is enabled, a backend checkpoint every 2 s.
core::DmvCluster::Config sweep_cluster();

// The sweeps' batched replication pipeline: masters coalesce up to 4
// write-sets per replica link, replicas ack every 4th write-set, and each
// window holds for at most 500 us.
void open_batch_windows(core::EngineNode::Config& node);

// Client op-mix families for the randomized workload. Every family runs
// against the same acct tables and the same exact oracle; they differ in
// which shapes they stress:
//   Mixed  — the original blend (transfers, RMWs, pair reads, sums).
//   Ycsb   — zipfian hot keys: reads/RMWs hammer a few rows, plus short
//            range scans anchored at the hot keys.
//   Orders — order-entry shape: multi-row RMWs through a hot per-class
//            sequence row (row 0), payments against it, point reads.
//   Scan   — reporting shape: chunked full-table scans (one snapshot
//            held across several chained range scans) over touch updates.
enum class CheckWorkload { Mixed = 0, Ycsb, Orders, Scan };

const char* check_workload_name(CheckWorkload w);
bool parse_check_workload(const std::string& s, CheckWorkload* out);

struct CheckConfig {
  // Role counts (slaves are shared by every class), replication windows,
  // quorum commit, the persistence tier and the planted bug
  // (cluster.bug). run_check fills in the conflict classes, the scheduler
  // seed, schema and loader.
  //  - Geo mode: cluster.regions spreads slaves/spares/schedulers over WAN
  //    regions (region 0 = "local", then "r1", ...) whose links get
  //    `cross`; node.quorum_commit acks updates once a write quorum of
  //    voters confirmed. random_geo_fault_plan layers region partitions
  //    (always healed) over the usual kills.
  //  - Disaster drill (§4.6): cluster.enable_persistence deploys the
  //    persistence tier and, after the oracle replay, bootstraps a tier
  //    image from every recoverable backend (rows + update-log suffix),
  //    which must equal the sequential prefix at the log's acked version
  //    frontier (recovery-mismatch).
  core::DmvCluster::Config cluster = sweep_cluster();
  net::LinkClassConfig cross{5 * sim::kMsec, 200, 500, 100 * sim::kMsec};
  // Conflict classes: one single-table class (and one update master) per
  // entry; 2 reproduces the original two-class checker. 1..26 (table
  // names are acct_a .. acct_z).
  int classes = 2;
  // Multimaster composite mode (check_sweep --multimaster): marker used
  // by repro lines; the sweep sets classes=3, a 2-region deployment with
  // quorum commit, open pipeline windows, and
  // random_multimaster_fault_plan schedules.
  bool multimaster = false;
  int clients = 3;
  int ops_per_client = 12;
  // Op-mix family (check_sweep --workload); the oracle is identical for
  // all of them.
  CheckWorkload workload = CheckWorkload::Mixed;
  int64_t rows_per_table = 8;
  double update_fraction = 0.5;
  sim::Time mean_think = 2 * sim::kMsec;
  sim::Time quiesce_horizon = 600 * sim::kSec;
  uint64_t seed = 1;
  // Read-availability bound (0 = unchecked): a *successful* read-only op
  // taking longer than this is a violation. Schedules that kill the last
  // slave set it to assert the paper's continuous-availability claim —
  // reads must divert to the live master immediately, not stall behind
  // the failure-detection window.
  sim::Time max_read_stall = 0;
};

struct CheckReport {
  bool passed = false;
  std::vector<std::string> violations;
  uint64_t ops_ok = 0;
  uint64_t client_errors = 0;
  uint64_t update_commits = 0;
  uint64_t read_commits = 0;
  uint64_t version_aborts = 0;
  uint64_t recoveries = 0;
  uint64_t takeovers = 0;
  size_t reads_checked = 0;
  size_t commits_recorded = 0;
  size_t faults_fired = 0;
  size_t faults_unfired = 0;  // point triggers whose point never happened
  uint64_t joins = 0;
  // Recovery/Migration/Warmup trace points that fired, with counts —
  // check_sweep --chaos enumerates these to build point-triggered double
  // faults.
  std::map<std::string, size_t> points_fired;
  sim::Time end_time = 0;
  // Full event log, populated only on failure (for --artifacts).
  std::string history_dump;
  std::string summary() const;
};

// `plan` is a FaultPlan string (check/fault_plan.hpp); a malformed one
// asserts.
CheckReport run_check(const CheckConfig& cfg, const std::string& plan);

// check_sweep --chaos's base: one conflict class (its master is named
// "master"), 4 clients x 25 ops over 64 rows.
CheckConfig chaos_config();

// check_sweep --multimaster's deployment, applied to `cfg`: three conflict
// classes over two regions under quorum commit, with the batch windows
// open so dying masters hold unconfirmed write-sets and the per-class
// discard/quorum reconciliation is real.
void make_multimaster(CheckConfig& cfg);

// Durability, after Oracle::check: every live node that masters table t
// holds exactly the oracle's model of t at its own version[t] — an acked
// update lost, or a phantom one applied, on any class's master is a
// recovery-mismatch.
void check_live_masters(core::DmvCluster& cluster, const Oracle& oracle,
                        Violations* v);

// The command-line flags that turn a sweep's default config `base` into
// `cfg`, for the one-line repros check_sweep prints (leading space per
// flag; empty when cfg is the default).
std::string sweep_flags(const CheckConfig& cfg, const CheckConfig& base);

// Deterministic random fault schedule over the checker cluster's node
// names (master0, master1, slave0.., spare0.., sched0): `faults` kills,
// engine kills sometimes followed by a §4.4 restart. With the default
// role counts any two deaths leave every class a promotable replica and a
// live scheduler, so plans never make the workload unserviceable.
std::string random_fault_plan(const CheckConfig& cfg, uint64_t seed,
                              int faults);

// Disaster-drill schedule (requires cfg.cluster.enable_persistence): a
// few engine/backend kills with no mem-tier restarts, then `wipe-tier`
// destroys every live engine node at a seed-derived point mid-workload.
// Recovery is verified off-line by the oracle's check_recovered_state, not
// by the cluster.
std::string random_disaster_plan(const CheckConfig& cfg, uint64_t seed);

// Partition-heavy geo schedule (requires cfg.cluster.regions >= 2): region
// cuts — symmetric and directed — each healed a seed-derived while later,
// plus a smaller dose of the usual kills/restarts, closed by an unconditional
// heal-partition so nothing stays parked past the quiesce horizon.
std::string random_geo_fault_plan(const CheckConfig& cfg, uint64_t seed,
                                  int faults);

// Elastic schedule: one or two addslave scale-outs mid-workload, usually a
// retire (of an original slave, or of the first added slave — timed after
// its add), plus a smaller dose of kills/restarts, so the oracle runs
// while the fleet is resizing in both directions.
std::string random_elastic_fault_plan(const CheckConfig& cfg, uint64_t seed,
                                      int faults);

// Multimaster composite schedule: kills biased toward the (several)
// update masters — so concurrent per-class fail-overs and cross-class
// adoptions happen — composed with elastic resizes (addslave/retire) and,
// in geo deployments (cfg.cluster.regions >= 2), healed region cuts.
std::string random_multimaster_fault_plan(const CheckConfig& cfg,
                                          uint64_t seed, int faults);

// One deliberately-planted bug + the evidence required to call it caught.
struct Mutation {
  std::string name;
  PlantedBug bug;
  std::vector<std::string> expect;  // any-of violation-name substrings
  // Shapes the workload and deployment so the bug's window is hit.
  std::function<void(CheckConfig&)> apply;
  std::string plan;
  int seeds = 10;  // seeds tried until the mutation is detected

  // The run for `seed`: apply's shape with the bug planted.
  CheckConfig config(uint64_t seed) const;
};

const std::vector<Mutation>& mutation_list();

// Runs every mutation; true iff each one produced one of its expected
// named violations on some seed. Per-mutation outcomes go to `log`.
bool run_mutation_smoke(std::ostream& log, bool verbose);

}  // namespace dmv::check
