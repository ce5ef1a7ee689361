// The version-aware scheduler (§2.2, §4).
//
// Routing: each update transaction goes to the master of its conflict
// class — disjoint table sets, one master each, so non-conflicting update
// transactions execute fully in parallel (§2.1); with a single class this
// degenerates to the paper's default one-master deployment. Read-only
// transactions are tagged with the freshest merged version vector and sent
// to a slave — preferring a replica already serving that exact vector (so
// readers needing different versions of the same pages land on different
// replicas), falling back to least-loaded. Admission control bounds
// in-flight reads per replica (§2.2 "read-only transactions may need to
// wait"): queued requests are tagged at dispatch, keeping tag staleness and
// version-inconsistency aborts bounded under overload. A configurable
// fraction of reads is diverted to spare backups to keep their caches warm
// (§4.5 technique 1).
//
// Per-class state: everything a master owns — its table set, the version
// vector entries for those tables, the queue of updates parked during its
// recovery, and its election/fail-over progress — lives in one ClassState
// object per conflict class. The scheduler's read tag is the elementwise
// merge of every class vector, maintained incrementally in version_
// (invariant: version_[t] == class_state(class_of_table(t)).version[t]),
// so cross-class reads see one totally-consistent snapshot across all
// masters without an O(classes) merge per read.
//
// Recovery: the scheduler's only hard state is the version vector, gossiped
// to peer schedulers on every commit (§4.1). It subscribes to failure
// notifications and orchestrates §4.2/§4.3 recovery: on slave death it
// aborts that slave's outstanding reads (error to the client) and drops it
// from the rotation, integrating a spare backup if one is available; on
// master death it confirms the last acknowledged version of that class,
// has all replicas discard partially-propagated write-sets above it,
// elects a new master and promotes it. Classes fail over independently:
// each class's parked updates drain the moment ITS recovery finishes, and
// if no slave or spare survives, a surviving other-class master adopts the
// class (engine promotion is additive). A standby scheduler takes over on
// primary death by asking the masters to abort unconfirmed transactions
// and adopting their version.
#pragma once

#include <deque>

#include "core/engine_node.hpp"
#include "core/version.hpp"
#include "obs/trace.hpp"

namespace dmv::core {

struct SchedulerStats {
  uint64_t reads_routed = 0;
  uint64_t updates_routed = 0;
  uint64_t spare_reads = 0;
  uint64_t version_abort_retries = 0;
  uint64_t client_errors = 0;
  uint64_t recoveries = 0;
  uint64_t takeovers = 0;
  uint64_t joins_completed = 0;
  sim::Time master_recovery_start = -1;
  sim::Time master_recovery_end = -1;  // new master promoted
  sim::Time spare_activated_at = -1;   // spare joined the read rotation
};

class Scheduler {
 public:
  struct Config {
    double spare_read_fraction = 0.0;  // e.g. 0.01 for the 1% policy
    int max_version_abort_retries = 5;
    // Admission control: at most this many in-flight reads per replica.
    uint64_t max_reads_inflight_per_node = 4;
    uint64_t rng_seed = 12345;
  };

  // Everything one conflict class's master owns, replicated per class so
  // N masters fail over, queue, and account independently.
  struct ClassState {
    NodeId master = net::kNoNode;
    std::set<storage::TableId> tables;
    // Class-projected version vector: authoritative for this class's
    // tables (merged from its master's commit acks and peer gossip), zero
    // elsewhere. The scheduler-wide read tag version_ is the elementwise
    // merge of every class vector.
    VersionVec version;
    bool recovering = false;
    // Updates for this class parked during ITS master's recovery; other
    // classes keep committing meanwhile.
    std::deque<ClientRequest> held_updates;
    // Per-class accounting (aggregates live in SchedulerStats).
    uint64_t updates_routed = 0;
    uint64_t commits = 0;
    uint64_t recoveries = 0;
    sim::Time recovery_start = -1;
    sim::Time recovery_end = -1;
  };

  Scheduler(net::Network& net, NodeId id, const api::ProcRegistry& procs,
            size_t table_count, Config cfg,
            check::PlantedBug bug = check::PlantedBug::None,
            check::Sink* sink = nullptr);
  ~Scheduler();

  // One master per conflict class; classes are disjoint table sets that
  // together cover every table an update transaction may touch.
  void set_topology(std::vector<NodeId> masters,
                    std::vector<std::set<storage::TableId>> classes,
                    std::vector<NodeId> slaves, std::vector<NodeId> spares,
                    std::vector<NodeId> peer_schedulers);
  // Called with the op-log and post-commit version vector of every
  // committed update (persistence tier §4.6: the vector orders and
  // deduplicates log records across scheduler fail-over).
  void set_persistence(
      std::function<void(const txn::OpLogPtr&, const VersionVec&)> fn) {
    persist_ = std::move(fn);
  }
  void make_primary() { is_primary_ = true; }
  bool is_primary() const { return is_primary_; }

  void start();
  // Wired to net failure subscription by the cluster controller.
  void on_node_killed(NodeId n);
  // Elastic scale-in: stop routing new reads to `n` (drop it from the
  // slave/spare rotation) while keeping it in every master's replica set
  // so in-flight tagged reads it still holds can catch up and complete.
  // The cluster controller polls inflight_on(n) and kills the node once
  // the drain is empty. Idempotent; unknown nodes are a no-op.
  void retire_node(NodeId n);
  // Elastic scheduler scale-out: a standby scheduler was added at runtime;
  // include it in version/topology gossip from now on.
  void add_peer(NodeId n);
  // Fail-stop this scheduler (cluster controller calls it right after
  // net.kill): close every open request span, drop held queues, and cancel
  // blocked recovery coroutines so their frames unwind while the object is
  // still owned. Destruction alone must not wake coroutines (they would
  // resume against a freed scheduler), so the destructor only closes spans.
  void shutdown();

  NodeId id() const { return id_; }
  const VersionVec& version() const { return version_; }
  // Convenience for single-class deployments.
  NodeId master() const {
    return classes_.empty() ? net::kNoNode : classes_[0].master;
  }
  // Materialized per-class master list (by value: the per-class objects
  // own the entries now).
  std::vector<NodeId> masters() const {
    std::vector<NodeId> out;
    out.reserve(classes_.size());
    for (const auto& cs : classes_) out.push_back(cs.master);
    return out;
  }
  const std::vector<NodeId>& slaves() const { return slaves_; }
  const std::vector<NodeId>& spares() const { return spares_; }
  size_t class_count() const { return classes_.size(); }
  const ClassState& class_state(size_t cls) const { return classes_[cls]; }
  // Recomputed merge of every class vector — equals version() by the
  // maintained invariant; tests assert the two stay in lockstep.
  VersionVec merged_snapshot_tag() const {
    VersionVec out(version_.size(), 0);
    for (const auto& cs : classes_) merge_max(out, cs.version);
    return out;
  }
  SchedulerStats& stats() { return stats_; }
  const Config& config() const { return cfg_; }
  size_t outstanding() const { return outstanding_.size(); }

  // ---- invariant-checker probes (dmv_check) ----
  size_t held_reads() const { return held_reads_.size(); }
  size_t held_updates() const {
    size_t n = 0;
    for (const auto& cs : classes_) n += cs.held_updates.size();
    return n;
  }
  size_t held_joins() const { return held_joins_.size(); }
  bool recovering() const {
    for (const auto& cs : classes_)
      if (cs.recovering) return true;
    return false;
  }
  // Sum of per-node in-flight counters; must equal outstanding() (and hit
  // zero) at quiesce.
  uint64_t inflight_total() const {
    uint64_t n = 0;
    for (const auto& [node, cnt] : outstanding_per_node_) n += cnt;
    return n;
  }
  // Any read-routing state (load counter or version tag) held for `n`.
  // Dead and freshly-rejoined nodes must have none — stale tags skew
  // pick_read_replica against a restarted slave.
  bool has_routing_state(NodeId n) const {
    return outstanding_per_node_.count(n) != 0 || last_tag_.count(n) != 0;
  }
  // In-flight dispatches on one node (retirement-drain probe).
  uint64_t inflight_on(NodeId n) const {
    auto it = outstanding_per_node_.find(n);
    return it == outstanding_per_node_.end() ? 0 : it->second;
  }
  // Node answered a JoinRequest here but has not reported JoinComplete:
  // it may be arbitrarily stale and must not serve reads, support other
  // joiners, or be activated from the spare pool.
  bool is_joining(NodeId n) const { return joining_.count(n) != 0; }
  bool is_retiring(NodeId n) const { return retiring_.count(n) != 0; }

 private:
  struct Outstanding {
    ClientRequest client;
    NodeId node = net::kNoNode;
    bool read_only = true;
    size_t cls = 0;  // conflict class (updates only; per-class accounting)
    int retries = 0;
    // Request-lifetime trace span: opened on routing, closed on the final
    // client reply (survives version-abort retries and admission queueing).
    obs::SpanId span = 0;
  };

  sim::Task<> main_loop();
  void handle_client(ClientRequest req);
  void handle_txn_done(NodeId from, const TxnDone& d);
  void route_update(Outstanding out);
  void route_read(Outstanding out);
  void pump_held_reads();
  bool try_dispatch_read(Outstanding& out);
  NodeId pick_read_replica();
  void fail_outstanding_on(NodeId node);
  void reply_client(const ClientRequest& req, bool ok,
                    const api::TxnResult& result);
  void begin_req_span(Outstanding& out, const char* name);
  void end_req_span(Outstanding& out, const char* status);
  // Conflict class whose table set covers the proc's tables (paper: the
  // scheduler is preconfigured with each transaction type's tables).
  size_t class_of(const api::ProcInfo& proc) const;
  // Merge a committed/gossiped vector into the read tag AND the owning
  // classes' vectors, preserving the version_-equals-merge invariant.
  void merge_versions(const VersionVec& v);
  sim::Task<> recover_master(size_t cls);
  void maybe_spawn_recovery(size_t cls);
  sim::Task<> takeover();
  void integrate_spare();
  void gossip_topology();
  void broadcast_replica_sets();
  void answer_join(NodeId joiner);
  void answer_or_park_join(NodeId joiner);
  void answer_held_joins();
  std::vector<NodeId> live_replicas() const;
  // Election candidate pool (live slaves + spares, retirees excluded):
  // the only acks that may satisfy a write quorum.
  std::vector<NodeId> voter_pool() const;
  std::vector<NodeId> replicas_for_master(NodeId m) const;
  bool any_master(NodeId n) const;
  // True if some node could (eventually) serve a tagged read: a live
  // slave/master/spare, or a recovery in flight that may promote one.
  bool reads_serviceable() const;
  // Drop node n from every liveness-aware protocol wait.
  void prune_waits_for(NodeId n);
  void close_all_request_spans();

  net::Network& net_;
  NodeId id_;
  const api::ProcRegistry& procs_;
  Config cfg_;
  check::PlantedBug bug_;  // planted for check_sweep --mutations, or None
  check::Sink* sink_;      // the oracle's history recorder, or nullptr
  util::Rng rng_;
  bool is_primary_ = false;
  uint64_t misroute_flip_ = 0;  // PlantedBug::WrongClassRoute's alternator
  std::shared_ptr<bool> alive_;

  // One entry per conflict class; never resized after set_topology (so
  // references held across coroutine suspension stay valid).
  std::vector<ClassState> classes_;
  // table -> owning class, for O(1) per-table merges.
  std::vector<size_t> class_of_table_;
  std::vector<NodeId> slaves_;
  std::vector<NodeId> spares_;
  std::vector<NodeId> peers_;
  // Nodes mid-§4.4-join: answered but not yet JoinComplete. Excluded from
  // support selection and spare activation (they are stale by definition).
  std::set<NodeId> joining_;
  // Nodes draining for retirement: out of the routing lists but still fed
  // by every master's replica stream so their held tagged reads can catch
  // up and complete (and, under quorum commit, their votes still count
  // until the controller kills them).
  std::set<NodeId> retiring_;

  VersionVec version_;  // merge of every class vector (the read tag)
  uint64_t next_req_ = 1;
  std::map<uint64_t, Outstanding> outstanding_;
  std::map<NodeId, uint64_t> outstanding_per_node_;
  std::map<NodeId, VersionVec> last_tag_;
  std::deque<Outstanding> held_reads_;  // admission-control queue
  std::vector<NodeId> held_joins_;      // joiners arriving mid-recovery

  std::function<void(const txn::OpLogPtr&, const VersionVec&)> persist_;

  // Liveness-aware protocol waits. Each wait tracks the exact peers whose
  // replies are still required; a peer's death (prune_waits_for) removes it
  // from `pending` and wakes the waiter, so a reply that will never arrive
  // can never wedge recovery. Channels are the wrong tool here: a channel
  // delivers whatever comes, but recovery must know *who* still owes it.
  struct AckWaitSet {
    explicit AckWaitSet(sim::Simulation& sim) : wq(sim) {}
    std::set<NodeId> pending;
    sim::WaitQueue wq;
    // DiscardAbove acks carry each replica's post-discard received vector;
    // recover_master elects the most caught-up candidate from these (under
    // quorum commit an acked write may live on only a quorum of replicas).
    std::map<NodeId, VersionVec> received;
  };
  struct PromoteWait {
    explicit PromoteWait(sim::Simulation& sim) : wq(sim) {}
    NodeId target = net::kNoNode;  // kNoNode once the target died
    std::optional<PromoteDone> reply;
    sim::WaitQueue wq;
  };
  uint64_t next_token_ = 1;
  std::map<uint64_t, AckWaitSet> discard_waits_;   // keyed by message token
  std::map<uint64_t, PromoteWait> promote_waits_;  // keyed by local token
  std::optional<AckWaitSet> takeover_wait_;

  SchedulerStats stats_;
};

}  // namespace dmv::core
