// DmvCluster: deploys and operates a whole DMV installation inside one
// simulation — schedulers, the in-memory master/slave/spare tier, the
// on-disk persistence back-end — and exposes fault injection (the
// experiments' kill/restart scripts) plus ClusterClient, the emulated
// browser endpoint with scheduler fail-over.
#pragma once

#include "core/persistence_binding.hpp"
#include "core/scheduler.hpp"
#include "net/failure_detector.hpp"

namespace dmv::core {

class ClusterClient;

class DmvCluster {
 public:
  struct Config {
    int slaves = 2;
    int spares = 0;
    int schedulers = 1;
    // Conflict classes (§2.1): disjoint table sets, one master each.
    // Empty = the default single-master deployment (one class, all
    // tables). Update transactions whose tables fall wholly inside a
    // class run on that class's master, in parallel with other classes.
    std::vector<std::vector<storage::TableId>> conflict_classes;
    mem::MemEngine::Config engine;
    // Every engine node's protocol knobs: checkpointing, replication
    // pipeline windows, quorum commit, eager apply, hint cadence.
    EngineNode::Config node;
    Scheduler::Config scheduler;
    // Page-id-transfer warm-up: slave 0 ships hot-page ids to spare 0
    // every node.hint_every_txns transactions.
    bool pageid_hints = false;
    // Geo deployment: spread the replica tier over this many regions.
    // Region 0 ("local") keeps the masters, the primary scheduler, the
    // clients and the monitor; slaves, spares and standby schedulers are
    // placed round-robin (index % regions) so every region holds a share
    // of the read capacity. Cross-region link parameters live on
    // net::Topology (configure net.topology().link(LinkClass::Cross)
    // before constructing the cluster).
    size_t regions = 1;
    // Failure detection: broken connections (default, detect_delay) plus,
    // optionally, heartbeats from the primary scheduler to every engine
    // node — the paper's "missed heartbeat messages" backstop, which also
    // catches nodes that stop responding without a broken connection.
    bool heartbeats = false;
    net::HeartbeatConfig heartbeat;
    bool enable_persistence = false;
    PersistenceBinding::Config persistence;
    // Masters and slaves start with every loaded page resident (the paper
    // excludes initial cache warm-up from measurements). Spares are left
    // cold by default — their warm-up behavior is what Figs 7-9 measure.
    bool prewarm_spares = false;
    mem::SchemaFn schema;
    // Fills the initial data into an empty `schema` database. It runs once
    // per deployment (the base image every node and backend copies), and
    // again for each node restarted or added after start().
    std::function<void(storage::Database&)> loader;
  };

  DmvCluster(net::Network& net, const api::ProcRegistry& procs, Config cfg);
  ~DmvCluster();

  void start();

  // --- topology access ---
  EngineNode& master(size_t cls = 0) { return *nodes_.at(master_ids_[cls]); }
  EngineNode& node(NodeId id) { return *nodes_.at(id); }
  NodeId master_id(size_t cls = 0) const { return master_ids_[cls]; }
  size_t master_count() const { return master_ids_.size(); }
  NodeId slave_id(size_t i) const { return slave_ids_[i]; }
  NodeId spare_id(size_t i) const { return spare_ids_[i]; }
  size_t slave_count() const { return slave_ids_.size(); }
  size_t spare_count() const { return spare_ids_.size(); }
  Scheduler& scheduler(size_t i = 0) { return *schedulers_[i]; }
  size_t scheduler_count() const { return schedulers_.size(); }
  // Live primary scheduler object, or nullptr while none is alive.
  Scheduler* primary_scheduler();
  std::vector<NodeId> scheduler_ids() const;
  PersistenceBinding* persistence() { return persistence_.get(); }

  // --- elastic scaling (runtime fleet resizing, no quiesce) ---
  // Allocate a fresh node on the live network, provision it with a newly
  // generated base image (the loader's output: the deployment's shared
  // copy was released at start()), and bootstrap it through the §4.4
  // join protocol against the primary scheduler. The node serves no reads
  // until it reports JoinComplete; traffic continues throughout. Returns
  // the new node's id immediately (the join runs asynchronously).
  NodeId add_slave();
  NodeId add_spare();
  // Allocate a standby scheduler that adopts the current topology and
  // joins the gossip ring. NOTE: ClusterClients capture the scheduler
  // list at construction, so only clients created afterwards can fail
  // over to it.
  NodeId add_scheduler();
  // Elastic scale-in: drop `id` from every scheduler's read rotation,
  // keep it in the replica sets while its in-flight reads drain, then
  // kill it once every live scheduler reports zero in-flight dispatches
  // on it. Returns false (and does nothing) if the node is unknown, dead,
  // or currently a master on a live scheduler. Asynchronous: completion
  // is observable via retires_completed().
  bool retire_node(NodeId id);
  uint64_t retires_completed() const { return retires_completed_; }
  // Routable read replicas on the live primary (slaves in rotation; the
  // elastic controller's notion of fleet size).
  size_t live_slave_count();

  // --- fault injection & reintegration ---
  void kill_node(NodeId id);
  void kill_scheduler(size_t i);
  // Reboot a previously killed engine node: regenerate the base image
  // (standing in for the on-disk image file; the loader runs again), load
  // its local checkpoint, then run the §4.4 reintegration protocol
  // against the primary scheduler. A reboot never
  // outruns failure detection: if the node's death has not been announced
  // to the cluster yet (detect_delay hasn't elapsed), the restart is
  // deferred until just after the announcement. Otherwise the fresh
  // incarnation would race its predecessor's obituary — the scheduler
  // would keep routing to a process that lost its in-memory state, and
  // masters would keep a replication stream open across the gap.
  void restart_and_rejoin(NodeId id);
  // Persistence-tier faults (§4.6): fail-stop / resume one on-disk
  // backend, and the disaster scenario — lose the entire in-memory tier
  // at once (every engine node; schedulers and backends survive).
  void kill_backend(size_t idx);
  void restart_backend(size_t idx);
  void wipe_tier();

  // --- clients ---
  std::unique_ptr<ClusterClient> make_client(const std::string& name);

  // --- aggregate statistics ---
  uint64_t total_version_aborts() const;
  uint64_t total_read_commits() const;
  uint64_t total_update_commits() const;

  net::Network& net() { return net_; }

 private:
  NodeId primary_scheduler_id() const;
  void do_restart(NodeId id);
  // Build (or rebuild, on restart) engine node `id` with cfg_.node, its
  // database a copy of the base image (before start()) or a freshly
  // generated one (after); `hint_source` marks the page-id-hint sender
  // (slave 0 of the initial deployment).
  EngineNode& make_engine_node(NodeId id, bool hint_source = false);
  // cfg_.schema plus cfg_.loader on an empty database.
  storage::Database generate_image() const;
  // The deployment's initial data, generated on first use and released
  // by start().
  const storage::Database& base_image();
  // Feed `s`'s committed updates to the persistence tier, if deployed.
  void attach_persistence(Scheduler& s);
  // Region for the i-th node of a round-robin-placed role (geo deploys).
  void place_round_robin(NodeId id, size_t idx);
  // Allocate + provision + start + begin_rejoin for an elastic node.
  NodeId add_engine_node(const std::string& name, bool as_spare);
  sim::Task<> drain_and_kill(NodeId id, std::shared_ptr<bool> alive);

  net::Network& net_;
  const api::ProcRegistry& procs_;
  Config cfg_;
  std::vector<NodeId> master_ids_;  // one per conflict class
  std::vector<std::set<storage::TableId>> classes_;
  std::vector<NodeId> slave_ids_;
  std::vector<NodeId> spare_ids_;
  std::vector<NodeId> scheduler_node_ids_;
  std::vector<net::RegionId> region_ids_;  // [0] = local, then r1, r2, ...
  std::map<NodeId, std::unique_ptr<EngineNode>> nodes_;
  std::map<NodeId, std::unique_ptr<mem::StableStore>> stores_;
  std::vector<std::unique_ptr<Scheduler>> schedulers_;
  std::unique_ptr<PersistenceBinding> persistence_;
  std::unique_ptr<storage::Database> base_image_;
  std::vector<NodeId> client_ids_;
  std::map<NodeId, sim::Time> killed_at_;  // restart-vs-detection ordering
  std::unique_ptr<net::HeartbeatDetector> heartbeat_;
  NodeId heartbeat_node_ = net::kNoNode;
  bool started_ = false;
  // Elastic bookkeeping: monotonically increasing name indices (a retired
  // "slave3" is never reused), drain-coroutine liveness guard, counters.
  int next_slave_idx_ = 0;
  int next_spare_idx_ = 0;
  int next_sched_idx_ = 0;
  std::shared_ptr<bool> cluster_alive_;
  uint64_t retires_completed_ = 0;
};

// One emulated client/browser: sends ClientRequests to the primary
// scheduler, switches to a peer when the scheduler dies (it learns of the
// death the way the paper's clients do — via the broken connection,
// surfaced here as a SchedulerDown notification into its mailbox).
class ClusterClient {
 public:
  // Construct via DmvCluster::make_client — the cluster forwards
  // SchedulerDown notifications into the client's mailbox (clients
  // themselves hold no subscriptions, so they may be freely destroyed).
  ClusterClient(net::Network& net, std::string name,
                std::vector<NodeId> schedulers);

  // nullopt: request failed (all schedulers dead, or the cluster reported
  // an error — e.g. the serving slave died mid-transaction). Callers
  // (client emulators) decide whether to retry.
  // Lazy coroutine: owns its inputs by value.
  sim::Task<std::optional<api::TxnResult>> execute(std::string proc,
                                                   api::Params params);

  NodeId id() const { return id_; }
  uint64_t errors_seen() const { return errors_; }

 private:
  net::Network& net_;
  NodeId id_;
  std::vector<NodeId> schedulers_;
  size_t current_ = 0;
  uint64_t next_req_ = 1;
  uint64_t errors_ = 0;
  bool busy_ = false;
};

}  // namespace dmv::core
