#include "core/cluster.hpp"

#include <algorithm>

namespace dmv::core {

DmvCluster::DmvCluster(net::Network& net, const api::ProcRegistry& procs,
                       Config cfg)
    : net_(net), procs_(procs), cfg_(std::move(cfg)) {
  DMV_ASSERT(cfg_.schema);
  DMV_ASSERT(cfg_.slaves >= 1);

  // Conflict classes: explicit config, or one class covering every table.
  {
    const size_t tables = base_image().table_count();
    if (cfg_.conflict_classes.empty()) {
      std::set<storage::TableId> all;
      for (storage::TableId t = 0; t < tables; ++t)
        all.insert(t);
      classes_.push_back(std::move(all));
    } else {
      std::set<storage::TableId> seen;
      for (const auto& cls : cfg_.conflict_classes) {
        std::set<storage::TableId> s(cls.begin(), cls.end());
        for (storage::TableId t : s)
          DMV_ASSERT_MSG(seen.insert(t).second,
                         "conflict classes must be disjoint");
        classes_.push_back(std::move(s));
      }
      DMV_ASSERT_MSG(seen.size() == tables,
                     "conflict classes must cover every table");
    }
  }

  // Allocate node ids: masters (one per class), slaves, spares, schedulers.
  for (size_t i = 0; i < classes_.size(); ++i)
    master_ids_.push_back(net_.add_node(
        classes_.size() == 1 ? "master" : "master" + std::to_string(i)));
  for (int i = 0; i < cfg_.slaves; ++i)
    slave_ids_.push_back(net_.add_node("slave" + std::to_string(i)));
  for (int i = 0; i < cfg_.spares; ++i)
    spare_ids_.push_back(net_.add_node("spare" + std::to_string(i)));
  for (int i = 0; i < cfg_.schedulers; ++i)
    scheduler_node_ids_.push_back(
        net_.add_node("sched" + std::to_string(i)));
  next_slave_idx_ = cfg_.slaves;
  next_spare_idx_ = cfg_.spares;
  next_sched_idx_ = cfg_.schedulers;
  cluster_alive_ = std::make_shared<bool>(true);

  // Geo placement. Masters (and later the clients and the monitor) stay
  // in region 0; slaves, spares and schedulers round-robin across the
  // regions so each region keeps local read capacity and a scheduler to
  // fail over to. Single-region deployments leave the topology untouched.
  region_ids_ = {0};
  for (size_t r = 1; r < cfg_.regions; ++r) {
    const std::string name = "r" + std::to_string(r);
    net::RegionId rid = net_.topology().find_region(name);
    if (rid == net::kNoRegion) rid = net_.topology().add_region(name);
    region_ids_.push_back(rid);
  }
  for (size_t i = 0; i < slave_ids_.size(); ++i)
    place_round_robin(slave_ids_[i], i);
  for (size_t i = 0; i < spare_ids_.size(); ++i)
    place_round_robin(spare_ids_[i], i);
  for (size_t i = 0; i < scheduler_node_ids_.size(); ++i)
    place_round_robin(scheduler_node_ids_[i], i);

  // Engine nodes: each starts as a copy of the base image.
  for (NodeId id : master_ids_) make_engine_node(id);
  for (size_t i = 0; i < slave_ids_.size(); ++i)
    make_engine_node(slave_ids_[i], i == 0);
  for (NodeId id : spare_ids_) make_engine_node(id);

  // Master roles: each class master replicates to every other node
  // (slaves, spares, and the other masters — which are slaves for its
  // tables).
  const size_t tables =
      nodes_[master_ids_[0]]->engine().db().table_count();
  for (size_t ci = 0; ci < master_ids_.size(); ++ci) {
    std::vector<NodeId> replicas = slave_ids_;
    replicas.insert(replicas.end(), spare_ids_.begin(), spare_ids_.end());
    // Voters — the replicas counting toward a write quorum — are exactly
    // the slaves + spares: the pool a fail-over would elect from. The
    // other-class masters subscribe to the stream below but must not
    // satisfy the quorum (see PromoteToMaster::voters).
    std::vector<NodeId> voters = replicas;
    for (NodeId other : master_ids_)
      if (other != master_ids_[ci]) replicas.push_back(other);
    nodes_[master_ids_[ci]]->make_master(classes_[ci], std::move(replicas),
                                         std::move(voters));
  }

  // Schedulers: the first is primary; all share the topology.
  for (size_t i = 0; i < scheduler_node_ids_.size(); ++i) {
    auto s = std::make_unique<Scheduler>(net_, scheduler_node_ids_[i],
                                         procs_, tables, cfg_.scheduler);
    std::vector<NodeId> peers;
    for (NodeId p : scheduler_node_ids_)
      if (p != scheduler_node_ids_[i]) peers.push_back(p);
    s->set_topology(master_ids_, classes_, slave_ids_, spare_ids_,
                    std::move(peers));
    if (i == 0) s->make_primary();
    schedulers_.push_back(std::move(s));
  }

  if (cfg_.enable_persistence) {
    persistence_ = std::make_unique<PersistenceBinding>(
        net_.sim(), cfg_.persistence, cfg_.schema);
    persistence_->load(base_image());
    for (auto& s : schedulers_) attach_persistence(*s);
  }

  // Failure notifications (broken connections) go to every engine node
  // (masters prune dead replicas from ack waits, joiners retry), every
  // scheduler and, for scheduler deaths, to every client (so a blocked
  // request can fail over to a peer scheduler). Engine nodes are told
  // first: a master wedged on a dead replica's ack must unwedge before a
  // scheduler's recovery asks it to abort or discard. Detection is
  // per-link-class: an observer learns of a death when *its own*
  // connection to the dead node breaks, so same-region peers react at the
  // intra-region delay while cross-region peers lag behind (each observer
  // sits in exactly one wave — the one matching its link class to the
  // victim). Flat topologies collapse both waves onto one instant.
  net_.subscribe_failures_by_class([this](NodeId n, net::LinkClass cls) {
    const net::Topology& topo = net_.topology();
    for (auto& [id, node] : nodes_)
      if (net_.alive(id) && topo.link_class(id, n) == cls)
        node->on_peer_killed(n);
    for (auto& s : schedulers_)
      if (topo.link_class(s->id(), n) == cls) s->on_node_killed(n);
    if (std::find(scheduler_node_ids_.begin(), scheduler_node_ids_.end(),
                  n) != scheduler_node_ids_.end()) {
      for (NodeId cid : client_ids_)
        if (net_.alive(cid) && topo.link_class(cid, n) == cls)
          net_.mailbox(cid).send(net::Envelope{cid, cid, SchedulerDown{n}});
    }
  });
}

DmvCluster::~DmvCluster() {
  if (cluster_alive_) *cluster_alive_ = false;
}

EngineNode& DmvCluster::make_engine_node(NodeId id, bool hint_source) {
  EngineNode::Config nc = cfg_.node;
  if (hint_source && cfg_.pageid_hints && !spare_ids_.empty())
    nc.hint_target = spare_ids_[0];
  // The StableStore (the node's local checkpoint) outlives its processes.
  auto& store = stores_[id];
  if (!store) store = std::make_unique<mem::StableStore>();
  auto node = std::make_unique<EngineNode>(net_, id, procs_, cfg_.schema,
                                           cfg_.engine, nc, store.get());
  // After start() the base image is gone: a restarted or added node gets
  // a freshly generated one.
  if (started_)
    node->engine().db() = generate_image();
  else
    node->engine().db() = base_image();
  nodes_[id] = std::move(node);
  return *nodes_[id];
}

storage::Database DmvCluster::generate_image() const {
  storage::Database db;
  cfg_.schema(db);
  if (cfg_.loader) cfg_.loader(db);
  return db;
}

const storage::Database& DmvCluster::base_image() {
  if (!base_image_)
    base_image_ = std::make_unique<storage::Database>(generate_image());
  return *base_image_;
}

void DmvCluster::attach_persistence(Scheduler& s) {
  if (!persistence_) return;
  s.set_persistence([this](const std::vector<txn::OpRecord>& ops,
                           const VersionVec& db_version) {
    persistence_->log_update(ops, db_version);
  });
}

void DmvCluster::place_round_robin(NodeId id, size_t idx) {
  const size_t r = idx % region_ids_.size();
  if (r != 0) net_.topology().place(id, region_ids_[r]);
}

void DmvCluster::start() {
  DMV_ASSERT(!started_);
  started_ = true;
  base_image_.reset();  // every node and backend holds its own copy
  if (cfg_.heartbeats) {
    // A dedicated monitor endpoint pings every engine node; suspicion is
    // reported to the schedulers exactly like a broken connection.
    heartbeat_node_ = net_.add_node("monitor");
    heartbeat_ = std::make_unique<net::HeartbeatDetector>(
        net_, heartbeat_node_, cfg_.heartbeat);
    for (auto& [id, node] : nodes_) heartbeat_->monitor(id);
    heartbeat_->subscribe([this](NodeId n) {
      for (auto& [id, node] : nodes_)
        if (net_.alive(id)) node->on_peer_killed(n);
      for (auto& s : schedulers_) s->on_node_killed(n);
    });
    net_.sim().spawn([](net::Network& net, NodeId me,
                        net::HeartbeatDetector& d) -> sim::Task<> {
      for (;;) {
        auto env = co_await net.mailbox(me).receive();
        if (!env) break;
        if (net::as<net::HeartbeatMsg>(*env)) d.on_heartbeat(env->from);
      }
    }(net_, heartbeat_node_, *heartbeat_));
    heartbeat_->start();
  }
  auto prewarm = [](EngineNode& n) {
    for (const auto& [pid, ver] : n.engine().page_versions())
      n.engine().cache().prefetch(pid);
  };
  for (NodeId m : master_ids_) prewarm(*nodes_[m]);
  for (NodeId s : slave_ids_) prewarm(*nodes_[s]);
  if (cfg_.prewarm_spares)
    for (NodeId s : spare_ids_) prewarm(*nodes_[s]);
  for (auto& [id, node] : nodes_) node->start();
  for (auto& s : schedulers_) s->start();
  if (persistence_) persistence_->start();
}

std::vector<NodeId> DmvCluster::scheduler_ids() const {
  return scheduler_node_ids_;
}

NodeId DmvCluster::primary_scheduler_id() const {
  for (const auto& s : schedulers_)
    if (s->is_primary() && net_.alive(s->id())) return s->id();
  for (const auto& s : schedulers_)
    if (net_.alive(s->id())) return s->id();
  return net::kNoNode;
}

void DmvCluster::kill_node(NodeId id) {
  auto it = nodes_.find(id);
  DMV_ASSERT_MSG(it != nodes_.end(), "not an engine node");
  killed_at_[id] = net_.sim().now();
  net_.kill(id);
  it->second->on_killed();
}

void DmvCluster::kill_scheduler(size_t i) {
  net_.kill(scheduler_node_ids_[i]);
  // Fail-stop the scheduler object too: close request/held spans and
  // cancel blocked recovery coroutines while the object is still owned.
  schedulers_[i]->shutdown();
}

void DmvCluster::kill_backend(size_t idx) {
  DMV_ASSERT_MSG(persistence_, "no persistence tier");
  persistence_->kill_backend(idx);
}

void DmvCluster::restart_backend(size_t idx) {
  DMV_ASSERT_MSG(persistence_, "no persistence tier");
  persistence_->restart_backend(idx);
}

void DmvCluster::wipe_tier() {
  // The §4.6 disaster: every in-memory engine node fails at once. The
  // schedulers' recoveries find no promotable candidate and fail held
  // work; the persistence log plus any recoverable backend is then the
  // only copy of the committed state.
  obs::instant("tier.wipe", obs::Cat::Recovery);
  for (auto& [id, node] : nodes_)
    if (net_.alive(id)) kill_node(id);
}

void DmvCluster::restart_and_rejoin(NodeId id) {
  DMV_ASSERT(!net_.alive(id));
  // A reboot must not win the race against the dead process's obituary
  // (see header): hold the new incarnation back until strictly after the
  // broken-connection notification has gone out.
  auto killed = killed_at_.find(id);
  const sim::Time now = net_.sim().now();
  if (killed != killed_at_.end()) {
    // detect_horizon = the slowest link class's detection delay; past it,
    // every observer — cross-region ones included — has seen the obituary.
    const sim::Time ready = killed->second + net_.detect_horizon() + 1;
    if (now < ready) {
      net_.sim().schedule_after(ready - now, [this, id] {
        if (!net_.alive(id)) do_restart(id);
      });
      return;
    }
  }
  do_restart(id);
}

void DmvCluster::do_restart(NodeId id) {
  net_.restart(id);
  // Fresh process: rebuild from a regenerated base image + local
  // checkpoint; the volatile buffer cache starts cold.
  make_engine_node(id).start(/*restore_from_store=*/true);
  const NodeId sched = primary_scheduler_id();
  // Every scheduler may be dead (chaos schedules do this); the node then
  // simply runs without joining — nobody would route to it anyway.
  if (sched != net::kNoNode)
    nodes_[id]->begin_rejoin(sched, scheduler_node_ids_);
}

Scheduler* DmvCluster::primary_scheduler() {
  for (auto& s : schedulers_)
    if (s->is_primary() && net_.alive(s->id())) return s.get();
  return nullptr;
}

size_t DmvCluster::live_slave_count() {
  Scheduler* p = primary_scheduler();
  if (!p) return 0;
  size_t n = 0;
  for (NodeId s : p->slaves())
    if (net_.alive(s)) ++n;
  return n;
}

NodeId DmvCluster::add_engine_node(const std::string& name, bool as_spare) {
  DMV_ASSERT_MSG(started_, "elastic add before cluster start");
  const NodeId id = net_.add_node(name);
  // Provision from a regenerated base image (a restore from backup); the
  // §4.4 join then fetches only pages newer than the image. The cache
  // starts cold — warm-up is part of what elasticity experiments measure.
  make_engine_node(id);
  if (heartbeat_) heartbeat_->monitor(id);
  nodes_[id]->start();
  obs::instant(as_spare ? "elastic.add_spare" : "elastic.add_slave",
               obs::Cat::Warmup, id);
  // Every scheduler may be dead (chaos does this); the node then idles
  // unjoined — nobody routes to it, exactly like a restart in that state.
  const NodeId sched = primary_scheduler_id();
  if (sched != net::kNoNode)
    nodes_[id]->begin_rejoin(sched, scheduler_node_ids_, as_spare);
  return id;
}

NodeId DmvCluster::add_slave() {
  const size_t idx = size_t(next_slave_idx_++);
  const NodeId id =
      add_engine_node("slave" + std::to_string(idx), /*as_spare=*/false);
  place_round_robin(id, idx);
  slave_ids_.push_back(id);
  return id;
}

NodeId DmvCluster::add_spare() {
  const size_t idx = size_t(next_spare_idx_++);
  const NodeId id =
      add_engine_node("spare" + std::to_string(idx), /*as_spare=*/true);
  place_round_robin(id, idx);
  spare_ids_.push_back(id);
  return id;
}

NodeId DmvCluster::add_scheduler() {
  DMV_ASSERT_MSG(started_, "elastic add before cluster start");
  const size_t idx = size_t(next_sched_idx_++);
  const NodeId id = net_.add_node("sched" + std::to_string(idx));
  place_round_robin(id, idx);
  const size_t tables = nodes_.begin()->second->engine().db().table_count();
  auto s = std::make_unique<Scheduler>(net_, id, procs_, tables,
                                       cfg_.scheduler);
  // Adopt the live primary's current view of the fleet (the static config
  // lists are stale once elasticity or fail-over has reshaped it).
  std::vector<NodeId> peers = scheduler_node_ids_;
  if (Scheduler* p = primary_scheduler())
    s->set_topology(p->masters(), classes_, p->slaves(), p->spares(),
                    std::move(peers));
  else
    s->set_topology(master_ids_, classes_, slave_ids_, spare_ids_,
                    std::move(peers));
  attach_persistence(*s);
  for (auto& peer : schedulers_) peer->add_peer(id);
  scheduler_node_ids_.push_back(id);
  schedulers_.push_back(std::move(s));
  schedulers_.back()->start();
  obs::instant("elastic.add_scheduler", obs::Cat::Scheduler, id);
  return id;
}

bool DmvCluster::retire_node(NodeId id) {
  auto it = nodes_.find(id);
  if (it == nodes_.end() || !net_.alive(id)) return false;
  for (auto& s : schedulers_)
    if (net_.alive(s->id())) {
      const auto& m = s->masters();
      if (std::find(m.begin(), m.end(), id) != m.end())
        return false;  // masters don't retire (fail-over handles them)
    }
  obs::instant("retire.begin", obs::Cat::Scheduler, id);
  for (auto& s : schedulers_)
    if (net_.alive(s->id())) s->retire_node(id);
  net_.sim().spawn(drain_and_kill(id, cluster_alive_));
  return true;
}

sim::Task<> DmvCluster::drain_and_kill(NodeId id,
                                       std::shared_ptr<bool> alive) {
  // Poll the schedulers' in-flight counters until the retiree has drained
  // every dispatch it still holds (a held tagged read completes once the
  // replica streams catch it up — the node stays in every replica set
  // while retiring), then fail-stop it. The death obituary prunes it from
  // replica sets and ack waits through the normal channels.
  for (;;) {
    co_await net_.sim().delay(sim::kMsec);
    if (!*alive) co_return;
    if (!net_.alive(id)) co_return;  // raced a concurrent kill: drain over
    bool drained = true;
    for (auto& s : schedulers_)
      if (net_.alive(s->id()) && s->inflight_on(id) > 0) drained = false;
    if (drained) break;
  }
  obs::instant("retire.done", obs::Cat::Scheduler, id);
  ++retires_completed_;
  kill_node(id);
}

std::unique_ptr<ClusterClient> DmvCluster::make_client(
    const std::string& name) {
  auto client =
      std::make_unique<ClusterClient>(net_, name, scheduler_node_ids_);
  client_ids_.push_back(client->id());
  return client;
}

uint64_t DmvCluster::total_version_aborts() const {
  uint64_t n = 0;
  for (const auto& [id, node] : nodes_)
    n += node->engine().stats().version_aborts;
  return n;
}

uint64_t DmvCluster::total_read_commits() const {
  uint64_t n = 0;
  for (const auto& [id, node] : nodes_)
    n += node->engine().stats().read_commits;
  return n;
}

uint64_t DmvCluster::total_update_commits() const {
  uint64_t n = 0;
  for (const auto& [id, node] : nodes_)
    n += node->engine().stats().update_commits;
  return n;
}

ClusterClient::ClusterClient(net::Network& net, std::string name,
                             std::vector<NodeId> schedulers)
    : net_(net), schedulers_(std::move(schedulers)) {
  id_ = net_.add_node(std::move(name));
}

sim::Task<std::optional<api::TxnResult>> ClusterClient::execute(
    std::string proc, api::Params params) {
  // Closed-loop client: one outstanding request at a time (concurrent
  // executes would steal each other's replies off the shared mailbox).
  DMV_ASSERT_MSG(!busy_, "ClusterClient is single-outstanding");
  busy_ = true;
  struct Unbusy {
    bool* b;
    ~Unbusy() { *b = false; }
  } unbusy{&busy_};
  // One id for the whole logical request: a retry on a peer scheduler
  // (after the current one died mid-request) is a *resubmission*, and the
  // master dedupes resubmissions by (client, req_id) — a fresh id per
  // attempt would turn an already-committed-but-unacked update into a
  // double deposit.
  const uint64_t rid = next_req_++;
  for (size_t attempt = 0; attempt < schedulers_.size() + 1; ++attempt) {
    // Pick a live scheduler.
    NodeId sched = net::kNoNode;
    for (size_t k = 0; k < schedulers_.size(); ++k) {
      const NodeId cand = schedulers_[(current_ + k) % schedulers_.size()];
      if (net_.alive(cand)) {
        current_ = (current_ + k) % schedulers_.size();
        sched = cand;
        break;
      }
    }
    if (sched == net::kNoNode) {
      ++errors_;
      co_return std::nullopt;
    }

    ClientRequest req;
    req.req_id = rid;
    req.reply_to = id_;
    req.proc = proc;
    req.params = params;
    net_.send(id_, sched, std::move(req), 512);

    for (;;) {
      auto env = co_await net_.mailbox(id_).receive();
      if (!env) co_return std::nullopt;  // client torn down
      if (const auto* reply = net::as<ClientReply>(*env)) {
        if (reply->req_id != rid) continue;  // stale reply
        if (reply->ok) co_return reply->result;
        ++errors_;
        co_return std::nullopt;  // cluster reported an error
      }
      if (const auto* down = net::as<SchedulerDown>(*env)) {
        if (down->scheduler == sched) {
          ++current_;  // retry on a peer
          break;
        }
      }
    }
  }
  ++errors_;
  co_return std::nullopt;
}

}  // namespace dmv::core
