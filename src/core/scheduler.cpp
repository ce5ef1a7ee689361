#include "core/scheduler.hpp"

#include <algorithm>

namespace dmv::core {

namespace {
void erase_value(std::vector<NodeId>& v, NodeId n) {
  v.erase(std::remove(v.begin(), v.end(), n), v.end());
}
}  // namespace

Scheduler::Scheduler(net::Network& net, NodeId id,
                     const api::ProcRegistry& procs, size_t table_count,
                     Config cfg, check::PlantedBug bug, check::Sink* sink)
    : net_(net),
      id_(id),
      procs_(procs),
      cfg_(cfg),
      bug_(bug),
      sink_(sink),
      rng_(cfg.rng_seed),
      version_(table_count, 0) {}

Scheduler::~Scheduler() {
  if (alive_) *alive_ = false;
  // Spans held by parked/outstanding requests must not leak at teardown;
  // waits are NOT notified here — waking a coroutine from the destructor
  // would resume it against a dead object (shutdown() handles the mid-run
  // fail-stop case while the scheduler is still owned by the cluster).
  close_all_request_spans();
}

void Scheduler::shutdown() {
  close_all_request_spans();
  if (!alive_ || !*alive_) return;
  *alive_ = false;
  for (auto& [tok, w] : discard_waits_) w.wq.notify_all(false);
  for (auto& [tok, w] : promote_waits_) w.wq.notify_all(false);
  if (takeover_wait_) takeover_wait_->wq.notify_all(false);
}

void Scheduler::close_all_request_spans() {
  for (auto& [rid, out] : outstanding_) end_req_span(out, "scheduler_down");
  outstanding_.clear();
  outstanding_per_node_.clear();
  for (auto& out : held_reads_) end_req_span(out, "scheduler_down");
  held_reads_.clear();
  for (auto& cs : classes_) cs.held_updates.clear();
  held_joins_.clear();
}

void Scheduler::set_topology(std::vector<NodeId> masters,
                             std::vector<std::set<storage::TableId>> classes,
                             std::vector<NodeId> slaves,
                             std::vector<NodeId> spares,
                             std::vector<NodeId> peers) {
  DMV_ASSERT(masters.size() == classes.size());
  classes_.clear();
  classes_.reserve(classes.size());
  class_of_table_.assign(version_.size(), size_t(-1));
  for (size_t c = 0; c < classes.size(); ++c) {
    ClassState cs;
    cs.master = masters[c];
    cs.tables = std::move(classes[c]);
    cs.version.assign(version_.size(), 0);
    for (storage::TableId t : cs.tables)
      if (t < class_of_table_.size()) class_of_table_[t] = c;
    classes_.push_back(std::move(cs));
  }
  slaves_ = std::move(slaves);
  spares_ = std::move(spares);
  peers_ = std::move(peers);
}

void Scheduler::start() {
  DMV_ASSERT_MSG(!alive_, "scheduler already started");
  // Conflict classes partition update routing (§2.1): every update proc
  // must fit inside ONE class, or it would execute on a single master
  // while touching tables mastered elsewhere — silently misrouted, and
  // the write-set would bump versions the other class's master owns.
  // Catch the misconfiguration here, by name, instead of at run time.
  if (classes_.size() > 1) {
    procs_.for_each([&](const std::string& name, const api::ProcInfo& p) {
      if (p.read_only) return;  // reads fan out per-table tags, any node
      bool fits = false;
      for (const auto& cls : classes_) {
        bool all = true;
        for (storage::TableId t : p.tables)
          if (!cls.tables.count(t)) {
            all = false;
            break;
          }
        if (all) {
          fits = true;
          break;
        }
      }
      DMV_ASSERT_MSG(fits, "update proc '"
                               << name
                               << "' spans conflict classes: its tables "
                                  "fit no single class, routing would be "
                                  "undefined");
    });
  }
  alive_ = std::make_shared<bool>(true);
  net_.sim().spawn(main_loop());
}

std::vector<NodeId> Scheduler::live_replicas() const {
  std::vector<NodeId> out;
  for (NodeId n : slaves_)
    if (net_.alive(n)) out.push_back(n);
  for (NodeId n : spares_)
    if (net_.alive(n)) out.push_back(n);
  // Retiring nodes left the routing lists but must keep receiving every
  // master's stream until their drain completes: a held tagged read on a
  // retiree waits for versions that only the stream can deliver, and under
  // quorum commit cutting a voter mid-ack could wedge a commit.
  for (NodeId n : retiring_)
    if (net_.alive(n)) out.push_back(n);
  return out;
}

std::vector<NodeId> Scheduler::voter_pool() const {
  std::vector<NodeId> out;
  for (NodeId n : slaves_)
    if (net_.alive(n)) out.push_back(n);
  for (NodeId n : spares_)
    if (net_.alive(n)) out.push_back(n);
  return out;
}

std::vector<NodeId> Scheduler::replicas_for_master(NodeId m) const {
  // A master replicates to every live node except itself: slaves, spares
  // and the other conflict-class masters (which are slaves for its tables).
  // After a cross-class adoption one node may master several classes; the
  // self-exclusion covers every class it holds, and duplicates (two classes
  // sharing a master) collapse via the seen-set.
  std::vector<NodeId> out = live_replicas();
  std::set<NodeId> seen(out.begin(), out.end());
  for (const auto& cs : classes_) {
    NodeId other = cs.master;
    if (other != m && other != net::kNoNode && net_.alive(other) &&
        seen.insert(other).second)
      out.push_back(other);
  }
  // A node mid-promotion for another class is in neither list (it left
  // the rotation, and is not that class's master yet), but it is about to
  // be a master and a replica of m's tables: dropping it now would lose
  // every write-set m commits until the promotion completes.
  for (const auto& [tok, pw] : promote_waits_)
    if (pw.target != m && pw.target != net::kNoNode &&
        net_.alive(pw.target) && seen.insert(pw.target).second)
      out.push_back(pw.target);
  return out;
}

bool Scheduler::any_master(NodeId n) const {
  for (const auto& cs : classes_)
    if (cs.master == n) return true;
  return false;
}

size_t Scheduler::class_of(const api::ProcInfo& proc) const {
  if (classes_.size() == 1) return 0;
  for (size_t c = 0; c < classes_.size(); ++c) {
    bool all = true;
    for (storage::TableId t : proc.tables)
      if (!classes_[c].tables.count(t)) {
        all = false;
        break;
      }
    if (all) return c;
  }
  // Unreachable for registries that passed start()'s validation; a proc
  // registered after start (or a registry swapped under us) could still
  // land here — fail loudly rather than misroute to class 0.
  DMV_ASSERT_MSG(false,
                 "update proc spans conflict classes (tables fit no "
                 "single class); routing would be undefined");
  return 0;  // not reached
}

void Scheduler::merge_versions(const VersionVec& v) {
  // Single write path for version knowledge: the read tag version_ and the
  // owning class's vector advance together, so the invariant
  // version_ == merge over classes of class vectors holds at every step.
  const size_t n = std::min(v.size(), version_.size());
  for (size_t t = 0; t < n; ++t) {
    if (v[t] <= version_[t]) continue;
    version_[t] = v[t];
    const size_t c = t < class_of_table_.size() ? class_of_table_[t]
                                                : size_t(-1);
    if (c < classes_.size()) classes_[c].version[t] = v[t];
  }
}

void Scheduler::answer_join(NodeId joiner) {
  // Support selection skips slaves that are themselves mid-join (or
  // draining out): a joiner seeded from a peer that hasn't caught up yet
  // would install stale pages and adopt a target the support can't serve.
  NodeId support = net::kNoNode;
  for (NodeId s : slaves_)
    if (net_.alive(s) && !joining_.count(s) && !retiring_.count(s)) {
      support = s;
      break;
    }
  if (support == net::kNoNode)
    for (const auto& cs : classes_)
      if (cs.master != net::kNoNode && net_.alive(cs.master)) {
        support = cs.master;
        break;
      }
  JoinInfo info;
  for (const auto& cs : classes_) info.masters.push_back(cs.master);
  info.support = support;
  net_.send(id_, joiner, std::move(info), 64);
  joining_.insert(joiner);
  if (bug_ == check::PlantedBug::RouteToJoiner &&
      std::find(slaves_.begin(), slaves_.end(), joiner) == slaves_.end()) {
    slaves_.push_back(joiner);
    pump_held_reads();
  }
}

void Scheduler::answer_or_park_join(NodeId joiner) {
  // §4.4: point the joiner at the masters and a support slave. During
  // master recovery, park the joiner until the new master is known.
  if (recovering()) {
    held_joins_.push_back(joiner);
    return;
  }
  // A joiner we still list in the topology is a restarted incarnation
  // whose death we haven't processed yet — answering now could name the
  // joiner as its own master or support. Reject; by the time its backoff
  // expires the obituary has arrived and the lists are clean.
  if (any_master(joiner) ||
      std::find(slaves_.begin(), slaves_.end(), joiner) != slaves_.end() ||
      std::find(spares_.begin(), spares_.end(), joiner) != spares_.end()) {
    net_.send(id_, joiner, JoinInfo{}, 64);
    return;
  }
  bool masters_ok = true;
  for (const auto& cs : classes_)
    if (cs.master == net::kNoNode || !net_.alive(cs.master))
      masters_ok = false;
  if (!masters_ok) {
    // No coherent master set and no recovery running that would restore
    // one: reject (empty JoinInfo) so the joiner backs off and retries
    // instead of parking forever.
    net_.send(id_, joiner, JoinInfo{}, 64);
    return;
  }
  answer_join(joiner);
}

void Scheduler::answer_held_joins() {
  auto held = std::move(held_joins_);
  held_joins_.clear();
  for (NodeId j : held)
    if (net_.alive(j)) answer_or_park_join(j);
}

sim::Task<> Scheduler::main_loop() {
  auto alive = alive_;
  auto& mailbox = net_.mailbox(id_);
  for (;;) {
    auto env = co_await mailbox.receive();
    if (!env || !*alive) break;

    const NodeId from = env->from;
    std::visit(net::Overloaded{
      [&](ClientRequest& req) { handle_client(std::move(req)); },
      [&](const TxnDone& done) { handle_txn_done(from, done); },
      [&](const VersionGossip& g) { merge_versions(g.version); },
      [&](const TopologyGossip& tg) {
        if (tg.masters.size() == classes_.size())
          for (size_t c = 0; c < classes_.size(); ++c)
            classes_[c].master = tg.masters[c];
        slaves_ = tg.slaves;
        spares_ = tg.spares;
        // Gossip sent before a retirement began must not reinstate the
        // retiree into this scheduler's routing lists mid-drain.
        for (NodeId r : retiring_) {
          erase_value(slaves_, r);
          erase_value(spares_, r);
        }
        // Likewise a node mid-§4.4 join: a peer with an older view may still
        // list it as a slave or spare. Adopting the entry would route reads
        // to a stale replica — and a listed joiner wedges forever, because
        // answer_or_park_join treats any joiner already in the topology as a
        // not-yet-buried prior incarnation and rejects its retries.
        for (NodeId j : joining_) {
          erase_value(slaves_, j);
          erase_value(spares_, j);
        }
      },
      [&](const DiscardAck& ack) {
        // The token routes the ack to its recovery's wait.
        auto it = discard_waits_.find(ack.token);
        if (it != discard_waits_.end() && it->second.pending.erase(from)) {
          it->second.received[from] = ack.received;
          it->second.wq.notify_all();
        }
      },
      [&](const PromoteDone& pd) {
        for (auto& [tok, w] : promote_waits_)
          if (w.target == from && !w.reply) {
            w.reply = pd;
            w.wq.notify_all();
            break;
          }
      },
      [&](const AbortAllReply& ar) {
        merge_versions(ar.version);
        if (takeover_wait_ && takeover_wait_->pending.erase(from))
          takeover_wait_->wq.notify_all();
      },
      [&](const JoinRequest& jr) { answer_or_park_join(jr.joiner); },
      [&](const JoinComplete& jc) {
        ++stats_.joins_completed;
        joining_.erase(jc.joiner);
        erase_value(slaves_, jc.joiner);
        erase_value(spares_, jc.joiner);
        // A fresh incarnation joins with nothing outstanding and no tag;
        // pre-crash routing state must not skew reads against it.
        outstanding_per_node_.erase(jc.joiner);
        last_tag_.erase(jc.joiner);
        slaves_.push_back(jc.joiner);
        broadcast_replica_sets();
        gossip_topology();
        pump_held_reads();
      },
      [](const auto&) {},  // engine- and client-bound messages
    }, env->msg);
  }
}

void Scheduler::handle_client(ClientRequest req) {
  const api::ProcInfo& proc = procs_.find(req.proc);
  Outstanding out;
  out.client = std::move(req);
  out.read_only = proc.read_only;
  if (proc.read_only)
    route_read(std::move(out));
  else
    route_update(std::move(out));
}

void Scheduler::begin_req_span(Outstanding& out, const char* name) {
  if (out.span != 0) return;
  if (obs::Tracer* t = obs::tracer()) {
    out.span = t->begin(name, obs::Cat::Scheduler, id_);
    t->attr(out.span, "proc", out.client.proc);
  }
}

void Scheduler::end_req_span(Outstanding& out, const char* status) {
  if (out.span == 0) return;
  // Use the installed tracer even if disabled mid-run, so spans opened
  // while enabled are still closed.
  if (obs::Tracer* t = obs::installed_tracer()) {
    if (status) t->attr(out.span, "status", status);
    t->end(out.span);
  }
  out.span = 0;
}

void Scheduler::route_update(Outstanding out) {
  begin_req_span(out, "sched.update");
  const api::ProcInfo& proc = procs_.find(out.client.proc);
  size_t cls = class_of(proc);
  // Misroute every other update: consistently sending a class to the
  // wrong master is just a swapped (still single-writer) assignment, but
  // alternating makes the home master and the wrong master stamp the
  // same table's version stream concurrently.
  if (bug_ == check::PlantedBug::WrongClassRoute && classes_.size() > 1 &&
      (misroute_flip_++ & 1))
    cls = (cls + 1) % classes_.size();
  ClassState& cs = classes_[cls];
  if (cs.recovering) {
    // The span cannot follow the bare ClientRequest into the hold queue; a
    // fresh one opens when the request is re-routed after recovery.
    end_req_span(out, "parked_for_recovery");
    cs.held_updates.push_back(std::move(out.client));
    return;
  }
  const NodeId master = cs.master;
  if (master == net::kNoNode || !net_.alive(master)) {
    end_req_span(out, "no_master");
    reply_client(out.client, false, {});
    return;
  }
  const uint64_t rid = next_req_++;
  ExecTxn m;
  m.req_id = rid;
  m.reply_to = id_;
  m.proc = out.client.proc;
  m.params = out.client.params;
  m.read_only = false;
  m.origin = out.client.reply_to;
  m.origin_req = out.client.req_id;
  out.node = master;
  out.cls = cls;
  ++outstanding_per_node_[master];
  ++stats_.updates_routed;
  ++cs.updates_routed;
  outstanding_[rid] = std::move(out);
  net_.send(id_, master, std::move(m), 512);
}

NodeId Scheduler::pick_read_replica() {
  // Optional diversion to a spare backup (cache warm-up policy).
  if (cfg_.spare_read_fraction > 0 && !spares_.empty() &&
      rng_.chance(cfg_.spare_read_fraction)) {
    for (NodeId s : spares_)
      if (net_.alive(s) && outstanding_per_node_[s] <
                               cfg_.max_reads_inflight_per_node) {
        ++stats_.spare_reads;
        return s;
      }
  }
  // Version-aware selection (§2.2): a slave is *eligible* if sending this
  // tag there cannot conflict with readers at another version — it is
  // idle, has never been tagged, or its last tag equals the current
  // vector. Balance by load within the eligible set; if none is eligible
  // (every slave busy at some other version), fall back to plain load
  // balancing and let the version-inconsistency abort path sort it out.
  NodeId best = net::kNoNode;
  uint64_t best_load = UINT64_MAX;
  NodeId fallback = net::kNoNode;
  uint64_t fallback_load = UINT64_MAX;
  bool any_live_slave = false;
  for (NodeId s : slaves_) {
    if (!net_.alive(s)) continue;
    any_live_slave = true;
    const uint64_t load = outstanding_per_node_[s];
    if (load >= cfg_.max_reads_inflight_per_node) continue;  // admission
    auto it = last_tag_.find(s);
    const bool eligible = load == 0 || it == last_tag_.end() ||
                          same_version(it->second, version_);
    if (eligible && load < best_load) {
      best = s;
      best_load = load;
    }
    if (load < fallback_load) {
      fallback = s;
      fallback_load = load;
    }
  }
  if (best == net::kNoNode) best = fallback;
  if (best == net::kNoNode && !any_live_slave) {
    // Last resort, gated on *liveness* rather than list emptiness (a slave
    // can be dead but not yet pruned from slaves_ — e.g. on a standby
    // scheduler that just took over): a master may serve reads for tables
    // outside its class (with a single class this reads at-latest on the
    // master), then a spare, both under the same admission limit. Saturated
    // live slaves do NOT divert to the master — those reads queue (§2.2).
    for (const auto& cs : classes_) {
      NodeId m = cs.master;
      if (m != net::kNoNode && net_.alive(m) &&
          outstanding_per_node_[m] < cfg_.max_reads_inflight_per_node)
        return m;
    }
    for (NodeId s : spares_)
      if (net_.alive(s) &&
          outstanding_per_node_[s] < cfg_.max_reads_inflight_per_node)
        return s;
  }
  return best;
}

bool Scheduler::try_dispatch_read(Outstanding& out) {
  const NodeId node = pick_read_replica();
  if (node == net::kNoNode) return false;
  if (out.span != 0)
    if (obs::Tracer* t = obs::installed_tracer())
      t->attr(out.span, "replica", std::to_string(node));
  const uint64_t rid = next_req_++;
  ExecTxn m;
  m.req_id = rid;
  m.reply_to = id_;
  m.proc = out.client.proc;
  m.params = out.client.params;
  m.read_only = true;
  m.tag = version_;
  if (sink_) sink_->read_tag(id_, m.tag);
  out.node = node;
  last_tag_[node] = version_;
  ++outstanding_per_node_[node];
  ++stats_.reads_routed;
  outstanding_[rid] = std::move(out);
  net_.send(id_, node, std::move(m), 512);
  return true;
}

bool Scheduler::reads_serviceable() const {
  for (NodeId s : slaves_)
    if (net_.alive(s)) return true;
  for (const auto& cs : classes_)
    if (cs.master != net::kNoNode && net_.alive(cs.master)) return true;
  for (NodeId s : spares_)
    if (net_.alive(s)) return true;
  // A recovery in flight may still promote a node back into service;
  // parked reads are re-pumped (or failed) when it finishes.
  return recovering();
}

void Scheduler::route_read(Outstanding out) {
  begin_req_span(out, "sched.read");
  if (try_dispatch_read(out)) return;
  // Consistent with pick_read_replica: park only if some serviceable node
  // exists (or may exist after recovery) — otherwise the read would sit in
  // held_reads_ forever.
  if (!reads_serviceable()) {
    end_req_span(out, "no_replica");
    reply_client(out.client, false, {});
    return;
  }
  held_reads_.push_back(std::move(out));  // wait for a slot (§2.2)
  obs::gauge("sched.held_reads", id_, double(held_reads_.size()));
}

void Scheduler::pump_held_reads() {
  const size_t before = held_reads_.size();
  while (!held_reads_.empty()) {
    if (!try_dispatch_read(held_reads_.front())) break;
    held_reads_.pop_front();
  }
  if (!held_reads_.empty() && !reads_serviceable()) {
    // The cluster lost its last serviceable node while these were parked.
    while (!held_reads_.empty()) {
      Outstanding out = std::move(held_reads_.front());
      held_reads_.pop_front();
      end_req_span(out, "no_replica");
      reply_client(out.client, false, {});
    }
  }
  if (held_reads_.size() != before)
    obs::gauge("sched.held_reads", id_, double(held_reads_.size()));
}

void Scheduler::handle_txn_done(NodeId from, const TxnDone& d) {
  auto it = outstanding_.find(d.req_id);
  if (it == outstanding_.end()) return;  // already failed over
  Outstanding out = std::move(it->second);
  outstanding_.erase(it);
  auto& cnt = outstanding_per_node_[from];
  if (cnt > 0) --cnt;
  pump_held_reads();

  if (d.ok) {
    if (!out.read_only) {
      if (bug_ != check::PlantedBug::SkipAckMerge)
        merge_versions(d.db_version);
      if (out.cls < classes_.size()) ++classes_[out.cls].commits;
      if (sink_) sink_->update_ack(id_, d.db_version);
      obs::count("sched.commits", id_);
      // §4.6: log the committed update's queries, ship to the on-disk
      // back-end asynchronously; §4.1: gossip the vector to peers. The
      // instant is a chaos protocol point (fault plans can kill this
      // scheduler between the log append and the client reply).
      if (persist_ && d.ops && !d.ops->empty()) {
        obs::instant("persist.append", obs::Cat::Replication, id_);
        persist_(d.ops, d.db_version);
      }
      for (NodeId p : peers_)
        if (net_.alive(p))
          net_.send(id_, p, VersionGossip{version_}, 128);
    } else if (sink_) {
      sink_->read_done(id_, from, out.client.proc, out.client.params,
                       d.read_tag, d.result);
    }
    end_req_span(out, nullptr);
    reply_client(out.client, true, d.result);
    return;
  }
  if (d.version_abort &&
      out.retries < cfg_.max_version_abort_retries) {
    // Retry with a fresh tag (and possibly another replica).
    ++stats_.version_abort_retries;
    ++out.retries;
    obs::count("sched.version_retries", id_);
    route_read(std::move(out));
    return;
  }
  end_req_span(out, "error");
  reply_client(out.client, false, {});
}

void Scheduler::reply_client(const ClientRequest& req, bool ok,
                             const api::TxnResult& result) {
  if (!ok) ++stats_.client_errors;
  net_.send(id_, req.reply_to, ClientReply{req.req_id, ok, result}, 256);
}

void Scheduler::fail_outstanding_on(NodeId node) {
  std::vector<uint64_t> dead;
  for (auto& [rid, out] : outstanding_)
    if (out.node == node) dead.push_back(rid);
  for (uint64_t rid : dead) {
    Outstanding out = std::move(outstanding_[rid]);
    outstanding_.erase(rid);
    // §4.3: abort, error to the client/application server.
    end_req_span(out, "node_failed");
    reply_client(out.client, false, {});
  }
  // Drop the node's routing state entirely, not just the load count: a
  // stale last_tag_ would make pick_read_replica deem the node's next
  // incarnation ineligible until the version vector happened to match.
  outstanding_per_node_.erase(node);
  last_tag_.erase(node);
}

void Scheduler::broadcast_replica_sets() {
  // Voters are the election candidate pool (live slaves + spares): only
  // their acks may satisfy a write quorum, because only they can be
  // promoted by a fail-over. Retiring nodes stay in the replica sets (they
  // keep receiving the stream so their held reads can drain) but are NOT
  // voters: fail-over never elects a retiree, so a commit quorum-acked
  // only by one could be lost when it is killed at drain end.
  const std::vector<NodeId> voters = voter_pool();
  std::set<NodeId> sent;  // one node may master several classes
  for (const auto& cs : classes_) {
    NodeId m = cs.master;
    if (m == net::kNoNode || !net_.alive(m) || !sent.insert(m).second)
      continue;
    net_.send(id_, m, ReplicaSetUpdate{replicas_for_master(m), voters}, 128);
  }
}

void Scheduler::prune_waits_for(NodeId n) {
  for (auto& [tok, w] : discard_waits_)
    if (w.pending.erase(n)) w.wq.notify_all();
  for (auto& [tok, w] : promote_waits_)
    if (w.target == n) {
      w.target = net::kNoNode;
      w.wq.notify_all();
    }
  if (takeover_wait_ && takeover_wait_->pending.erase(n))
    takeover_wait_->wq.notify_all();
}

void Scheduler::on_node_killed(NodeId n) {
  if (!alive_ || !*alive_) return;
  // Standby schedulers track membership; the primary also orchestrates.
  const bool was_master = any_master(n);
  const bool was_slave =
      std::find(slaves_.begin(), slaves_.end(), n) != slaves_.end();
  const bool was_spare =
      std::find(spares_.begin(), spares_.end(), n) != spares_.end();
  // Membership bookkeeping runs on EVERY scheduler, standby included. A
  // standby that keeps a dead slave listed inherits it on takeover; if the
  // node restarted in between (alive again, state empty) the takeover
  // prune can't tell, so the new primary routes reads to a fresh replica
  // serving its initial load — and rejects the node's own rejoin with
  // "still in topology" forever, because the obituary that was supposed to
  // clean the list was consumed back when this scheduler was standing by.
  // Routing state for the dead node goes regardless of role (a joiner that
  // dies mid-join is in neither list but may carry a tag from before).
  outstanding_per_node_.erase(n);
  last_tag_.erase(n);
  joining_.erase(n);
  const bool was_retiring = retiring_.erase(n) != 0;
  if (was_slave || was_spare) {
    erase_value(slaves_, n);
    erase_value(spares_, n);
  }
  if (!is_primary_) {
    // A dead master is forgotten here too: if it restarts before this
    // standby takes over, the takeover's liveness check cannot tell the
    // fresh (empty) process from the master, and the class never recovers.
    for (ClassState& cs : classes_)
      if (cs.master == n) cs.master = net::kNoNode;
    // Peer scheduler death: the most senior live scheduler takes over.
    if (std::find(peers_.begin(), peers_.end(), n) != peers_.end()) {
      bool senior_live = false;
      for (NodeId p : peers_)
        if (p != n && p < id_ && net_.alive(p)) senior_live = true;
      if (!senior_live) net_.sim().spawn(takeover());
    }
    return;
  }
  // A recovery may be blocked on this node's reply; shrink the waits
  // first so no death during recovery can wedge it. A node that dies
  // while being promoted is in no list any more, but reads routed to it
  // before its election are still outstanding there.
  bool was_promoting = false;
  for (const auto& [tok, pw] : promote_waits_)
    was_promoting = was_promoting || pw.target == n;
  prune_waits_for(n);
  if (was_promoting) fail_outstanding_on(n);
  if (was_slave || was_spare || was_retiring) {
    fail_outstanding_on(n);
    // Unblock the masters' pending ack waits.
    broadcast_replica_sets();
    if (was_slave) integrate_spare();
    gossip_topology();
  }
  if (was_master) {
    // A node may master several classes (cross-class adoption); each
    // affected class recovers independently.
    for (size_t c = 0; c < classes_.size(); ++c)
      if (classes_[c].master == n) maybe_spawn_recovery(c);
  }
  if (was_slave || was_spare || was_retiring) pump_held_reads();
}

void Scheduler::maybe_spawn_recovery(size_t cls) {
  // The class is marked recovering at spawn time, not at coroutine start:
  // a takeover's sweep over dead masters, a death notice for the same
  // master and requests racing the first recovery event all observe it.
  ClassState& cs = classes_[cls];
  if (cs.recovering) return;
  cs.recovering = true;
  ++cs.recoveries;
  cs.recovery_start = net_.sim().now();
  net_.sim().spawn(recover_master(cls));
}

void Scheduler::integrate_spare() {
  // Up-to-date spare backup: already subscribed to the replication stream,
  // so integration is pure bookkeeping — it simply starts taking reads.
  // A spare that is mid-rejoin (restarted below the horizon, or added by
  // the elastic controller and still migrating) is NOT up to date: it must
  // finish the §4.4 protocol before it may take reads.
  for (auto it = spares_.begin(); it != spares_.end(); ++it) {
    if (net_.alive(*it) && !joining_.count(*it)) {
      obs::instant("spare.activated", obs::Cat::Warmup, *it);
      slaves_.push_back(*it);
      spares_.erase(it);
      stats_.spare_activated_at = net_.sim().now();
      return;
    }
  }
}

void Scheduler::retire_node(NodeId n) {
  if (!alive_ || !*alive_) return;
  if (retiring_.count(n)) return;
  const bool was_slave =
      std::find(slaves_.begin(), slaves_.end(), n) != slaves_.end();
  const bool was_spare =
      std::find(spares_.begin(), spares_.end(), n) != spares_.end();
  if (!was_slave && !was_spare) return;  // masters and unknowns don't retire
  erase_value(slaves_, n);
  erase_value(spares_, n);
  retiring_.insert(n);
  obs::instant("retire.drain", obs::Cat::Scheduler, n);
  if (is_primary_) {
    // Replica sets are unchanged (the retiree still receives every stream)
    // but the voter pool shrank; push it so new commits stop counting the
    // retiree toward their quorum.
    broadcast_replica_sets();
    gossip_topology();
  }
}

void Scheduler::add_peer(NodeId n) {
  if (std::find(peers_.begin(), peers_.end(), n) == peers_.end())
    peers_.push_back(n);
}

sim::Task<> Scheduler::recover_master(size_t cls) {
  auto alive = alive_;
  obs::SpanGuard recovery("failover.recovery", obs::Cat::Recovery, id_);
  recovery.attr("class", std::to_string(cls));
  ++stats_.recoveries;
  stats_.master_recovery_start = net_.sim().now();
  const NodeId dead_master = classes_[cls].master;
  if (dead_master != net::kNoNode) fail_outstanding_on(dead_master);
  classes_[cls].master = net::kNoNode;
  broadcast_replica_sets();  // surviving masters stop waiting on the dead

  // 1. Everyone discards write-sets of the failed class above the last
  //    version it acknowledged to us (§4.2). The confirmed baseline is the
  //    CLASS vector projected onto the class's tables (zero elsewhere):
  //    concurrent recoveries of other classes each clamp only the entries
  //    they own, so they compose. The wait is liveness-aware: a target
  //    dying before acking is pruned from the pending set
  //    (prune_waits_for), so recovery can never hang on a dead node's ack.
  VersionVec confirmed(version_.size(), 0);
  for (storage::TableId t : classes_[cls].tables)
    if (t < confirmed.size()) confirmed[t] = classes_[cls].version[t];
  std::vector<storage::TableId> cls_tables(classes_[cls].tables.begin(),
                                           classes_[cls].tables.end());
  if (sink_) sink_->discard(id_, confirmed, cls_tables);
  const uint64_t token = next_token_++;
  // std::map nodes never move: the reference outlives every suspension.
  AckWaitSet& dw =
      discard_waits_.try_emplace(token, net_.sim()).first->second;
  for (NodeId n : live_replicas()) dw.pending.insert(n);
  for (const auto& other : classes_)
    if (other.master != net::kNoNode && net_.alive(other.master))
      dw.pending.insert(other.master);
  for (NodeId n : dw.pending)
    net_.send(id_, n, DiscardAbove{confirmed, cls_tables, token}, 128);
  obs::SpanGuard discard("failover.discard", obs::Cat::Recovery, id_);
  while (!dw.pending.empty()) {
    const bool ok = co_await dw.wq.wait();
    if (!ok || !*alive) {
      discard_waits_.erase(token);
      co_return;
    }
  }
  std::map<NodeId, VersionVec> received = std::move(dw.received);
  discard_waits_.erase(token);
  discard.done();

  // 2. Elect and promote the most caught-up candidate: the live slave (or,
  //    failing that, spare) whose post-discard received vector is furthest
  //    along on the failed class's tables. Under quorum commit a client-
  //    acked write may live on only a quorum of replicas, so electing an
  //    arbitrary survivor could lose it; the quorum intersects the live
  //    candidates, so the max-received one holds every acked write. Ties
  //    keep the historical order (first live slave, spares last). If the
  //    candidate dies before completing promotion, elect another. When no
  //    slave or spare survives at all, a live other-class master ADOPTS the
  //    class: engine promotion is additive, so one node can master several
  //    classes, and the class stays available instead of going headless.
  const auto cls_score = [&](NodeId n) {
    auto it = received.find(n);
    if (it == received.end()) return uint64_t(0);
    // FIFO per-master streams make received vectors prefixes of one
    // another on this class's tables, so a per-table sum is a total order.
    uint64_t score = 0;
    for (storage::TableId t : cls_tables)
      if (t < it->second.size()) score += it->second[t];
    return score;
  };
  NodeId new_master = net::kNoNode;
  bool adopted = false;
  VersionVec promoted;
  for (;;) {
    new_master = net::kNoNode;
    adopted = false;
    uint64_t best = 0;
    for (NodeId s : slaves_)
      if (net_.alive(s) &&
          (new_master == net::kNoNode || cls_score(s) > best)) {
        new_master = s;
        best = cls_score(s);
      }
    for (NodeId s : spares_)
      if (net_.alive(s) &&
          (new_master == net::kNoNode || cls_score(s) > best)) {
        new_master = s;
        best = cls_score(s);
      }
    if (new_master == net::kNoNode) {
      // Cross-class adoption fallback. Other masters received the discard
      // too, so their post-discard vectors are in `received` and the
      // max-received argument still holds.
      for (const auto& other : classes_) {
        NodeId m = other.master;
        if (m == net::kNoNode || !net_.alive(m)) continue;
        if (new_master == net::kNoNode || cls_score(m) > best) {
          new_master = m;
          best = cls_score(m);
          adopted = true;
        }
      }
    }
    if (new_master == net::kNoNode) break;
    erase_value(slaves_, new_master);
    erase_value(spares_, new_master);

    PromoteToMaster pm;
    pm.reply_to = id_;
    pm.tables = cls_tables;
    pm.replicas = replicas_for_master(new_master);
    pm.voters = voter_pool();
    const uint64_t ptok = next_token_++;
    PromoteWait& pw =
        promote_waits_.try_emplace(ptok, net_.sim()).first->second;
    pw.target = new_master;
    obs::SpanGuard promote("failover.promote", obs::Cat::Recovery, id_);
    promote.attr("new_master", std::to_string(new_master));
    if (adopted) obs::instant("failover.adopt", obs::Cat::Recovery, id_);
    net_.send(id_, new_master, std::move(pm), 256);
    while (!pw.reply && pw.target != net::kNoNode) {
      const bool ok = co_await pw.wq.wait();
      if (!ok || !*alive) {
        promote_waits_.erase(ptok);
        co_return;
      }
    }
    std::optional<PromoteDone> done = std::move(pw.reply);
    promote_waits_.erase(ptok);
    // The candidate may die between sending PromoteDone and our resume;
    // a dead new master would leave the class headless forever.
    if (done && net_.alive(new_master)) {
      promote.done();
      merge_versions(done->version);
      promoted = std::move(done->version);
      break;
    }
    obs::instant("failover.reelect", obs::Cat::Recovery, id_);
  }

  if (new_master == net::kNoNode) {
    // Whole in-memory tier is gone; fail THIS class's queued updates (the
    // on-disk back-end still holds all committed data). Other classes'
    // queues are their own recoveries' business.
    ClassState& cs = classes_[cls];
    auto held = std::move(cs.held_updates);
    cs.held_updates.clear();
    for (auto& req : held) reply_client(req, false, {});
    cs.recovering = false;
    cs.recovery_end = net_.sim().now();
    if (!recovering()) answer_held_joins();  // rejected
    pump_held_reads();  // fails them: nothing serviceable remains
    co_return;
  }
  classes_[cls].master = new_master;

  // 3. Under quorum commit a survivor can sit below the promoted master on
  //    this class's tables: an acked write-set that reached only the
  //    quorum survives the discard, but no stream will ever ship it to the
  //    survivor, whose later write-sets would then apply over the gap. Run
  //    the §4.4 page transfer from the new master to each such survivor;
  //    it lands before the new master's first write-set (FIFO links), and
  //    reads above the gap wait for it — freshness degrades to latency,
  //    never to staleness.
  VersionVec target(version_.size(), 0);
  for (storage::TableId t : cls_tables) target[t] = promoted[t];
  for (const auto& [n, got] : received) {
    if (n == new_master || !net_.alive(n)) continue;
    bool behind = false;
    for (storage::TableId t : cls_tables)
      behind = behind || got[t] < target[t];
    if (behind)
      net_.send(id_, new_master, PageRequest{n, {}, target, cls_tables},
                2048);
  }

  // 4. The promoted node left the read rotation; backfill with a spare.
  //    An adopting master never was in the rotation, so nothing to refill.
  if (!adopted) integrate_spare();
  broadcast_replica_sets();
  gossip_topology();

  {
    ClassState& cs = classes_[cls];
    cs.recovering = false;
    cs.recovery_end = net_.sim().now();
    stats_.master_recovery_end = net_.sim().now();
    // Joiners wait for a fully coherent master set; updates do NOT — this
    // class's parked queue drains the moment ITS master is back, so one
    // class's fail-over never stalls another class's commits.
    if (!recovering()) answer_held_joins();
    auto held = std::move(cs.held_updates);
    cs.held_updates.clear();
    for (auto& req : held) {
      Outstanding out;
      out.client = std::move(req);
      out.read_only = false;
      route_update(std::move(out));
    }
  }
  pump_held_reads();
}

sim::Task<> Scheduler::takeover() {
  if (is_primary_) co_return;
  auto alive = alive_;
  is_primary_ = true;
  ++stats_.takeovers;
  obs::SpanGuard span("sched.takeover", obs::Cat::Recovery, id_);

  // Deaths observed while standing by were only used for peer seniority;
  // adopt a coherent view first. Pruning dead replicas and pushing the
  // updated replica sets *before* the abort-all wait matters: a master can
  // be wedged in pre-commit waiting for a dead replica's ack, and such a
  // master would never answer AbortAllRequest.
  for (NodeId s : std::vector<NodeId>(slaves_))
    if (!net_.alive(s)) {
      erase_value(slaves_, s);
      fail_outstanding_on(s);
    }
  for (NodeId s : std::vector<NodeId>(spares_))
    if (!net_.alive(s)) {
      erase_value(spares_, s);
      fail_outstanding_on(s);
    }
  broadcast_replica_sets();

  // §4.1: ask the masters to abort unconfirmed transactions and report the
  // authoritative version vector. Liveness-aware: a master that dies after
  // this liveness check but before replying is pruned from the pending set
  // by prune_waits_for, so the takeover cannot wedge on it. The pending
  // set dedupes a node that masters several classes.
  takeover_wait_.emplace(net_.sim());
  for (const auto& cs : classes_)
    if (cs.master != net::kNoNode && net_.alive(cs.master))
      takeover_wait_->pending.insert(cs.master);
  for (NodeId m : takeover_wait_->pending)
    net_.send(id_, m, AbortAllRequest{id_}, 64);
  while (!takeover_wait_->pending.empty()) {
    const bool ok = co_await takeover_wait_->wq.wait();
    if (!ok || !*alive) {
      takeover_wait_.reset();
      co_return;
    }
  }
  takeover_wait_.reset();
  span.done();

  // Classes whose master died while we were standing by (or during the
  // abort-all wait) never got a recovery from the dead primary: run it now.
  for (size_t c = 0; c < classes_.size(); ++c)
    if (classes_[c].master == net::kNoNode ||
        !net_.alive(classes_[c].master))
      maybe_spawn_recovery(c);
  if (slaves_.empty()) integrate_spare();
  gossip_topology();
  pump_held_reads();
}

void Scheduler::gossip_topology() {
  for (NodeId p : peers_)
    if (net_.alive(p))
      net_.send(id_, p, TopologyGossip{masters(), slaves_, spares_}, 256);
}

}  // namespace dmv::core
