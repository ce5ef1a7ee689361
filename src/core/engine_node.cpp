#include "core/engine_node.hpp"

#include <algorithm>
#include <utility>

#include "core/version.hpp"
#include "obs/trace.hpp"

namespace dmv::core {

using check::PlantedBug;
using mem::MemEngine;
using txn::TxnAbort;

namespace {

constexpr int kMaxJoinAttempts = 8;
constexpr sim::Time kJoinRetryBackoff = 250 * sim::kMsec;
constexpr size_t kHintPageLimit = 4096;  // page ids per PageIdHint
constexpr uint64_t kHintEveryTxns = 100;  // transactions between hints
constexpr size_t kMigrationChunkPages = 64;  // pages per PageChunk message

void erase_value(std::vector<net::NodeId>& v, net::NodeId n) {
  v.erase(std::remove(v.begin(), v.end(), n), v.end());
}

}  // namespace

EngineNode::EngineNode(net::Network& net, NodeId id,
                       const api::ProcRegistry& procs,
                       const mem::SchemaFn& schema,
                       const mem::MemEngine::Config& engine, Config cfg,
                       mem::StableStore* store, check::PlantedBug bug,
                       check::Sink* sink)
    : net_(net),
      id_(id),
      procs_(procs),
      cfg_(cfg),
      bug_(bug),
      sink_(sink),
      store_(store) {
  engine_ =
      std::make_unique<MemEngine>(net.sim(), net.name(id), engine, bug);
  engine_->set_trace_node(id_);
  engine_->build_schema(schema);
  engine_->set_broadcast_fn(
      [this](const txn::WriteSetPtr& ws) { broadcast_write_set(ws); });
  precommit_drain_ = std::make_unique<sim::WaitQueue>(net.sim());
  sub_replies_ = std::make_unique<sim::Channel<SubscribeReply>>(net.sim());
  join_infos_ = std::make_unique<sim::Channel<JoinInfo>>(net.sim());
  page_chunks_ = std::make_unique<sim::Channel<PageChunk>>(net.sim());
}

EngineNode::~EngineNode() { on_killed(); }

void EngineNode::make_master(std::set<storage::TableId> tables,
                             std::vector<NodeId> replicas,
                             std::vector<NodeId> voters) {
  engine_->set_master_tables(std::move(tables));
  replicas_ = std::move(replicas);
  voters_ = voters.empty() ? replicas_ : std::move(voters);
}

void EngineNode::start(bool restore_from_store) {
  DMV_ASSERT_MSG(!alive_, "node already started");
  alive_ = std::make_shared<bool>(true);
  if (restore_from_store && store_)
    mem::restore_from_checkpoint(*engine_, *store_);
  net_.sim().spawn(main_loop());
  if (cfg_.eager_apply)
    for (storage::TableId t = 0; t < engine_->db().table_count(); ++t)
      net_.sim().spawn(eager_drainer(t, alive_));
  if (cfg_.checkpoint_period > 0 && store_) {
    checkpointer_ = std::make_unique<mem::Checkpointer>(
        net_.sim(), *engine_, *store_, cfg_.checkpoint_period);
    checkpointer_->start(alive_);
  }
}

void EngineNode::on_killed() {
  if (!alive_) return;
  *alive_ = false;
  alive_.reset();
  engine_->shutdown();
  for (auto& [seq, w] : ack_waits_) {
    w->cancelled = true;
    w->done.notify_all(false);
  }
  ack_waits_.clear();
  for (auto& [origin, acked] : awaiting_ack_) acked->notify_all(false);
  awaiting_ack_.clear();
  outbox_.clear();
  cum_acks_.clear();
  precommit_drain_->notify_all(false);
  sub_replies_->close();
  join_infos_->close();
  page_chunks_->close();
}

void EngineNode::begin_rejoin(NodeId scheduler, std::vector<NodeId> peers) {
  join_schedulers_.clear();
  join_schedulers_.push_back(scheduler);
  for (NodeId p : peers)
    if (p != scheduler) join_schedulers_.push_back(p);
  join_attempts_ = 0;
  net_.sim().spawn(rejoin_protocol(scheduler));
}

void EngineNode::on_peer_killed(NodeId n) {
  if (!alive_ || !*alive_ || n == id_) return;
  erase_value(replicas_, n);
  erase_value(subscribers_, n);
  // Buffered write-sets for the dead replica go nowhere; its ack window
  // state is from a stream that no longer exists (a restarted incarnation
  // rejoins with fresh seqs and must not inherit the old prefix).
  outbox_.erase(n);
  cum_acks_.erase(n);
  erase_value(voters_, n);
  for (auto& [seq, w] : ack_waits_) ack_wait_dropped(*w, n);
  if (joining_ && join_peer_ == n) {
    // The protocol step in flight awaits a reply this peer will never
    // send. Close the reply channels: the join coroutine wakes with
    // nullopt and retries against a live scheduler.
    join_peer_ = net::kNoNode;
    sub_replies_->close();
    join_infos_->close();
    page_chunks_->close();
  }
}

void EngineNode::broadcast_write_set(const txn::WriteSetPtr& ws) {
  // A dead process broadcasts nothing — a commit that was suspended in
  // precommit when the node was killed resumes (simulation timers still
  // fire) but must not register an ack wait nobody will ever satisfy.
  if (!alive_ || !*alive_) return;
  std::shared_ptr<const CommittedUpdate> committed;
  if (auto it = origin_by_txn_.find(ws->txn_id); it != origin_by_txn_.end()) {
    it->second->db_version = ws->db_version;
    committed = it->second;
  }
  const uint64_t seq = ++next_bcast_seq_;
  last_bcast_seq_ = seq;
  std::set<NodeId> targets(replicas_.begin(), replicas_.end());
  targets.insert(subscribers_.begin(), subscribers_.end());
  if (targets.empty()) return;
  obs::count("ws.broadcasts", id_);
  const size_t ws_bytes = ws->byte_size();
  obs::count("ws.bytes", id_, double(ws_bytes * targets.size()));
  auto wait = std::make_unique<AckWait>(net_.sim());
  wait->pending = targets;
  if (cfg_.quorum_commit) {
    wait->quorum = true;
    const net::Topology& topo = net_.topology();
    for (NodeId v : voters_)
      if (targets.count(v)) {
        wait->voters.insert(v);
        // Same-region voters are the synchronous replicas: the quorum
        // must include every one of them, whatever its size.
        if (topo.region_of(v) == topo.region_of(id_))
          wait->sync_pending.insert(v);
      }
    // Quorum counted over the voters plus this master; the master's own
    // (implicit, immediate) vote means one fewer ack to wait for.
    const size_t total = wait->voters.size() + 1;
    const size_t quorum = cfg_.write_quorum > 0 ? size_t(cfg_.write_quorum)
                                                : total / 2 + 1;
    wait->need = std::min(quorum > 0 ? quorum - 1 : 0, wait->voters.size());
  }
  ack_waits_[seq] = std::move(wait);
  const AckWait& w = *ack_waits_[seq];
  WriteSetMsg msg;
  msg.master = id_;
  msg.seq = seq;
  msg.ws = ws;
  msg.committed = std::move(committed);
  const size_t bytes =
      ws_bytes + (msg.committed ? msg.committed->byte_size() : 0);
  for (NodeId r : targets) {
    // All-ack mode: every recipient's ack gates the client reply. Quorum
    // commit: only voters can complete the wait — everyone else is a lazy
    // catch-up stream whose acks should keep coalescing. The mutated node
    // replies to the client without waiting, so nothing it sends is
    // client-blocking: a real reply-before-quorum bug leaves the whole
    // pipeline on the lazy path, which is exactly the window the checker
    // must catch (acked commits stranded in a dying master's outbox).
    msg.ack_urgent = (!w.quorum || w.voters.count(r) > 0) &&
                     bug_ != PlantedBug::ReplyBeforeQuorum;
    enqueue_write_set(r, msg, bytes);
  }
}

void EngineNode::enqueue_write_set(NodeId to, const WriteSetMsg& msg,
                                   size_t bytes) {
  Outbox& ob = outbox_[to];
  ob.bytes += bytes;
  ob.has_urgent = ob.has_urgent || msg.ack_urgent;
  ob.items.push_back(msg);
  const bool window = cfg_.batch_max_writesets > 1 && cfg_.batch_delay > 0;
  // Nagle-style urgent path: a client-blocking write-set on an idle link
  // goes out now — making it sit out the batch window would tax every
  // commit by batch_delay for zero coalescing (nothing else is coming).
  // On a busy link it waits at most one ack round-trip (see the CumAckMsg
  // handler), which is when overlapping commits actually batch.
  const bool idle = ob.acked_seq >= ob.sent_seq;
  if (!window || ob.items.size() >= cfg_.batch_max_writesets ||
      (ob.has_urgent && idle)) {
    flush_outbox(to);
    return;
  }
  if (!ob.timer_armed) {
    ob.timer_armed = true;
    net_.sim().schedule_after(cfg_.batch_delay, [this, to, alive = alive_] {
      if (!*alive) return;
      auto it = outbox_.find(to);
      if (it == outbox_.end()) return;
      it->second.timer_armed = false;
      flush_outbox(to);
    });
  }
}

void EngineNode::flush_outbox(NodeId to) {
  auto it = outbox_.find(to);
  if (it == outbox_.end() || it->second.items.empty()) return;
  // The entry survives the flush: sent_seq/acked_seq track link idleness
  // across batches for the urgent fast path.
  Outbox& ob = it->second;
  std::vector<WriteSetMsg> items = std::move(ob.items);
  const size_t bytes = ob.bytes;
  ob.items.clear();
  ob.bytes = 0;
  ob.has_urgent = false;
  ob.sent_seq = std::max(ob.sent_seq, items.back().seq);
  if (items.size() == 1) {
    net_.send(id_, to, std::move(items[0]), bytes);
    return;
  }
  obs::count("repl.batches", id_);
  obs::count("repl.batched_writesets", id_, double(items.size()));
  WriteSetBatchMsg batch;
  batch.master = id_;
  batch.items = std::move(items);
  net_.send(id_, to, std::move(batch), bytes + 64);
}

void EngineNode::prune_outbox(const std::set<NodeId>& live) {
  for (auto it = outbox_.begin(); it != outbox_.end();)
    it = live.count(it->first) ? std::next(it) : outbox_.erase(it);
}

void EngineNode::apply_incoming_write_set(const WriteSetMsg& ws) {
  engine_->on_write_set(ws.ws);
  if (ws.committed) mark_of(ws.committed->origin) = ws.committed;
  note_received(ws.master, ws.seq);
}

void EngineNode::note_received(NodeId master, uint64_t seq) {
  CumAckState& st = cum_acks_[master];
  // A master we never saw die restarted its stream (seq resets): a stale
  // acked_seq above the new stream would silently cover seqs we lack.
  if (seq <= st.acked_seq) st.acked_seq = seq - 1;
  st.last_seq = seq;
  const bool window = cfg_.ack_every_n > 1 && cfg_.ack_delay > 0;
  if (!window || st.last_seq - st.acked_seq >= cfg_.ack_every_n) {
    flush_cum_ack(master);
    return;
  }
  if (!st.timer_armed) {
    st.timer_armed = true;
    net_.sim().schedule_after(cfg_.ack_delay,
                              [this, master, alive = alive_] {
                                if (!*alive) return;
                                auto it = cum_acks_.find(master);
                                if (it == cum_acks_.end()) return;
                                it->second.timer_armed = false;
                                flush_cum_ack(master);
                              });
  }
}

void EngineNode::flush_cum_ack(NodeId master) {
  auto it = cum_acks_.find(master);
  if (it == cum_acks_.end()) return;
  CumAckState& st = it->second;
  if (st.last_seq <= st.acked_seq) return;
  st.acked_seq = st.last_seq;
  obs::count("repl.cum_acks", id_);
  net_.send(id_, master, CumAckMsg{st.acked_seq}, 32);
}

void EngineNode::flush_all_cum_acks() {
  for (auto& [m, st] : cum_acks_) flush_cum_ack(m);
}

// Ablation (eager_apply): one persistent drainer per table, woken by the
// engine's arrival queues — replaces spawning table_count coroutines per
// incoming write-set. `alive` is bound at spawn: a node killed before the
// drainer first runs has already dropped alive_.
sim::Task<> EngineNode::eager_drainer(storage::TableId t,
                                      std::shared_ptr<bool> alive) {
  for (;;) {
    while (*alive && engine_->has_applicable(t))
      co_await engine_->apply_pending(t, engine_->received_version()[t]);
    if (!*alive) co_return;
    const bool ok = co_await engine_->wait_arrival(t);
    if (!ok || !*alive) co_return;
  }
}

void EngineNode::ack_wait_acked(AckWait& w, NodeId from) {
  if (!w.pending.erase(from)) return;
  if (w.voters.count(from)) ++w.votes;
  w.sync_pending.erase(from);
  if (w.satisfied()) w.done.notify_all();
}

void EngineNode::ack_wait_dropped(AckWait& w, NodeId from) {
  // A dead or removed replica never acks: it leaves the pending set (and
  // the synchronous set — a commit must not wait forever on a corpse)
  // without contributing a vote.
  const bool changed =
      w.pending.erase(from) > 0 || w.sync_pending.erase(from) > 0;
  if (changed && w.satisfied()) w.done.notify_all();
}

sim::Task<bool> EngineNode::wait_acks(uint64_t seq) {
  if (bug_ == PlantedBug::ReplyBeforeQuorum) {
    // Planted bug: skip the ack wait entirely — the client hears "committed"
    // while no replica is guaranteed to hold the write-set.
    ack_waits_.erase(seq);
    co_return true;
  }
  auto it = ack_waits_.find(seq);
  if (it == ack_waits_.end()) co_return true;  // no replicas / already done
  AckWait& w = *it->second;
  while (!w.satisfied() && !w.cancelled) {
    const bool ok = co_await w.done.wait();
    if (!ok) co_return false;
  }
  const bool ok = !w.cancelled;
  ack_waits_.erase(seq);
  co_return ok;
}

void EngineNode::on_replica_set(std::vector<NodeId> replicas,
                                std::vector<NodeId> voters) {
  replicas_ = std::move(replicas);
  voters_ = std::move(voters);
  // Graduate subscribers that made it into the official replica set.
  for (NodeId r : replicas_) erase_value(subscribers_, r);
  // Dead replicas will never ack: drop everyone outside the new set (plus
  // still-migrating subscribers, who keep acking) from every pending wait.
  std::set<NodeId> live(replicas_.begin(), replicas_.end());
  live.insert(subscribers_.begin(), subscribers_.end());
  prune_outbox(live);
  for (auto& [seq, w] : ack_waits_) {
    std::vector<NodeId> gone;
    for (NodeId n : w->pending)
      if (!live.count(n)) gone.push_back(n);
    for (NodeId n : gone) ack_wait_dropped(*w, n);
  }
}

EngineNode::CommittedMark& EngineNode::mark_of(NodeId client) {
  if (committed_.size() <= client) committed_.resize(size_t(client) + 1);
  return committed_[client];
}

void EngineNode::reply_txn_done(const ExecTxn& m, TxnDone done) {
  done.req_id = m.req_id;
  net_.send(id_, m.reply_to, std::move(done), 256);
}

sim::Task<> EngineNode::main_loop() {
  auto alive = alive_;
  auto& mailbox = net_.mailbox(id_);
  for (;;) {
    auto env = co_await mailbox.receive();
    if (!env || !*alive) break;

    const NodeId from = env->from;
    std::visit(net::Overloaded{
      [&](ExecTxn& exec) {
        net_.sim().spawn(handle_exec(std::move(exec)));
      },
      [&](const WriteSetMsg& ws) {
        apply_incoming_write_set(ws);
        // A client reply is blocked on this ack: don't let it sit out the
        // ack_delay window. One flush per network message, so the ack
        // economy of batching is preserved.
        if (ws.ack_urgent) flush_cum_ack(ws.master);
        obs::gauge("pending_mods", id_, double(engine_->pending_mod_count()));
      },
      [&](const WriteSetBatchMsg& batch) {
        // One FIFO message: items apply strictly in the order the master
        // produced them, so version order within the batch is preserved.
        bool urgent = false;
        if (bug_ == PlantedBug::BatchReverse) {
          for (auto it = batch.items.rbegin(); it != batch.items.rend();
               ++it) {
            apply_incoming_write_set(*it);
            urgent = urgent || it->ack_urgent;
          }
        } else {
          for (const auto& item : batch.items) {
            apply_incoming_write_set(item);
            urgent = urgent || item.ack_urgent;
          }
        }
        if (urgent) flush_cum_ack(batch.master);
        obs::gauge("pending_mods", id_, double(engine_->pending_mod_count()));
      },
      [&](const CumAckMsg& ca) {
        // Acks stand for prefixes: one cumulative ack completes this
        // replica's slot in every wait at or below the acked seq.
        const auto stop = ack_waits_.upper_bound(ca.seq);
        for (auto it = ack_waits_.begin(); it != stop; ++it)
          ack_wait_acked(*it->second, from);
        // Nagle urgent path, release side: the link just went idle — if a
        // client-blocking write-set coalesced behind the acked batch, send
        // it now instead of waiting out the batch_delay window.
        if (auto ob = outbox_.find(from); ob != outbox_.end()) {
          ob->second.acked_seq = std::max(ob->second.acked_seq, ca.seq);
          if (ob->second.has_urgent &&
              ob->second.acked_seq >= ob->second.sent_seq)
            flush_outbox(from);
        }
      },
      [&](const ReplicaSetUpdate& rs) {
        on_replica_set(rs.replicas, rs.voters);
      },
      [&](const DiscardAbove& da) {
        // A delayed cumulative ack must not outlive the discard: flush the
        // windows now so every ack in flight refers to a prefix we still
        // hold (the discard then clamps received state below it only for
        // the dead master's tables, whose stream died with it).
        flush_all_cum_acks();
        engine_->discard_mods_above(da.confirmed, da.tables);
        // Committed marks for discarded updates must go too: their clients
        // never got an ack, and a resubmission has to re-execute, not be
        // re-acked against state that no longer holds the update.
        const auto in_scope = [&](storage::TableId t) {
          return da.tables.empty() ||
                 std::find(da.tables.begin(), da.tables.end(), t) !=
                     da.tables.end();
        };
        for (CommittedMark& mark : committed_) {
          if (!mark) continue;
          const VersionVec& version = mark->db_version;
          for (size_t t = 0; t < version.size() && t < da.confirmed.size();
               ++t)
            if (in_scope(storage::TableId(t)) &&
                version[t] > da.confirmed[t]) {
              mark.reset();
              break;
            }
        }
        // The ack reports our post-discard received state so the recovering
        // scheduler can elect the most caught-up candidate (under quorum
        // commit, an acked write may live on only a quorum of replicas).
        VersionVec held(engine_->db().table_count());
        for (size_t t = 0; t < held.size(); ++t)
          held[t] = std::max(engine_->version()[t],
                             engine_->received_version()[t]);
        net_.send(id_, from, DiscardAck{da.token, std::move(held)}, 64);
      },
      [&](const AbortAllRequest& aa) {
        net_.sim().spawn(handle_abort_all(from, aa));
      },
      [&](const PromoteToMaster& pm) {
        net_.sim().spawn(handle_promote(from, pm));
      },
      [&](const SubscribeRequest& sub) {
        // Atomic with respect to broadcasts: add the subscriber, then report
        // the current version vector — every later write-set reaches it.
        // Deduplicated so a retried join can't double-subscribe.
        if (std::find(replicas_.begin(), replicas_.end(), sub.joiner) ==
                replicas_.end() &&
            std::find(subscribers_.begin(), subscribers_.end(), sub.joiner) ==
                subscribers_.end())
          subscribers_.push_back(sub.joiner);
        VersionVec v(engine_->db().table_count());
        for (size_t t = 0; t < v.size(); ++t)
          v[t] = std::max(engine_->version()[t],
                          engine_->received_version()[t]);
        net_.send(id_, sub.reply_to, SubscribeReply{std::move(v)}, 128);
      },
      [&](const SubscribeReply& sr) { sub_replies_->send(sr); },
      [&](const JoinInfo& ji) { join_infos_->send(ji); },
      [&](const PageRequest& pr) {
        net_.sim().spawn(serve_page_request(pr.reply_to, pr));
      },
      [&](const PageChunk& pc) {
        if (pc.catch_up.empty()) {
          page_chunks_->send(pc);
        } else {
          // Installed on arrival, in order: the link is FIFO, so every
          // chunk is in place before the promoted master's first write-set
          // to us can land.
          install_newer(pc.pages);
          if (pc.last) engine_->adopt_version(pc.catch_up);
        }
      },
      [&](const PageIdHint& hint) {
        for (const auto& pid : hint.pages) engine_->cache().prefetch(pid);
      },
      [](const auto&) {},  // scheduler- and client-bound messages
    }, env->msg);
  }
  on_killed();
}

sim::Task<> EngineNode::handle_exec(ExecTxn m) {
  if (m.read_only)
    co_await run_read(std::move(m));
  else
    co_await run_update(std::move(m));
}

sim::Task<> EngineNode::run_read(ExecTxn m) {
  const api::ProcInfo& proc = procs_.find(m.proc);
  auto txn = engine_->begin_read(m.tag);
  obs::SpanGuard span("slave.read", obs::Cat::Txn, id_, txn->id());
  txn::EngineConnection conn(*engine_, *txn);
  try {
    api::TxnResult result = co_await proc.fn(conn, m.params);
    engine_->finish_read(*txn);
    ++stats_.txns_executed;
    ++txns_since_hint_;
    maybe_send_hints();
    TxnDone done;
    done.ok = true;
    done.result = result;
    // The tag actually observed: master-served reads upgraded their
    // mastered entries in place (mem::MemEngine::ensure_table).
    done.read_tag = txn->read_version();
    reply_txn_done(m, std::move(done));
  } catch (const TxnAbort& e) {
    if (e.reason == TxnAbort::Reason::VersionConflict ||
        e.reason == TxnAbort::Reason::Deadlock) {
      // A deadlock death reaches read-only transactions only via the
      // master-read page latch; like a version conflict, the cure is a
      // retry with a fresh tag, so report it on the same path.
      span.attr("abort",
                e.reason == TxnAbort::Reason::Deadlock ? "latch" : "version");
      obs::count("aborts.version", id_);
      TxnDone done;
      done.ok = false;
      done.version_abort = true;
      reply_txn_done(m, std::move(done));
    }
    // Cancelled: node is going down; the scheduler sees the failure.
  }
}

sim::Task<> EngineNode::run_update(ExecTxn m) {
  const api::ProcInfo& proc = procs_.find(m.proc);
  // Refuse rather than execute if we don't master the proc's tables: a
  // scheduler with a stale view (a promotion it hasn't heard of, a fresh
  // incarnation it hasn't detected) gets a clean error instead of this
  // process asserting out from under the whole cluster.
  for (storage::TableId t : proc.tables) {
    if (!engine_->masters(t)) {
      if (bug_ == PlantedBug::WrongClassRoute) {
        // Planted bug: execute the misrouted update anyway, stamping versions
        // off this node's non-authoritative counter for t — the
        // two-masters-for-one-table bug the guard below rules out.
        engine_->mut_adopt_tables({t});
        continue;
      }
      obs::instant("master.refused", obs::Cat::Txn, id_);
      TxnDone done;
      done.ok = false;
      reply_txn_done(m, std::move(done));
      co_return;
    }
  }
  auto alive = alive_;
  // At-most-once: a resubmission of an update we already committed (the
  // client's ack died with its scheduler, and it retried via a standby) is
  // re-acked from the committed mark, never executed a second time. If the
  // original is still waiting for its acks, the mark is not stored yet:
  // wait for that ack first.
  if (m.origin != net::kNoNode) {
    auto p = awaiting_ack_.find({m.origin, m.origin_req});
    if (p != awaiting_ack_.end() && bug_ != PlantedBug::MarkAfterAck) {
      // The original stores the mark, then wakes us (or on_killed does).
      const std::shared_ptr<sim::WaitQueue> acked = p->second;
      const bool ok = co_await acked->wait();
      if (!ok || !*alive) co_return;
    }
    const CommittedMark& prior = mark_of(m.origin);
    if (prior && prior->origin_req == m.origin_req) {
      obs::instant("master.dedup", obs::Cat::Txn, id_);
      TxnDone done;
      done.ok = true;
      done.result = prior->result;
      done.db_version = prior->db_version;
      // The ops ride along so the scheduler's persistence hook sees the
      // commit even when the original ack (and its log append) died with
      // a failed-over scheduler; the log's stamp dedup drops re-logs.
      done.ops = prior->ops;
      reply_txn_done(m, std::move(done));
      co_return;
    }
  }
  obs::SpanGuard txn_span("master.commit", obs::Cat::Txn, id_);
  txn_span.attr("proc", m.proc);
  for (;;) {
    auto txn = engine_->begin_update();
    Inflight inf;
    inf.txn = txn.get();
    inflight_[m.req_id] = &inf;
    txn::EngineConnection conn(*engine_, *txn);
    try {
      obs::SpanGuard exec_span("master.exec", obs::Cat::Txn, id_, txn->id());
      api::TxnResult result = co_await proc.fn(conn, m.params);
      exec_span.done();
      // Every co_await may resume after this process has been killed
      // (simulation timers outlive the process). A dead node must stop
      // cold — above all it must not touch ack_waits_, which on_killed
      // already cancelled. Spans close via RAII; the inflight entry
      // points into this frame and must not dangle.
      if (!*alive) {
        inflight_.erase(m.req_id);
        co_return;
      }
      if (txn->poisoned()) throw TxnAbort(TxnAbort::Reason::Cancelled);
      inf.in_precommit = true;
      obs::SpanGuard pc_span("master.precommit", obs::Cat::Replication, id_,
                             txn->id());
      // The op-log is complete once the procedure has returned. It moves
      // out of the transaction once, and the mark, the history record and
      // the reply all share it.
      const txn::OpLogPtr ops =
          std::make_shared<const std::vector<txn::OpRecord>>(
              std::move(txn->op_log()));
      std::shared_ptr<CommittedUpdate> mark;
      if (m.origin != net::kNoNode) {
        mark = std::make_shared<CommittedUpdate>(
            CommittedUpdate{m.origin, m.origin_req, {}, result, ops});
        origin_by_txn_[txn->id()] = mark;
      }
      const txn::WriteSetPtr ws = co_await engine_->precommit(*txn);
      origin_by_txn_.erase(txn->id());
      pc_span.done();
      if (!*alive) {
        inflight_.erase(m.req_id);
        co_return;
      }
      // History recording: precommit resumed us synchronously after its
      // broadcast, so commits are reported in master commit (version)
      // order, and a node killed before the broadcast (alive check above)
      // reports nothing.
      if (sink_)
        sink_->update_commit(id_, m.origin, m.origin_req, *ops,
                             ws->db_version);
      // Locally committed: the write-set is sequenced on every replica
      // link and nothing can abort this transaction any more short of
      // this node dying (wait_acks only fails via on_killed). Release
      // the page locks NOW — holding them across the ack wait would
      // serialize hot pages for the whole coalescing window when the
      // batching/ack-delay knobs are on — and let the ack wait gate
      // only the client-visible reply.
      engine_->finish_commit(*txn);
      inflight_.erase(m.req_id);
      precommit_drain_->notify_all();
      // precommit resumes us synchronously after its broadcast, so
      // last_bcast_seq_ still refers to *our* write-set.
      const uint64_t my_seq = last_bcast_seq_;
      if (mark)
        awaiting_ack_.try_emplace({m.origin, m.origin_req},
                                  std::make_shared<sim::WaitQueue>(net_.sim()));
      obs::SpanGuard bc_span("master.broadcast", obs::Cat::Replication, id_,
                             txn->id());
      const bool acked = co_await wait_acks(my_seq);
      bc_span.done();
      // A false ack wait means this node was killed mid-wait; the reply
      // would be dropped by the network anyway. Locks are already gone
      // and the write-set already sequenced, so just stop (on_killed
      // released any resubmission waiting on this ack).
      if (!*alive || !acked) co_return;
      ++stats_.txns_executed;
      obs::count("master.commits", id_);
      if (mark) {
        mark_of(m.origin) = std::move(mark);
        if (auto waiting = awaiting_ack_.extract({m.origin, m.origin_req}))
          waiting.mapped()->notify_all();
      }
      TxnDone done;
      done.ok = true;
      done.result = std::move(result);
      done.db_version = ws->db_version;
      done.ops = ops;
      reply_txn_done(m, std::move(done));
      co_return;
    } catch (const TxnAbort& e) {
      origin_by_txn_.erase(txn->id());
      engine_->rollback(*txn);
      inflight_.erase(m.req_id);
      precommit_drain_->notify_all();
      if (e.reason == TxnAbort::Reason::Deadlock) {
        obs::count("aborts.deadlock", id_);
      } else {
        obs::count("aborts.poisoned", id_);
        txn_span.attr("abort", "poisoned");
        // Poisoned (scheduler-recovery abort, §4.1) or node going down.
        // Report the abort; if we are dying the message is dropped anyway,
        // but a poisoned transaction's client must not hang forever.
        TxnDone done;
        done.ok = false;
        reply_txn_done(m, std::move(done));
        co_return;
      }
    }
    // Deadlock victim: back off, then retry.
    co_await net_.sim().delay(engine_->costs().deadlock_backoff);
  }
}

sim::Task<> EngineNode::handle_abort_all(NodeId from, AbortAllRequest m) {
  (void)from;
  // Poison unconfirmed in-flight updates; let those already pre-committing
  // finish (their write-sets are ordered and acked).
  for (auto& [req, inf] : inflight_)
    if (!inf->in_precommit) inf->txn->poison();
  for (;;) {
    bool any_precommit = false;
    for (auto& [req, inf] : inflight_)
      if (inf->in_precommit) any_precommit = true;
    if (!any_precommit) break;
    const bool ok = co_await precommit_drain_->wait();
    if (!ok) co_return;
  }
  // Report versions only for tables this node masters — it is the sole
  // source of their sequence, and the drain above folded in every commit
  // that will be acked. For other classes' tables we hold at best
  // *received*, possibly-unconfirmed write-sets; reporting those would let
  // the new primary adopt a version the replicas may never receive (their
  // copy can die with the failed master) and tag reads that wait forever.
  VersionVec v(engine_->db().table_count());
  for (size_t t = 0; t < v.size(); ++t)
    if (engine_->masters(t)) v[t] = engine_->version()[t];
  net_.send(id_, m.reply_to, AbortAllReply{std::move(v)}, 128);
}

sim::Task<> EngineNode::handle_promote(NodeId from, PromoteToMaster m) {
  (void)from;
  obs::SpanGuard span("promote.apply", obs::Cat::Recovery, id_);
  std::set<storage::TableId> tables(m.tables.begin(), m.tables.end());
  co_await engine_->promote(tables);
  replicas_ = m.replicas;
  voters_ = m.voters;
  std::set<NodeId> live(replicas_.begin(), replicas_.end());
  live.insert(subscribers_.begin(), subscribers_.end());
  prune_outbox(live);
  VersionVec v(engine_->db().table_count());
  for (size_t t = 0; t < v.size(); ++t)
    v[t] =
        std::max(engine_->version()[t], engine_->received_version()[t]);
  net_.send(id_, m.reply_to, PromoteDone{std::move(v)}, 128);
}

sim::Task<> EngineNode::serve_page_request(NodeId to, PageRequest m) {
  // Bring ourselves to the target version first, then ship every page the
  // joiner lacks or holds at an older version (§4.4: "selectively
  // transmits only the pages that changed after the joining node's
  // version").
  obs::SpanGuard span("migration.serve", obs::Cat::Migration, id_);
  const bool ok = co_await engine_->wait_received(m.target);
  if (!ok) co_return;
  for (storage::TableId t = 0; t < engine_->db().table_count(); ++t)
    co_await engine_->apply_pending(t, m.target[t]);

  PageChunk chunk;
  auto flush = [&](bool last) {
    chunk.last = last;
    if (!m.tables.empty()) chunk.catch_up = m.target;
    const size_t bytes = chunk.pages.size() * storage::kPageSize + 64;
    net_.send(id_, to, std::move(chunk), bytes);
    chunk = PageChunk{};
  };
  uint64_t sent = 0;
  for (const auto& [pid, ver] : engine_->page_versions()) {
    if (!m.tables.empty() && std::find(m.tables.begin(), m.tables.end(),
                                       pid.table) == m.tables.end())
      continue;
    auto it = m.have.find(pid);
    const uint64_t have = it == m.have.end() ? 0 : it->second;
    if (ver <= have) continue;
    const storage::Database& db = std::as_const(*engine_).db();
    chunk.pages.push_back(mem::PageSnapshot{
        pid, ver, db.table(pid.table).page_handle(pid.page)});
    ++stats_.pages_served;
    ++sent;
    if (chunk.pages.size() >= kMigrationChunkPages) flush(false);
  }
  flush(true);
  span.attr("pages", std::to_string(sent));
  obs::count("migration.pages", id_, double(sent));
}

void EngineNode::join_failed(const std::shared_ptr<bool>& alive) {
  joining_ = false;
  join_peer_ = net::kNoNode;
  if (!alive || !*alive) return;  // the node itself died: no retry
  // Reply channels may have been closed by on_peer_killed; make them usable
  // for the next attempt.
  sub_replies_->reopen();
  join_infos_->reopen();
  page_chunks_->reopen();
  if (++join_attempts_ > kMaxJoinAttempts) {
    obs::instant("join.gave_up", obs::Cat::Recovery, id_);
    return;  // stay out of the rotation; operator intervention territory
  }
  obs::instant("join.retry", obs::Cat::Recovery, id_);
  const sim::Time backoff = kJoinRetryBackoff * join_attempts_;
  net_.sim().schedule_after(backoff, [this, alive] {
    if (!*alive || joining_) return;
    NodeId target = net::kNoNode;
    for (NodeId s : join_schedulers_)
      if (net_.alive(s)) {
        target = s;
        break;
      }
    if (target == net::kNoNode) return;  // no scheduler left to join via
    net_.sim().spawn(rejoin_protocol(target));
  });
}

sim::Task<> EngineNode::rejoin_protocol(NodeId scheduler) {
  auto alive = alive_;
  joining_ = true;
  obs::SpanGuard join_span("join", obs::Cat::Recovery, id_);
  if (stats_.join_started < 0) stats_.join_started = net_.sim().now();
  if (!net_.alive(scheduler)) {
    join_failed(alive);
    co_return;
  }
  join_peer_ = scheduler;
  net_.send(id_, scheduler, JoinRequest{id_}, 64);
  auto info = co_await join_infos_->receive();
  if (!info || !*alive) {
    join_failed(alive);
    co_return;
  }
  if (info->masters.empty() || info->support == net::kNoNode) {
    // Rejected: no coherent master set right now (e.g. the tier is mid
    // recovery with no survivors yet). Back off and retry.
    join_failed(alive);
    co_return;
  }

  // 1. Subscribe to every master's replication stream (§4.4: "subscribes
  //    to the replication list of the masters"); everything from here on
  //    queues in our pending-mod lists. The target vector is the
  //    elementwise max of what the masters report. Each step records the
  //    peer it awaits: if that peer dies, on_peer_killed wakes us to retry.
  obs::SpanGuard sub_span("join.subscribe", obs::Cat::Migration, id_);
  VersionVec target(engine_->db().table_count(), 0);
  for (NodeId m : info->masters) {
    if (m == net::kNoNode || !net_.alive(m)) {
      join_failed(alive);
      co_return;
    }
    join_peer_ = m;
    net_.send(id_, m, SubscribeRequest{id_, id_}, 64);
    auto sub = co_await sub_replies_->receive();
    if (!sub || !*alive) {
      join_failed(alive);
      co_return;
    }
    merge_max(target, sub->db_version);
  }
  sub_span.done();

  // 2. Ask the support slave for pages newer than our checkpointed ones.
  obs::SpanGuard pages_span("join.pages", obs::Cat::Migration, id_);
  uint64_t installed = 0;
  if (!net_.alive(info->support)) {
    join_failed(alive);
    co_return;
  }
  join_peer_ = info->support;
  net_.send(id_, info->support,
            PageRequest{id_, engine_->page_versions(), target, {}},
            2048);
  for (;;) {
    auto chunk = co_await page_chunks_->receive();
    if (!chunk || !*alive) {
      join_failed(alive);
      co_return;
    }
    installed += install_newer(chunk->pages);
    const sim::Time cost =
        engine_->costs().install_page * sim::Time(chunk->pages.size());
    if (cost > 0) co_await engine_->cpu().use(cost);
    if (chunk->last) break;
  }
  engine_->adopt_version(target);
  stats_.join_pages_done = net_.sim().now();
  pages_span.attr("installed", std::to_string(installed));
  pages_span.done();
  obs::count("migration.pages_installed", id_, double(installed));

  // 3. Report ready; the scheduler adds us to the read rotation. If the
  // scheduler that answered the join died meanwhile, report to a live
  // peer instead (it gossips the new topology to the others).
  joining_ = false;
  join_peer_ = net::kNoNode;
  NodeId report_to = scheduler;
  if (!net_.alive(report_to)) {
    report_to = net::kNoNode;
    for (NodeId s : join_schedulers_)
      if (net_.alive(s)) {
        report_to = s;
        break;
      }
  }
  if (report_to != net::kNoNode)
    net_.send(id_, report_to, JoinComplete{id_}, 64);
}

size_t EngineNode::install_newer(const std::vector<mem::PageSnapshot>& pages) {
  size_t installed = 0;
  for (const auto& snap : pages) {
    // Stale-guard: never downgrade a page we already hold at a newer
    // version. Pages created on the master while we were down don't exist
    // locally yet — treat them as version 0.
    auto& tb = engine_->db().table(snap.pid.table);
    const uint64_t have =
        snap.pid.page < tb.page_count() ? tb.meta(snap.pid.page).version : 0;
    if (snap.version > have) {
      engine_->install_page(snap.pid, *snap.image, snap.version);
      ++installed;
    }
  }
  return installed;
}

void EngineNode::maybe_send_hints() {
  if (cfg_.hint_target == net::kNoNode) return;
  if (txns_since_hint_ < kHintEveryTxns) return;
  txns_since_hint_ = 0;
  PageIdHint hint;
  hint.pages = engine_->cache().hot_pages(kHintPageLimit);
  if (hint.pages.empty()) return;
  ++stats_.hints_sent;
  const size_t bytes = hint.pages.size() * 12;
  net_.send(id_, cfg_.hint_target, std::move(hint), bytes);
}

}  // namespace dmv::core
