#include "disk/replicated_tier.hpp"

#include "obs/trace.hpp"

namespace dmv::disk {

using txn::TxnKind;

// Tier nodes live outside net::Network, so give them a disjoint pseudo-id
// range for trace spans.
static uint32_t tier_trace_node(size_t i) { return 1000 + uint32_t(i); }

ReplicatedDiskTier::ReplicatedDiskTier(sim::Simulation& sim, Config cfg,
                                       const SchemaFn& schema,
                                       const api::ProcRegistry& procs)
    : sim_(sim), cfg_(cfg), procs_(procs), applied_q_(sim) {
  const int total = cfg_.actives + cfg_.backups;
  for (int i = 0; i < total; ++i) {
    Node n;
    n.engine = std::make_unique<DiskEngine>(
        sim, "disk" + std::to_string(i), cfg_.engine);
    n.engine->set_trace_node(tier_trace_node(size_t(i)));
    obs::name_node(tier_trace_node(size_t(i)), n.engine->name());
    n.engine->build_schema(schema);
    n.active = i < cfg_.actives;
    n.feed = std::make_unique<sim::Channel<txn::TxnRecord>>(sim);
    nodes_.push_back(std::move(n));
  }
}

ReplicatedDiskTier::~ReplicatedDiskTier() { stop(); }

void ReplicatedDiskTier::load(const storage::Database& image) {
  for (auto& n : nodes_) n.engine->db() = image;
}

void ReplicatedDiskTier::start() {
  DMV_ASSERT_MSG(!alive_, "tier already started");
  alive_ = std::make_shared<bool>(true);
  // Peer actives (all but the sequencer, node 0) consume the tier log.
  for (size_t i = 1; i < nodes_.size(); ++i) sim_.spawn(applier_loop(i));
  sim_.spawn(backup_sync_loop());
}

void ReplicatedDiskTier::stop() {
  if (alive_) *alive_ = false;
  alive_.reset();
  for (auto& n : nodes_) n.feed->close();
}

size_t ReplicatedDiskTier::sequencer() const {
  for (size_t i = 0; i < nodes_.size(); ++i)
    if (nodes_[i].active && !nodes_[i].dead) return i;
  return SIZE_MAX;
}

size_t ReplicatedDiskTier::pick_read_node() {
  for (size_t k = 0; k < nodes_.size(); ++k) {
    const size_t i = (rr_ + k) % nodes_.size();
    if (nodes_[i].active && !nodes_[i].dead) {
      rr_ = i + 1;
      return i;
    }
  }
  return SIZE_MAX;
}

size_t ReplicatedDiskTier::active_count() const {
  size_t n = 0;
  for (const auto& node : nodes_)
    if (node.active && !node.dead) ++n;
  return n;
}

sim::Task<std::optional<api::TxnResult>> ReplicatedDiskTier::execute(
    std::string proc_name, api::Params params) {
  const api::ProcInfo& proc = procs_.find(proc_name);

  if (proc.read_only) {
    for (;;) {
      const size_t idx = pick_read_node();
      if (idx == SIZE_MAX) co_return std::nullopt;
      auto res =
          co_await run_proc_on_disk(*nodes_[idx].engine, proc, params);
      if (res) co_return res;
      // Node died mid-transaction; retry elsewhere.
    }
  }

  // Update path: execute on the sequencer, then feed the committed record
  // to the other actives (FIFO appliers keep them consistent).
  for (;;) {
    const size_t idx = sequencer();
    if (idx == SIZE_MAX) co_return std::nullopt;
    DiskEngine& eng = *nodes_[idx].engine;
    auto txn = eng.begin(TxnKind::Update);
    txn::EngineConnection conn(eng, *txn);
    try {
      api::TxnResult result = co_await proc.fn(conn, params);
      co_await eng.commit(*txn);
      if (!txn->op_log().empty()) {
        txn::TxnRecord rec;
        rec.seq = ++next_seq_;
        rec.ops = txn->op_log();
        log_.push_back(rec);
        nodes_[idx].applied_tier_seq = rec.seq;
        applied_q_.notify_all();  // wake a fail-over catch-up, if any
        // Eagerly feed the other *actives*; the backup is fed only by the
        // periodic sync (it is a stale spare).
        for (size_t i = 0; i < nodes_.size(); ++i)
          if (i != idx && nodes_[i].active && !nodes_[i].dead)
            nodes_[i].feed->send(rec);
      }
      co_return result;
    } catch (const txn::TxnAbort& e) {
      eng.rollback(*txn);
      if (e.reason == txn::TxnAbort::Reason::Cancelled) {
        if (nodes_[idx].dead) continue;  // sequencer died; fail over
        co_return std::nullopt;
      }
    }
    co_await sim_.delay(cfg_.engine.costs.deadlock_backoff);
  }
}

sim::Task<> ReplicatedDiskTier::applier_loop(size_t idx) {
  for (;;) {
    auto rec = co_await nodes_[idx].feed->receive();
    if (!rec) co_return;
    if (nodes_[idx].dead) co_return;
    co_await nodes_[idx].engine->apply_record(*rec);
    nodes_[idx].applied_tier_seq = rec->seq;
    applied_q_.notify_all();
  }
}

void ReplicatedDiskTier::ship_to(size_t idx, uint64_t from_seq) {
  for (const auto& rec : log_)
    if (rec.seq > from_seq) nodes_[idx].feed->send(rec);
}

sim::Task<> ReplicatedDiskTier::backup_sync_loop() {
  auto alive = alive_;
  while (*alive) {
    co_await sim_.delay(cfg_.backup_sync_period);
    if (!*alive) co_return;
    for (size_t i = 0; i < nodes_.size(); ++i) {
      if (nodes_[i].active || nodes_[i].dead) continue;
      ship_to(i, std::max(nodes_[i].applied_tier_seq, backup_shipped_seq_));
    }
    backup_shipped_seq_ = next_seq_;
  }
}

void ReplicatedDiskTier::kill_active(size_t idx) {
  DMV_ASSERT(idx < nodes_.size() && nodes_[idx].active);
  nodes_[idx].dead = true;
  nodes_[idx].engine->shutdown();
  nodes_[idx].feed->close();
  failover_.failed_at = sim_.now();
  obs::instant("tier.node_killed", obs::Cat::Recovery, tier_trace_node(idx));
  // Integrate the first live backup.
  for (size_t i = 0; i < nodes_.size(); ++i) {
    if (!nodes_[i].active && !nodes_[i].dead) {
      sim_.spawn(failover_task(i));
      return;
    }
  }
}

sim::Task<> ReplicatedDiskTier::failover_task(size_t backup_idx) {
  Node& b = nodes_[backup_idx];
  failover_.db_update_start = sim_.now();
  failover_.backlog_txns = size_t(next_seq_ - b.applied_tier_seq);
  obs::SpanGuard span("tier.db_update", obs::Cat::Recovery,
                      tier_trace_node(backup_idx));
  span.attr("backlog_txns", std::to_string(failover_.backlog_txns));
  // Ship the backlog; the applier replays it at disk speed. Updates that
  // commit while catch-up runs are shipped as they appear.
  ship_to(backup_idx, b.applied_tier_seq);
  uint64_t shipped = next_seq_;
  backup_shipped_seq_ = next_seq_;
  while (b.applied_tier_seq < next_seq_ && !b.dead) {
    const bool ok = co_await applied_q_.wait();
    if (!ok) co_return;
    if (next_seq_ > shipped) {
      ship_to(backup_idx, shipped);
      shipped = next_seq_;
      backup_shipped_seq_ = next_seq_;
    }
  }
  failover_.db_update_done = sim_.now();
  // Promoted: starts taking reads (cache warm-up happens under traffic)
  // and eager update feed.
  b.active = true;
}

}  // namespace dmv::disk
