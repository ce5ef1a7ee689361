#include "core/persistence_binding.hpp"

#include "obs/trace.hpp"

namespace dmv::core {
namespace {

// a strictly precedes b in version order: older on some shared table and
// newer on none. Records with no shared table are unordered (different
// conflict classes) and keep arrival order.
bool stamp_precedes(const std::vector<std::pair<storage::TableId, uint64_t>>& a,
                    const std::vector<std::pair<storage::TableId, uint64_t>>&
                        b) {
  bool before = false;
  for (const auto& [ta, sa] : a)
    for (const auto& [tb, sb] : b)
      if (ta == tb) {
        if (sa > sb) return false;
        if (sa < sb) before = true;
      }
  return before;
}

}  // namespace

PersistenceBinding::PersistenceBinding(sim::Simulation& sim, Config cfg,
                                       const disk::SchemaFn& schema,
                                       check::PlantedBug bug)
    : sim_(sim),
      cfg_(cfg),
      bug_(bug),
      schema_(schema),
      ck_wq_(sim),
      attach_wq_(sim) {
  for (int i = 0; i < cfg_.backends; ++i) {
    Backend b;
    b.engine = std::make_unique<disk::DiskEngine>(
        sim, "backend" + std::to_string(i), cfg_.engine);
    b.engine->build_schema(schema_);
    b.wake = std::make_unique<sim::WaitQueue>(sim);
    backends_.push_back(std::move(b));
  }
}

PersistenceBinding::~PersistenceBinding() { stop(); }

void PersistenceBinding::load(const storage::Database& image) {
  for (auto& b : backends_) b.engine->db() = image;
}

void PersistenceBinding::start() {
  DMV_ASSERT_MSG(!alive_, "binding already started");
  alive_ = std::make_shared<bool>(true);
  for (size_t i = 0; i < backends_.size(); ++i) {
    Backend& b = backends_[i];
    if (!b.live) continue;
    b.alive = std::make_shared<bool>(true);
    sim_.spawn(applier_loop(i, b.alive));
  }
  if (cfg_.checkpoint_period > 0) sim_.spawn(checkpoint_loop(alive_));
}

void PersistenceBinding::stop() {
  if (alive_) *alive_ = false;
  alive_.reset();
  for (auto& b : backends_) {
    if (b.alive) *b.alive = false;
    b.alive.reset();
    if (b.wake) b.wake->notify_all(false);
  }
  ck_wq_.notify_all(false);
  attach_wq_.notify_all(false);
}

void PersistenceBinding::log_update(const txn::OpLogPtr& ops,
                                    const std::vector<uint64_t>& db_version) {
  // The scheduler's persist_ hook can fire after stop() — a TxnDone still
  // draining through a scheduler mid-shutdown/fail-over. Drop it here
  // rather than feeding appliers whose frames are already unwinding.
  if (!alive_ || !*alive_ || !ops || ops->empty()) return;

  LogRec lr;
  lr.rec.ops = ops;
  for (const auto& op : *ops) {
    bool seen = false;
    for (const auto& [t, s] : lr.stamps)
      if (t == op.table) {
        seen = true;
        break;
      }
    if (!seen)
      lr.stamps.emplace_back(
          op.table,
          op.table < db_version.size() ? db_version[op.table] : 0);
  }

  // Duplicate re-log: after a scheduler fail-over, a client resubmission
  // re-acked via committed-mark dedup carries the original commit's ops
  // and version; if the dead scheduler already logged it, the stamp is
  // already present. (An equal stamp can also mean a write-then-revert
  // commit, whose post-images coincide with the current state — dropping
  // either is a no-op on the fold.)
  {
    const auto& [t0, s0] = lr.stamps.front();
    if (logged_stamps_.size() <= size_t(t0))
      logged_stamps_.resize(size_t(t0) + 1);
    if (!logged_stamps_[size_t(t0)].insert(s0).second) {
      obs::count("persist.dup_dropped", obs::kNoNode);
      return;
    }
  }
  for (const auto& [t, s] : lr.stamps) {
    if (logged_version_.size() <= size_t(t))
      logged_version_.resize(size_t(t) + 1, 0);
    logged_version_[t] = std::max(logged_version_[t], s);
  }

  // Version-ordered insert: a re-acked commit can be logged by a surviving
  // scheduler *after* later commits it precedes (its stamps are older on
  // every shared table). Replay order must match the version-stamp order
  // the rest of the system is checked against, so walk it back.
  lr.rec.seq = total_seq() + 1;  // advisory; engine watermarks are max-only
  size_t pos = log_.size();
  while (pos > 0 && stamp_precedes(lr.stamps, log_[pos - 1].stamps)) --pos;
  if (pos == log_.size()) {
    log_.push_back(std::move(lr));
  } else {
    log_.insert(log_.begin() + ptrdiff_t(pos), std::move(lr));
    ++insert_epoch_;
    const uint64_t abs = log_base_seq_ + pos;
    // Rewind any cursor already past the insertion point; the ordered
    // suffix replay from there re-converges (post-image idempotence).
    for (auto& b : backends_)
      if (b.applied_log_seq > abs) b.applied_log_seq = abs;
    obs::count("persist.reorders", obs::kNoNode);
  }

  for (auto& b : backends_)
    if (b.live) b.wake->notify_all();
  ck_wq_.notify_all();
  obs::count("persist.appends", obs::kNoNode);
  export_gauges();
}

void PersistenceBinding::truncate_to(uint64_t new_base) {
  new_base = std::min(new_base, total_seq());
  if (new_base <= log_base_seq_) return;
  const uint64_t n = new_base - log_base_seq_;
  log_.erase(log_.begin(), log_.begin() + ptrdiff_t(n));
  log_base_seq_ = new_base;
  obs::count("persist.truncated", obs::kNoNode, double(n));
}

void PersistenceBinding::export_gauges() const {
  obs::gauge("persist.log_depth", obs::kNoNode, double(log_.size()));
  obs::gauge("persist.horizon", obs::kNoNode, double(log_base_seq_));
  const uint64_t total = total_seq();
  for (size_t i = 0; i < backends_.size(); ++i)
    if (backends_[i].live)
      obs::gauge(
          "persist.backend_lag", uint32_t(i),
          double(total - std::min(total, backends_[i].applied_log_seq)));
}

bool PersistenceBinding::drained() const {
  const uint64_t total = total_seq();
  bool any = false;
  for (const auto& b : backends_) {
    if (!b.live) continue;
    any = true;
    if (b.attaching || b.applied_log_seq < total) return false;
  }
  return any;
}

void PersistenceBinding::kill_backend(size_t idx) {
  Backend& b = backends_[idx];
  if (!b.live) return;
  b.live = false;
  b.attaching = false;
  if (b.alive) *b.alive = false;
  b.alive.reset();
  b.wake->notify_all(false);
  obs::instant("persist.backend_kill", obs::Cat::Recovery, uint32_t(idx));
  obs::count("persist.backend_kills", uint32_t(idx));
}

void PersistenceBinding::restart_backend(size_t idx) {
  Backend& b = backends_[idx];
  if (b.live || !alive_ || !*alive_) return;
  b.live = true;
  b.alive = std::make_shared<bool>(true);
  sim_.spawn(applier_loop(idx, b.alive));
  // A returning backend is (or will become) a snapshot source; wake
  // re-attachers and the checkpoint loop.
  attach_wq_.notify_all();
  ck_wq_.notify_all();
  obs::instant("persist.backend_restart", obs::Cat::Recovery, uint32_t(idx));
  obs::count("persist.backend_restarts", uint32_t(idx));
}

bool PersistenceBinding::try_reattach(size_t idx) {
  int src = -1;
  for (size_t i = 0; i < backends_.size(); ++i) {
    if (i == idx) continue;
    const Backend& p = backends_[i];
    if (!p.live || p.attaching || p.applied_log_seq < log_base_seq_)
      continue;
    if (src < 0 || p.applied_log_seq > backends_[size_t(src)].applied_log_seq)
      src = int(i);
  }
  if (src < 0) return false;
  Backend& b = backends_[idx];
  auto eng = std::make_unique<disk::DiskEngine>(
      sim_, "backend" + std::to_string(idx), cfg_.engine);
  eng->build_schema(schema_);
  snapshot_loader(*backends_[size_t(src)].engine)(eng->db());
  // The replaced engine may hold a suspended apply from a killed
  // incarnation; park it instead of destroying it under that frame.
  retired_.push_back(std::move(b.engine));
  b.engine = std::move(eng);
  b.applied_log_seq = backends_[size_t(src)].applied_log_seq;
  b.checkpoint_seq = b.applied_log_seq;
  obs::count("persist.reattaches", uint32_t(idx));
  return true;
}

sim::Task<> PersistenceBinding::applier_loop(size_t idx,
                                             std::shared_ptr<bool> alive) {
  std::shared_ptr<bool> binding_alive = alive_;
  Backend& b = backends_[idx];
  for (;;) {
    if (!*alive || !*binding_alive) co_return;
    if (b.applied_log_seq < log_base_seq_) {
      // The log truncated past this backend's watermark: the missing
      // prefix is gone, so replaying the retained log would silently skip
      // it. Re-attach from a peer snapshot, then replay only the suffix.
      b.attaching = true;
      while (!try_reattach(idx)) {
        const bool ok = co_await attach_wq_.wait();
        if (!ok || !*alive || !*binding_alive) {
          b.attaching = false;
          co_return;
        }
      }
      b.attaching = false;
      attach_wq_.notify_all();  // now a valid source for other waiters
      ck_wq_.notify_all();
      continue;
    }
    if (b.applied_log_seq >= total_seq()) {
      const bool ok = co_await b.wake->wait();
      if (!ok || !*alive || !*binding_alive) co_return;
      continue;
    }
    const uint64_t pos = b.applied_log_seq;
    const uint64_t epoch = insert_epoch_;
    // Copy (it shares the op-log): a version-ordered insert can shift the
    // deque while the apply is suspended on disk I/O.
    const txn::TxnRecord rec = at(pos).rec;
    co_await b.engine->apply_record(rec);
    if (!*alive || !*binding_alive) co_return;
    // Advance only if nothing moved underneath the apply — no mid-log
    // insert and no cursor rewind. Otherwise re-derive from the cursor;
    // re-applying a record is safe (ordered post-image replay converges),
    // skipping one is not.
    if (b.applied_log_seq == pos && insert_epoch_ == epoch)
      b.applied_log_seq = pos + 1;
  }
}

sim::Task<> PersistenceBinding::checkpoint_loop(std::shared_ptr<bool> alive) {
  for (;;) {
    if (!*alive) co_return;
    bool has_target = false;
    for (const auto& b : backends_)
      if (b.live && !b.attaching) has_target = true;
    if (log_.empty() || !has_target) {
      // Idle (nothing to truncate, or nobody to checkpoint): park instead
      // of ticking forever — a perpetual timer would never let the event
      // queue quiesce.
      const bool ok = co_await ck_wq_.wait();
      if (!ok || !*alive) co_return;
      continue;
    }
    co_await sim_.delay(cfg_.checkpoint_period);
    if (!*alive) co_return;
    uint64_t horizon = UINT64_MAX;
    bool any = false;
    for (auto& b : backends_) {
      if (!b.live || b.attaching) continue;
      b.checkpoint_seq = b.applied_log_seq;
      horizon = std::min(horizon, b.checkpoint_seq);
      any = true;
    }
    // §4.6 truncation rule: the horizon tracks the slowest live attached
    // backend's checkpoint, so a dead backend stops pinning the log (it
    // will re-attach on restart) while live ones never lose their suffix.
    if (any) truncate_to(horizon);
    export_gauges();
  }
}

std::map<storage::TableId, PersistenceBinding::TableImage>
PersistenceBinding::bootstrap_image(size_t idx) const {
  DMV_ASSERT_MSG(backend_recoverable(idx),
                 "backend watermark predates the truncation horizon");
  const Backend& b = backends_[idx];
  std::map<storage::TableId, TableImage> img;
  const storage::Database& src = b.engine->db();
  for (storage::TableId t = 0; t < src.table_count(); ++t) {
    TableImage& ti = img[t];
    const storage::Table& tb = src.table(t);
    tb.primary_tree().scan_all([&](std::string_view, storage::RowId rid) {
      storage::Row row = tb.read_row(rid);
      ti[tb.primary_key_of(row)] = std::move(row);
      return true;
    });
  }
  if (bug_ == check::PlantedBug::SkipRecoverySuffix) return img;
  // In-order fold of the unapplied suffix. Post-images make this exact
  // even when the watermark points at a partially applied record: the
  // fold re-writes every key that record touches.
  for (uint64_t abs = b.applied_log_seq; abs < total_seq(); ++abs) {
    for (const auto& op : *at(abs).rec.ops) {
      TableImage& ti = img[op.table];
      if (op.kind == txn::OpRecord::Kind::Delete)
        ti.erase(op.pk);
      else
        ti[op.pk] = op.row;
    }
  }
  return img;
}

std::function<void(storage::Database&)> PersistenceBinding::snapshot_loader(
    const disk::DiskEngine& backend) {
  // Materialize the backend's rows (not raw pages: the new tier lays out
  // its own pages) into a reusable row image.
  auto rows = std::make_shared<
      std::vector<std::pair<storage::TableId, storage::Row>>>();
  const storage::Database& src = backend.db();
  for (storage::TableId t = 0; t < src.table_count(); ++t) {
    const storage::Table& tb = src.table(t);
    tb.primary_tree().scan_all([&](std::string_view, storage::RowId rid) {
      rows->emplace_back(t, tb.read_row(rid));
      return true;
    });
  }
  return [rows](storage::Database& db) {
    for (const auto& [t, row] : *rows) db.table(t).insert_row(row);
  };
}

}  // namespace dmv::core
