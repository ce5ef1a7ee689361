#include "disk/engine.hpp"

#include "obs/trace.hpp"
#include "txn/write_set.hpp"

namespace dmv::disk {

using storage::Key;
using storage::PageId;
using storage::Row;
using storage::RowId;
using storage::TableId;
using txn::LockMode;
using txn::LockRc;
using txn::TxnCtx;
using txn::TxnKind;

DiskEngine::DiskEngine(sim::Simulation& sim, std::string name, Config cfg)
    : sim_(sim),
      name_(std::move(name)),
      cfg_(cfg),
      locks_(sim),
      disk_(sim, cfg.costs),
      pool_(disk_, cfg.buffer_frames),
      wal_(sim, disk_),
      cpu_(sim, cfg.cpus) {}

DiskEngine::~DiskEngine() { shutdown(); }

void DiskEngine::build_schema(const SchemaFn& fn) { fn(db_); }

std::unique_ptr<TxnCtx> DiskEngine::begin(TxnKind kind) {
  // Read-only transactions lock here too (serializable 2PL): they are
  // full TxnCtx::Update-style participants of the lock table, but we keep
  // the ReadOnly kind so undo capture is skipped.
  return std::make_unique<TxnCtx>(next_txn_++, kind);
}

sim::Task<> DiskEngine::lock_page(TxnCtx& txn, PageId pid, LockMode mode) {
  const LockRc rc = co_await locks_.acquire(txn, pid, mode);
  switch (rc) {
    case LockRc::Granted:
      co_return;
    case LockRc::Died:
      throw TxnAbort(TxnAbort::Reason::Deadlock);
    case LockRc::Cancelled:
      throw TxnAbort(TxnAbort::Reason::Cancelled);
  }
}

sim::Task<> DiskEngine::touch_page(PageId pid) {
  co_await pool_.fetch(pid);
}

sim::Task<std::optional<Row>> DiskEngine::get(TxnCtx& txn, TableId t,
                                              const Key& pk) {
  storage::Table& tb = db_.table(t);
  co_await cpu_.use(cfg_.costs.disk_cpu_per_query);

  std::optional<RowId> rid = tb.pk_find(pk);
  while (rid) {
    const PageId pid{t, rid->page};
    co_await lock_page(txn, pid, LockMode::Shared);
    const auto again = tb.pk_find(pk);
    if (again == rid) break;
    rid = again;
  }
  if (!rid) co_return std::nullopt;
  const PageId pid{t, rid->page};
  co_await touch_page(pid);
  co_await cpu_.use(cfg_.costs.row_read);
  co_return tb.read_row(*rid);
}

sim::Task<std::vector<Row>> DiskEngine::scan(TxnCtx& txn, TableId t,
                                             api::ScanSpec spec) {
  storage::Table& tb = db_.table(t);
  co_await cpu_.use(cfg_.costs.disk_cpu_per_query);

  std::vector<RowId> rids;
  const Key* lo = spec.lo ? &*spec.lo : nullptr;
  const Key* hi = spec.hi ? &*spec.hi : nullptr;
  const bool no_filter = !spec.filter;
  const auto collect = [&](const Key&, RowId r) {
    rids.push_back(r);
    return !(no_filter && rids.size() >= spec.limit);
  };
  if (spec.index < 0) {
    if (spec.reverse)
      tb.pk_scan_desc(lo, hi, collect);
    else
      tb.pk_scan(lo, hi, collect);
  } else {
    if (spec.reverse)
      tb.sec_scan_desc(size_t(spec.index), lo, hi, collect);
    else
      tb.sec_scan(size_t(spec.index), lo, hi, collect);
  }

  std::vector<Row> out;
  sim::Time cpu_cost = cfg_.costs.index_scan_entry * sim::Time(rids.size());
  for (const RowId& rid : rids) {
    if (out.size() >= spec.limit) break;
    const PageId pid{t, rid.page};
    co_await lock_page(txn, pid, LockMode::Shared);
    if (!tb.slot_occupied(rid)) continue;
    co_await touch_page(pid);
    cpu_cost += cfg_.costs.row_read;
    Row row = tb.read_row(rid);
    if (spec.filter && !spec.filter(row)) continue;
    out.push_back(std::move(row));
  }
  co_await cpu_.use(cpu_cost);
  co_return out;
}

sim::Task<bool> DiskEngine::insert(TxnCtx& txn, TableId t, const Row& row) {
  storage::Table& tb = db_.table(t);
  co_await cpu_.use(cfg_.costs.disk_cpu_per_query);

  RowId target = tb.peek_insert_slot();
  for (;;) {
    const PageId pid{t, target.page};
    co_await lock_page(txn, pid, LockMode::Exclusive);
    const RowId again = tb.peek_insert_slot();
    if (again.page == target.page) break;
    target = again;
  }
  tb.ensure_page(target.page);
  const PageId pid{t, target.page};
  txn.capture_undo(pid, tb.page(target.page));
  co_await touch_page(pid);

  const auto rid = tb.insert_row(row);
  if (!rid) co_return false;
  pool_.mark_dirty(pid);
  txn.op_log().push_back(txn::OpRecord{txn::OpRecord::Kind::Insert, t,
                                       tb.primary_key_of(row), row});
  co_await cpu_.use(cfg_.costs.row_write + cfg_.costs.index_update);
  co_return true;
}

sim::Task<bool> DiskEngine::update(
    TxnCtx& txn, TableId t, const Key& pk,
    const std::function<void(Row&)>& mutate) {
  storage::Table& tb = db_.table(t);
  co_await cpu_.use(cfg_.costs.disk_cpu_per_query);

  std::optional<RowId> rid = tb.pk_find(pk);
  while (rid) {
    const PageId pid{t, rid->page};
    co_await lock_page(txn, pid, LockMode::Exclusive);
    const auto again = tb.pk_find(pk);
    if (again == rid) break;
    rid = again;
  }
  if (!rid) co_return false;
  const PageId pid{t, rid->page};
  txn.capture_undo(pid, tb.page(rid->page));
  co_await touch_page(pid);

  Row row = tb.read_row(*rid);
  mutate(row);
  tb.update_row(*rid, row);
  pool_.mark_dirty(pid);
  txn.op_log().push_back(txn::OpRecord{txn::OpRecord::Kind::Update, t,
                                       tb.primary_key_of(row), row});
  co_await cpu_.use(cfg_.costs.row_read + cfg_.costs.row_write);
  co_return true;
}

sim::Task<bool> DiskEngine::remove(TxnCtx& txn, TableId t, const Key& pk) {
  storage::Table& tb = db_.table(t);
  co_await cpu_.use(cfg_.costs.disk_cpu_per_query);

  std::optional<RowId> rid = tb.pk_find(pk);
  while (rid) {
    const PageId pid{t, rid->page};
    co_await lock_page(txn, pid, LockMode::Exclusive);
    const auto again = tb.pk_find(pk);
    if (again == rid) break;
    rid = again;
  }
  if (!rid) co_return false;
  const PageId pid{t, rid->page};
  txn.capture_undo(pid, tb.page(rid->page));
  co_await touch_page(pid);

  tb.delete_row(*rid);
  pool_.mark_dirty(pid);
  txn.op_log().push_back(
      txn::OpRecord{txn::OpRecord::Kind::Delete, t, pk, {}});
  co_await cpu_.use(cfg_.costs.row_write + cfg_.costs.index_update);
  co_return true;
}

sim::Task<> DiskEngine::commit(TxnCtx& txn) {
  if (txn.kind() == TxnKind::ReadOnly || txn.op_log().empty()) {
    locks_.release_all(txn);
    ++stats_.read_commits;
    co_return;
  }
  txn::TxnRecord rec;
  rec.ops = txn.op_log();
  obs::SpanGuard span("disk.commit", obs::Cat::Disk, trace_node_, txn.id());
  wal_.append(rec.byte_size());
  co_await wal_.sync();  // durable before the commit is acknowledged
  span.done();
  obs::count("disk.commits", trace_node_);
  rec.seq = ++commit_seq_;
  binlog_.push_back(std::move(rec));
  locks_.release_all(txn);
  ++stats_.commits;
}

void DiskEngine::rollback(TxnCtx& txn) {
  for (const auto& [pid, before] : txn.before_images()) {
    storage::Table& tb = db_.table(pid.table);
    const auto runs = txn::diff_pages(tb.page(pid.page), before);
    if (runs.empty()) continue;
    txn::PageMod restore;
    restore.pid = pid;
    restore.runs = runs;
    const auto slots =
        restore.affected_slots(tb.schema().row_size(), tb.slots_per_page());
    for (uint16_t s : slots) tb.unindex_slot(pid.page, s);
    txn::apply_runs(tb.page(pid.page), runs);
    for (uint16_t s : slots) tb.index_slot(pid.page, s);
    tb.refresh_page_bookkeeping(pid.page);
  }
  locks_.release_all(txn);
}

std::vector<txn::TxnRecord> DiskEngine::records_after(uint64_t seq) const {
  std::vector<txn::TxnRecord> out;
  for (const auto& rec : binlog_)
    if (rec.seq > seq) out.push_back(rec);
  return out;
}

sim::Task<> DiskEngine::apply_record(const txn::TxnRecord& rec) {
  for (;;) {
    auto txn = begin(TxnKind::Update);
    try {
      for (const auto& op : rec.ops) {
        switch (op.kind) {
          case txn::OpRecord::Kind::Insert: {
            const bool ok = co_await insert(*txn, op.table, op.row);
            if (!ok) {
              // Row already there (idempotent re-apply): overwrite.
              co_await update(*txn, op.table, op.pk, [&](Row& r) {
                r = op.row;
              });
            }
            break;
          }
          case txn::OpRecord::Kind::Update: {
            const bool ok = co_await update(*txn, op.table, op.pk,
                                            [&](Row& r) { r = op.row; });
            if (!ok) co_await insert(*txn, op.table, op.row);
            break;
          }
          case txn::OpRecord::Kind::Delete:
            co_await remove(*txn, op.table, op.pk);
            break;
        }
      }
      co_await commit(*txn);
      applied_seq_ = std::max(applied_seq_, rec.seq);
      ++stats_.records_applied;
      co_return;
    } catch (const TxnAbort& e) {
      // co_await is not permitted inside a handler; flag and retry below.
      rollback(*txn);
      if (e.reason == TxnAbort::Reason::Cancelled) co_return;
    }
    co_await sim_.delay(cfg_.costs.deadlock_backoff);
  }
}

void DiskEngine::shutdown() {
  if (shutdown_) return;
  shutdown_ = true;
  locks_.shutdown();
}

sim::Task<std::optional<api::TxnResult>> run_proc_on_disk(
    DiskEngine& eng, const api::ProcInfo& proc, api::Params params) {
  for (;;) {
    auto txn =
        eng.begin(proc.read_only ? TxnKind::ReadOnly : TxnKind::Update);
    DiskConnection conn(eng, *txn);
    try {
      api::TxnResult result = co_await proc.fn(conn, params);
      co_await eng.commit(*txn);
      co_return result;
    } catch (const TxnAbort& e) {
      eng.rollback(*txn);
      if (e.reason == TxnAbort::Reason::Cancelled) co_return std::nullopt;
    }
    co_await eng.sim().delay(eng.costs().deadlock_backoff);
  }
}

}  // namespace dmv::disk
