#include "disk/engine.hpp"

#include "obs/trace.hpp"

namespace dmv::disk {

using storage::Key;
using storage::PageId;
using storage::Row;
using storage::RowId;
using storage::TableId;
using txn::LockMode;
using txn::TxnAbort;
using txn::TxnCtx;
using txn::TxnKind;

constexpr int kCpus = 2;  // same dual-CPU nodes as the in-memory tier

DiskEngine::DiskEngine(sim::Simulation& sim, std::string name, Config cfg)
    : sim_(sim),
      name_(std::move(name)),
      cfg_(cfg),
      locks_(sim),
      disk_(sim, cfg.costs),
      pool_(disk_, cfg.buffer_frames),
      wal_(sim, disk_),
      cpu_(sim, kCpus) {}

DiskEngine::~DiskEngine() { shutdown(); }

void DiskEngine::build_schema(const SchemaFn& fn) { fn(db_); }

std::unique_ptr<TxnCtx> DiskEngine::begin(TxnKind kind) {
  // Read-only transactions lock here too (serializable 2PL): they are
  // full TxnCtx::Update-style participants of the lock table, but we keep
  // the ReadOnly kind so undo capture is skipped.
  return std::make_unique<TxnCtx>(next_txn_++, kind);
}

sim::Task<std::optional<Row>> DiskEngine::get(TxnCtx& txn, TableId t,
                                              const Key& pk) {
  storage::Table& tb = db_.table(t);
  co_await cpu_.use(cfg_.costs.disk_cpu_per_query);

  const std::optional<RowId> rid =
      co_await txn::lock_row(locks_, txn, tb, pk, LockMode::Shared);
  if (!rid) co_return std::nullopt;
  const PageId pid{t, rid->page};
  co_await pool_.fetch(pid);
  co_await cpu_.use(cfg_.costs.row_read);
  co_return tb.read_row(*rid);
}

sim::Task<storage::Rows> DiskEngine::scan(TxnCtx& txn, TableId t,
                                          api::ScanSpec spec) {
  storage::Table& tb = db_.table(t);
  co_await cpu_.use(cfg_.costs.disk_cpu_per_query);

  const txn::ScanHits hits = txn::collect_scan(tb, spec);
  storage::Rows out(tb.schema_ptr());
  sim::Time cpu_cost =
      cfg_.costs.index_scan_entry * sim::Time(hits.rids.size());
  for (size_t i = 0; i < hits.rids.size(); ++i) {
    if (out.size() >= spec.limit) break;
    const PageId pid{t, hits.rids[i].page};
    co_await txn::lock_page(locks_, txn, pid, LockMode::Shared);
    if (!txn::still_holds(tb, spec, hits, i)) continue;
    co_await pool_.fetch(pid);
    cpu_cost += cfg_.costs.row_read;
    const auto image = tb.row_image(hits.rids[i]);
    if (spec.filter && !spec.filter(storage::RowRef(tb.schema(), image.data())))
      continue;
    out.push_back(image);
  }
  co_await cpu_.use(cpu_cost);
  co_return out;
}

sim::Task<bool> DiskEngine::insert(TxnCtx& txn, TableId t, const Row& row) {
  storage::Table& tb = db_.table(t);
  co_await cpu_.use(cfg_.costs.disk_cpu_per_query);

  // Reading the page in suspends, and meanwhile a delete elsewhere may
  // free an earlier slot: peek again once the page is resident, and lock
  // and save the new slot if the insert would land elsewhere.
  RowId target = co_await txn::lock_insert_slot(locks_, txn, tb);
  co_await pool_.fetch({t, target.page});
  while (tb.peek_insert_slot() != target) {
    target = co_await txn::lock_insert_slot(locks_, txn, tb);
    co_await pool_.fetch({t, target.page});
  }
  const PageId pid{t, target.page};

  const auto rid = tb.insert_row(row);
  if (!rid) co_return false;
  DMV_ASSERT(*rid == target);
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

  const std::optional<RowId> rid =
      co_await txn::lock_row(locks_, txn, tb, pk, LockMode::Exclusive);
  if (!rid) co_return false;
  const PageId pid{t, rid->page};
  co_await pool_.fetch(pid);

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

  const std::optional<RowId> rid =
      co_await txn::lock_row(locks_, txn, tb, pk, LockMode::Exclusive);
  if (!rid) co_return false;
  const PageId pid{t, rid->page};
  co_await pool_.fetch(pid);

  tb.delete_row(*rid);
  pool_.mark_dirty(pid);
  txn.op_log().push_back(
      txn::OpRecord{txn::OpRecord::Kind::Delete, t, pk, {}});
  co_await cpu_.use(cfg_.costs.row_write + cfg_.costs.index_update);
  co_return true;
}

sim::Task<txn::OpLogPtr> DiskEngine::commit(TxnCtx& txn) {
  if (txn.kind() == TxnKind::ReadOnly || txn.op_log().empty()) {
    locks_.release_all(txn);
    ++stats_.read_commits;
    co_return nullptr;
  }
  txn::TxnRecord rec;
  rec.ops = std::make_shared<const std::vector<txn::OpRecord>>(
      std::move(txn.op_log()));
  obs::SpanGuard span("disk.commit", obs::Cat::Disk, trace_node_, txn.id());
  wal_.append(rec.byte_size());
  co_await wal_.sync();  // durable before the commit is acknowledged
  span.done();
  obs::count("disk.commits", trace_node_);
  ++commit_seq_;
  locks_.release_all(txn);
  ++stats_.commits;
  co_return rec.ops;
}

void DiskEngine::rollback(TxnCtx& txn) {
  txn::undo_writes(db_, txn);
  locks_.release_all(txn);
}

sim::Task<> DiskEngine::apply_record(const txn::TxnRecord& rec) {
  for (;;) {
    auto txn = begin(TxnKind::Update);
    try {
      for (const auto& op : *rec.ops) {
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
    txn::EngineConnection conn(eng, *txn);
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
