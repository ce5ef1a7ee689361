#include "mem/engine.hpp"

#include <algorithm>
#include <utility>

#include "obs/trace.hpp"

namespace dmv::mem {

using storage::Key;
using storage::PageId;
using storage::Row;
using storage::RowId;
using storage::TableId;
using txn::LockMode;
using check::PlantedBug;
using txn::TxnAbort;
using txn::TxnCtx;
using txn::TxnKind;

constexpr int kCpus = 2;  // the paper's dual-Athlon nodes

MemEngine::MemEngine(sim::Simulation& sim, std::string name, Config cfg,
                     check::PlantedBug bug)
    : sim_(sim),
      name_(std::move(name)),
      cfg_(cfg),
      bug_(bug),
      locks_(sim),
      cache_(cfg.cache_pages, cfg.costs.mem_page_fault),
      cpu_(sim, kCpus) {}

MemEngine::~MemEngine() { shutdown(); }

void MemEngine::build_schema(const SchemaFn& fn) {
  fn(db_);
  const size_t n = db_.table_count();
  version_.assign(n, 0);
  received_.assign(n, 0);
  pending_.resize(n);
  arrival_.clear();
  for (size_t i = 0; i < n; ++i)
    arrival_.push_back(std::make_unique<sim::WaitQueue>(sim_));
}

void MemEngine::set_master_tables(std::set<TableId> tables) {
  master_tables_ = std::move(tables);
}

sim::Task<> MemEngine::promote(std::set<TableId> tables) {
  for (TableId t : tables) {
    co_await apply_pending(t, received_[t]);
    version_[t] = std::max(version_[t], received_[t]);
  }
  master_tables_.insert(tables.begin(), tables.end());
}

std::unique_ptr<TxnCtx> MemEngine::begin_update() {
  return std::make_unique<TxnCtx>(next_txn_++, TxnKind::Update);
}

std::unique_ptr<TxnCtx> MemEngine::begin_read(VersionVec tag) {
  DMV_ASSERT(tag.size() == db_.table_count());
  auto txn = std::make_unique<TxnCtx>(next_txn_++, TxnKind::ReadOnly);
  txn->set_read_version(std::move(tag));
  return txn;
}

bool MemEngine::read_at_latest(const TxnCtx& txn, TableId t) const {
  return txn.kind() == TxnKind::ReadOnly && masters(t);
}

sim::Task<> MemEngine::ensure_table(TxnCtx& txn, TableId t) {
  if (txn.kind() != TxnKind::ReadOnly) co_return;
  if (masters(t)) {
    // §2.1: reads served by the master see its latest state. Make that
    // sound under the tag semantics by raising the txn's tag for *every*
    // mastered table to the master's current version, once, on first
    // touch — precommit stamps versions without suspending, so version_
    // snapshot here is one consistent cut — and let check_page enforce
    // the upgraded tag like any other read.
    if (bug_ != PlantedBug::SkipTagUpgrade && !txn.tag_upgraded()) {
      for (TableId mt : master_tables_)
        txn.upgrade_read_version(mt, version_[mt]);
      txn.mark_tag_upgraded();
    }
    co_return;
  }
  DMV_ASSERT(txn.read_version().size() == db_.table_count());
  const uint64_t v = txn.read_version()[t];
  if (received_[t] < v) {
    // Replication lag: the tagged version hasn't arrived yet (span only
    // materializes when we actually wait).
    obs::SpanGuard wait_span("slave.wait_version", obs::Cat::Apply,
                             trace_node_, txn.id());
    while (received_[t] < v) {
      if (shutdown_) throw TxnAbort(TxnAbort::Reason::Cancelled);
      const bool ok = co_await arrival_[t]->wait();
      if (!ok) throw TxnAbort(TxnAbort::Reason::Cancelled);
    }
  }
  const uint64_t bound =
      bug_ == PlantedBug::ApplyOffByOne && v > 0 ? v - 1 : v;
  co_await apply_pending(t, bound, txn.id());
}

void MemEngine::check_page(const TxnCtx& txn, TableId t,
                           storage::PageNo p) const {
  // Master-served reads are checked against their *upgraded* tag like any
  // other read; only PlantedBug::SkipTagUpgrade restores the old unchecked
  // bypass.
  if (bug_ == PlantedBug::SkipTagUpgrade && read_at_latest(txn, t)) return;
  if (txn.kind() != TxnKind::ReadOnly) return;
  DMV_ASSERT_MSG(p < db_.table(t).page_count(),
                 "check_page " << name_ << " table "
                               << db_.table(t).name() << " page " << p
                               << " of " << db_.table(t).page_count()
                               << " tag " << txn.read_version()[t]
                               << " received " << received_[t]);
  if (db_.table(t).meta(p).version > txn.read_version()[t]) {
    const_cast<EngineStats&>(stats_).version_aborts++;
    obs::instant("version_abort", obs::Cat::Apply, trace_node_, txn.id());
    throw TxnAbort(TxnAbort::Reason::VersionConflict);
  }
}

sim::Task<> MemEngine::latch_for_master_read(TxnCtx& txn, TableId t,
                                             storage::PageNo p) {
  if (!read_at_latest(txn, t) || bug_ == PlantedBug::SkipTagUpgrade)
    co_return;
  co_await txn::lock_page(locks_, txn, {t, p}, LockMode::Shared);
  // Under the latch no writer holds the page Exclusive, so its content is
  // committed; strict 2PL stamps meta.version at pre-commit before release,
  // so check_page now decides committed-at-or-before-tag exactly.
  try {
    check_page(txn, t, p);
  } catch (...) {
    locks_.release_all(txn);
    throw;
  }
}

sim::Task<std::optional<Row>> MemEngine::get(TxnCtx& txn, TableId t,
                                             const Key& pk) {
  storage::Table& tb = db_.table(t);
  // Per-query overhead (parse/SQL layer) is paid *before* touching locks,
  // so lock hold times stay at data-access scale.
  co_await cpu_.use(cfg_.costs.mem_cpu_read_query);
  sim::Time cost = cfg_.costs.index_lookup;

  std::optional<RowId> rid;
  bool latch = false;
  if (txn.kind() == TxnKind::ReadOnly) {
    co_await ensure_table(txn, t);
    rid = tb.pk_find(pk);
    latch = read_at_latest(txn, t) && bug_ != PlantedBug::SkipTagUpgrade;
    if (latch) {
      // Master-served read: take the page latch so an uncommitted update's
      // in-place writes cannot be observed; chase the row if it moved
      // while we waited for the latch.
      while (rid) {
        co_await latch_for_master_read(txn, t, rid->page);
        const auto again = tb.pk_find(pk);
        if (again == rid) break;
        locks_.release_all(txn);
        rid = again;
      }
    } else if (rid) {
      check_page(txn, t, rid->page);
    }
  } else {
    // Update transaction: lock-coupled read of the latest committed state.
    rid = co_await txn::lock_row(locks_, txn, tb, pk, LockMode::Shared);
  }
  if (!rid) {
    co_await cpu_.use(cost);
    co_return std::nullopt;
  }
  cost += cache_.touch({t, rid->page}) + cfg_.costs.row_read;
  Row row = tb.read_row(*rid);
  if (latch) locks_.release_all(txn);
  co_await cpu_.use(cost);
  co_return row;
}

sim::Task<storage::Rows> MemEngine::scan(TxnCtx& txn, TableId t,
                                         api::ScanSpec spec) {
  storage::Table& tb = db_.table(t);
  co_await cpu_.use(cfg_.costs.mem_cpu_read_query);
  sim::Time cost = cfg_.costs.index_lookup;

  const bool ro = txn.kind() == TxnKind::ReadOnly;
  if (ro) co_await ensure_table(txn, t);

  storage::Rows out(tb.schema_ptr());
  // Update transactions lock each page and master-served reads latch it.
  // Either may wait, so they collect the entries first and check each one
  // again before reading it. Slave-served reads never suspend here.
  const bool latch =
      read_at_latest(txn, t) && bug_ != PlantedBug::SkipTagUpgrade;
  if (ro && !latch) {
    cost += scan_in_place(txn, tb, spec, out);
    co_await cpu_.use(cost);
    co_return out;
  }
  const txn::ScanHits hits = txn::collect_scan(tb, spec);
  cost += cfg_.costs.index_scan_entry * sim::Time(hits.rids.size());
  for (size_t i = 0; i < hits.rids.size(); ++i) {
    const RowId rid = hits.rids[i];
    if (out.size() >= spec.limit) break;
    if (!ro)
      co_await txn::lock_page(locks_, txn, {t, rid.page}, LockMode::Shared);
    else
      co_await latch_for_master_read(txn, t, rid.page);
    if (!txn::still_holds(tb, spec, hits, i)) {
      if (latch) locks_.release_all(txn);
      continue;
    }
    cost += cache_.touch({t, rid.page}) + cfg_.costs.row_read;
    const auto image = tb.row_image(rid);
    const bool keep =
        !spec.filter || spec.filter(storage::RowRef(tb.schema(), image.data()));
    if (keep) out.push_back(image);
    if (latch) locks_.release_all(txn);
  }
  co_await cpu_.use(cost);
  co_return out;
}

sim::Time MemEngine::scan_in_place(const TxnCtx& txn,
                                   const storage::Table& tb,
                                   const api::ScanSpec& spec,
                                   storage::Rows& out) {
  if (spec.limit == 0) return 0;
  const TableId t = tb.id();
  const storage::Schema& schema = tb.schema();
  const size_t row_size = schema.row_size();
  const bool filtered = bool(spec.filter);
  const bool check = bug_ != PlantedBug::ScanStaleRead;
  out.reserve(std::min(spec.limit, kScanReserveRows));
  sim::Time cost = 0;
  size_t entries = 0;
  const storage::Page* page = nullptr;
  storage::PageNo last = 0;
  tb.scan(spec.index, spec.lo ? &*spec.lo : nullptr,
          spec.hi ? &*spec.hi : nullptr, spec.reverse,
          [&](std::string_view, RowId rid) {
            ++entries;
            // Past the limit a filtered scan only walks on: its whole
            // range is charged, as the two-pass walk charges it.
            if (out.size() >= spec.limit) return true;
            // Nothing changes during the walk, so a run of entries on one
            // page checks, looks up and touches that page once. The rest of
            // the run re-touches the most recently used page: a hit that
            // charges nothing and leaves the LRU order as it is.
            if (!page || rid.page != last) {
              if (check && !(bug_ == PlantedBug::ScanFirstPageOnly && page))
                check_page(txn, t, rid.page);
              page = &tb.page(rid.page);
              last = rid.page;
              cost += cache_.touch({t, rid.page});
            } else {
              cache_.repeat_hit();
            }
            cost += cfg_.costs.row_read;
            DMV_ASSERT(page->occupied(rid.slot));
            const auto image = page->slot_bytes(rid.slot, row_size);
            if (!filtered || spec.filter(storage::RowRef(schema, image.data())))
              out.push_back(image);
            return filtered || out.size() < spec.limit;
          });
  return cost + cfg_.costs.index_scan_entry * sim::Time(entries);
}

sim::Task<bool> MemEngine::insert(TxnCtx& txn, TableId t, const Row& row) {
  DMV_ASSERT_MSG(masters(t), name_ << ": insert routed to non-master of "
                                   << db_.table(t).name());
  storage::Table& tb = db_.table(t);
  co_await cpu_.use(cfg_.costs.mem_cpu_write_query);
  sim::Time cost = cfg_.costs.index_lookup;

  const RowId target = co_await txn::lock_insert_slot(locks_, txn, tb);

  const uint64_t rot0 = tb.index_rotations();
  const auto rid = tb.insert_row(row);
  if (!rid) {
    co_await cpu_.use(cost);
    co_return false;  // primary-key duplicate
  }
  DMV_ASSERT(*rid == target);
  txn.op_log().push_back(txn::OpRecord{txn::OpRecord::Kind::Insert, t,
                                       tb.primary_key_of(row), row});
  cost += cfg_.costs.row_write + cache_.touch({t, rid->page}) +
          cfg_.costs.index_update * sim::Time(1 + tb.secondary_count()) +
          cfg_.costs.index_rotation * sim::Time(tb.index_rotations() - rot0);
  co_await cpu_.use(cost);
  co_return true;
}

sim::Task<bool> MemEngine::update(
    TxnCtx& txn, TableId t, const Key& pk,
    const std::function<void(Row&)>& mutate) {
  DMV_ASSERT_MSG(masters(t), name_ << ": update routed to non-master of "
                                   << db_.table(t).name());
  storage::Table& tb = db_.table(t);
  co_await cpu_.use(cfg_.costs.mem_cpu_write_query);
  sim::Time cost = cfg_.costs.index_lookup;

  const std::optional<RowId> rid =
      co_await txn::lock_row(locks_, txn, tb, pk, LockMode::Exclusive);
  if (!rid) {
    co_await cpu_.use(cost);
    co_return false;
  }
  Row row = tb.read_row(*rid);
  mutate(row);
  const uint64_t rot0 = tb.index_rotations();
  tb.update_row(*rid, row);
  txn.op_log().push_back(txn::OpRecord{txn::OpRecord::Kind::Update, t,
                                       tb.primary_key_of(row), row});
  cost += cfg_.costs.row_read + cfg_.costs.row_write +
          cache_.touch({t, rid->page}) +
          cfg_.costs.index_rotation * sim::Time(tb.index_rotations() - rot0);
  co_await cpu_.use(cost);
  co_return true;
}

sim::Task<bool> MemEngine::remove(TxnCtx& txn, TableId t, const Key& pk) {
  DMV_ASSERT_MSG(masters(t), name_ << ": delete routed to non-master of "
                                   << db_.table(t).name());
  storage::Table& tb = db_.table(t);
  co_await cpu_.use(cfg_.costs.mem_cpu_write_query);
  sim::Time cost = cfg_.costs.index_lookup;

  const std::optional<RowId> rid =
      co_await txn::lock_row(locks_, txn, tb, pk, LockMode::Exclusive);
  if (!rid) {
    co_await cpu_.use(cost);
    co_return false;
  }
  const uint64_t rot0 = tb.index_rotations();
  tb.delete_row(*rid);
  txn.op_log().push_back(
      txn::OpRecord{txn::OpRecord::Kind::Delete, t, pk, {}});
  cost += cfg_.costs.row_write + cache_.touch({t, rid->page}) +
          cfg_.costs.index_update * sim::Time(1 + tb.secondary_count()) +
          cfg_.costs.index_rotation * sim::Time(tb.index_rotations() - rot0);
  co_await cpu_.use(cost);
  co_return true;
}

sim::Task<txn::WriteSetPtr> MemEngine::precommit(TxnCtx& txn) {
  DMV_ASSERT(txn.kind() == TxnKind::Update);
  // Charge the diff cost up front so the section below — version
  // increments, page-version stamping, broadcast — runs without
  // suspension: write-sets leave this master in version order.
  {
    obs::SpanGuard diff_span("master.diff", obs::Cat::Replication,
                             trace_node_, txn.id());
    co_await cpu_.use(cfg_.costs.diff_page *
                      sim::Time(txn.undo().size()));
  }
  // Diff first, bump versions after: a table whose every dirty page diffs
  // empty (written then reverted) must not publish a version number no
  // write-set carries — cumulative acks equate "version seen" with
  // "write-set received" (DESIGN.md, replication pipeline). Every mod of
  // table t carries version_[t] + 1.
  for (const txn::PageUndo& undo : txn.undo()) {
    const PageId pid = undo.pid;
    DMV_ASSERT_MSG(masters(pid.table), "dirtied a non-mastered table");
    const storage::Page& page = std::as_const(db_).table(pid.table).page(
        pid.page);
    txn::RunBuffer& runs = ws_builder_.runs();
    if (cfg_.full_page_writesets) {
      runs.headers.push_back({0, uint32_t(storage::kPageSize)});
      runs.bytes.insert(runs.bytes.end(), page.raw().begin(),
                        page.raw().end());
    } else {
      txn::diff_undo(undo, page, /*restore=*/false, runs);
    }
    ws_builder_.add_mod(pid, version_[pid.table] + 1);
  }
  const std::shared_ptr<txn::WriteSet> ws = ws_builder_.build(txn.id());
  for (const txn::PageMod& mod : ws->mods) {
    version_[mod.pid.table] = mod.version;
    db_.table(mod.pid.table).meta(mod.pid.page).version = mod.version;
  }
  // Stamp with the *applied* version vector only. Conflict classes are
  // disjoint, so an update can never causally depend on another class's
  // tables; folding received_ in here would leak merely-received,
  // unconfirmed (and therefore discardable) versions of other classes into
  // a stamp that outlives a fail-over. The scheduler merges such a stamp
  // back into its vector after the discard and tags reads with a version
  // no replica will ever receive again (wedged reads), and a replica that
  // sees the stamp bumps received_ for a table whose mods it does not hold
  // and serves old pages under the new tag.
  ws->db_version = version_;
  txn::WriteSetPtr shared = ws;
  if (broadcast_fn_) broadcast_fn_(shared);
  co_return shared;
}

void MemEngine::finish_commit(TxnCtx& txn) {
  locks_.release_all(txn);
  ++stats_.update_commits;
}

void MemEngine::rollback(TxnCtx& txn) {
  txn::undo_writes(db_, txn);
  locks_.release_all(txn);
}

void MemEngine::finish_read(TxnCtx& txn) {
  (void)txn;
  ++stats_.read_commits;
}

void MemEngine::on_write_set(const txn::WriteSetPtr& ws) {
  if (shutdown_) return;
  DMV_ASSERT(ws->db_version.size() == db_.table_count());
  for (size_t i = 0; i < ws->mods.size(); ++i) {
    const TableId t = ws->mods[i].pid.table;
    // Never queue mods for tables we master (our own state is the source).
    if (masters(t)) continue;
    pending_[t].emplace_back(ws, &ws->mods[i]);
    ++stats_.mods_enqueued;
  }
  for (size_t t = 0; t < ws->db_version.size(); ++t) {
    if (ws->db_version[t] > received_[t]) {
      received_[t] = ws->db_version[t];
      arrival_[t]->notify_all();
    }
  }
}

void MemEngine::discard_mods_above(
    const VersionVec& confirmed,
    const std::vector<storage::TableId>& tables) {
  DMV_ASSERT(confirmed.size() == db_.table_count());
  if (bug_ == PlantedBug::SkipDiscard) return;
  auto affected = [&](size_t t) {
    if (tables.empty()) return true;
    return std::find(tables.begin(), tables.end(), storage::TableId(t)) !=
           tables.end();
  };
  for (size_t t = 0; t < confirmed.size(); ++t) {
    if (!affected(t)) continue;
    auto& q = pending_[t];
    while (!q.empty() && q.back()->version > confirmed[t]) q.pop_back();
    received_[t] = std::min(received_[t], confirmed[t]);
  }
}

sim::Task<> MemEngine::apply_pending(TableId t, uint64_t v,
                                     uint64_t txn_id) {
  sim::Time cost = 0;
  auto& q = pending_[t];
  storage::Table& table = db_.table(t);
  for (; !q.empty() && q.front()->version <= v; q.pop_front()) {
    const txn::PageMod& mod = *q.front();
    table.ensure_page(mod.pid.page);
    if (mod.version <= table.meta(mod.pid.page).version) continue;  // stale
    const size_t slots = txn::apply_mod_indexed(table, mod);
    cost += cfg_.costs.apply_run * sim::Time(mod.runs.size()) +
            cfg_.costs.apply_slot_reindex * sim::Time(slots);
    cost += cache_.touch(mod.pid);
    ++stats_.mods_applied;
  }
  if (cost > 0) {
    obs::SpanGuard apply_span("slave.apply", obs::Cat::Apply, trace_node_,
                              txn_id);
    co_await cpu_.use(cost);
  }
}

bool MemEngine::has_applicable(TableId t) const {
  const auto& q = pending_[t];
  return !q.empty() && q.front()->version <= received_[t];
}

sim::Task<bool> MemEngine::wait_arrival(TableId t) {
  if (shutdown_) co_return false;
  co_return co_await arrival_[t]->wait();
}

sim::Task<bool> MemEngine::wait_received(const VersionVec& target) {
  DMV_ASSERT(target.size() == db_.table_count());
  for (size_t t = 0; t < target.size(); ++t) {
    while (received_[t] < target[t] && version_[t] < target[t]) {
      if (shutdown_) co_return false;
      const bool ok = co_await arrival_[t]->wait();
      if (!ok) co_return false;
    }
  }
  co_return true;
}

std::map<PageId, uint64_t> MemEngine::page_versions() const {
  std::map<PageId, uint64_t> out;
  for (TableId t = 0; t < db_.table_count(); ++t) {
    const storage::Table& tb = db_.table(t);
    for (storage::PageNo p = 0; p < tb.page_count(); ++p)
      out[{t, p}] = tb.meta(p).version;
  }
  return out;
}

void MemEngine::install_page(PageId pid, const storage::Page& image,
                             uint64_t version) {
  storage::Table& tb = db_.table(pid.table);
  tb.ensure_page(pid.page);
  const txn::RunHeader whole{0, uint32_t(storage::kPageSize)};
  txn::apply_runs_indexed(tb, pid.page,
                          txn::Runs({&whole, 1}, image.raw().data()));
  tb.meta(pid.page).version = version;
  ++stats_.pages_installed;
}

void MemEngine::adopt_version(const VersionVec& v) {
  DMV_ASSERT(v.size() == db_.table_count());
  for (size_t t = 0; t < v.size(); ++t) {
    if (v[t] > received_[t]) {
      received_[t] = v[t];
      arrival_[t]->notify_all();
    }
  }
}

void MemEngine::shutdown() {
  if (shutdown_) return;
  shutdown_ = true;
  locks_.shutdown();
  for (auto& q : arrival_) q->notify_all(false);
}

size_t MemEngine::pending_mod_count() const {
  size_t n = 0;
  for (const auto& q : pending_) n += q.size();
  return n;
}

}  // namespace dmv::mem
