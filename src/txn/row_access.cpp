#include "txn/row_access.hpp"

#include <utility>

#include "txn/write_set.hpp"

namespace dmv::txn {

using storage::Key;
using storage::RowId;

sim::Task<> lock_page(LockManager& locks, TxnCtx& txn, storage::PageId pid,
                      LockMode mode) {
  // Hoisted out of the switch condition: GCC 12 miscompiles
  // `switch (co_await ...)` (wrong-code/SIGILL).
  const LockRc rc = co_await locks.acquire(txn, pid, mode);
  switch (rc) {
    case LockRc::Granted:
      co_return;
    case LockRc::Died:
      throw TxnAbort(TxnAbort::Reason::Deadlock);
    case LockRc::Cancelled:
      throw TxnAbort(TxnAbort::Reason::Cancelled);
  }
}

sim::Task<std::optional<RowId>> lock_row(LockManager& locks, TxnCtx& txn,
                                         const storage::Table& tb,
                                         const Key& pk, LockMode mode) {
  std::optional<RowId> rid = tb.pk_find(pk);
  while (rid) {
    co_await lock_page(locks, txn, {tb.id(), rid->page}, mode);
    const auto again = tb.pk_find(pk);
    if (again == rid) break;
    rid = again;
  }
  if (rid && mode == LockMode::Exclusive)
    txn.capture_undo({tb.id(), rid->page}, tb.page(rid->page), rid->slot,
                     tb.schema().row_size());
  co_return rid;
}

sim::Task<RowId> lock_insert_slot(LockManager& locks, TxnCtx& txn,
                                  storage::Table& tb) {
  RowId target = tb.peek_insert_slot();
  for (;;) {
    co_await lock_page(locks, txn, {tb.id(), target.page},
                       LockMode::Exclusive);
    const RowId again = tb.peek_insert_slot();
    const bool locked = again.page == target.page;
    target = again;  // the page may be the same but its free slot moved
    if (locked) break;
  }
  tb.ensure_page(target.page);
  txn.capture_undo({tb.id(), target.page}, std::as_const(tb).page(target.page),
                   target.slot, tb.schema().row_size());
  co_return target;
}

ScanHits collect_scan(const storage::Table& tb, const api::ScanSpec& spec) {
  ScanHits hits;
  if (spec.limit == 0) return hits;
  hits.key_width = tb.index_tree(spec.index).key_width();
  const bool no_filter = !spec.filter;
  tb.scan(spec.index, spec.lo ? &*spec.lo : nullptr,
          spec.hi ? &*spec.hi : nullptr, spec.reverse,
          [&](std::string_view key, RowId r) {
            hits.rids.push_back(r);
            hits.keys.append(key);
            return !(no_filter && hits.rids.size() >= spec.limit);
          });
  return hits;
}

bool still_holds(const storage::Table& tb, const api::ScanSpec& spec,
                 const ScanHits& hits, size_t i) {
  return tb.index_tree(spec.index).find(hits.key(i)) == hits.rids[i];
}

void undo_writes(storage::Database& db, const TxnCtx& txn) {
  RunBuffer runs;
  for (const PageUndo& u : txn.undo()) {
    storage::Table& tb = db.table(u.pid.table);
    runs.clear();
    if (diff_undo(u, std::as_const(tb).page(u.pid.page), /*restore=*/true,
                  runs) > 0)
      apply_runs_reindex_all(tb, u.pid.page, runs.view());
  }
}

}  // namespace dmv::txn
