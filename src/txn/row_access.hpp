// Page-2PL row access shared by both transactional engines.
//
// The in-memory master (mem::MemEngine) and the on-disk baseline
// (disk::DiskEngine) run the same protocol: lock the page, find the row
// again, read or write it, and undo from before-images. The steps of that
// protocol live here once; each engine adds only its own cost charging and
// page residency (cache model vs buffer pool) around them.
#pragma once

#include <optional>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

#include "api/api.hpp"
#include "storage/table.hpp"
#include "txn/lock_manager.hpp"
#include "txn/transaction.hpp"

namespace dmv::txn {

// Why an engine operation abandoned its transaction. The caller rolls
// back; Deadlock is retried, VersionConflict (a read-only transaction met
// a page newer than its tag) is retried with a fresh tag, and Cancelled
// means the node is going down or the transaction was poisoned.
class TxnAbort : public std::runtime_error {
 public:
  enum class Reason { Deadlock, VersionConflict, Cancelled };
  explicit TxnAbort(Reason r)
      : std::runtime_error(r == Reason::Deadlock          ? "deadlock"
                           : r == Reason::VersionConflict ? "version-conflict"
                                                          : "cancelled"),
        reason(r) {}
  Reason reason;
};

// Acquire `pid` in `mode`; throw TxnAbort on a deadlock death or shutdown.
sim::Task<> lock_page(LockManager& locks, TxnCtx& txn, storage::PageId pid,
                      LockMode mode);

// Lock-coupled primary-key lookup: lock the page that holds `pk` in
// `mode`, then look again, and chase the row until the lookup is stable
// (it may move or vanish while the lock is awaited). Returns its id with
// that page locked, or nullopt if the row is gone. An Exclusive lock is
// taken to write, so the row's slot is saved for undo too.
sim::Task<std::optional<storage::RowId>> lock_row(LockManager& locks,
                                                  TxnCtx& txn,
                                                  const storage::Table& tb,
                                                  const storage::Key& pk,
                                                  LockMode mode);

// Exclusive-lock the page the next insert lands on, re-peeking after each
// wait since a concurrent insert may have filled it or taken its free
// slot, then create the page if it is new and save the slot for undo.
// Returns the slot, as peeked under the lock: an insert_row made before
// the caller next suspends lands there.
sim::Task<storage::RowId> lock_insert_slot(LockManager& locks, TxnCtx& txn,
                                           storage::Table& tb);

// The entries a range scan collected: the slots they pointed at and their
// encoded keys in the scanned index, back to back.
struct ScanHits {
  std::vector<storage::RowId> rids;
  std::string keys;
  size_t key_width = 0;

  std::string_view key(size_t i) const {
    return std::string_view(keys).substr(i * key_width, key_width);
  }
};

// The entries in `spec`'s index range, in `spec`'s order, collected
// without suspending so the index cannot change under the walk. Without a
// residual filter the range is exact and the walk stops at spec.limit; a
// zero limit walks nothing. For scans that may wait on a page before
// reading an entry: the kept keys let still_holds re-check it. A scan
// that cannot suspend reads in the walk itself (MemEngine::scan).
ScanHits collect_scan(const storage::Table& tb, const api::ScanSpec& spec);

// False once hit `i`'s slot no longer holds its kept key: a scan that
// waited on the page between collecting and reading must skip a row
// deleted in the meantime, and a row of another key that reused the slot.
bool still_holds(const storage::Table& tb, const api::ScanSpec& spec,
                 const ScanHits& hits, size_t i);

// Restore every region `txn` saved to its before-image, keeping indexes
// and free-space bookkeeping in step. Locks are left to the caller.
void undo_writes(storage::Database& db, const TxnCtx& txn);

// api::Connection over one transaction on either engine. A poisoned
// transaction (TxnCtx::poison) aborts with Cancelled at its next operation.
template <typename Engine>
class EngineConnection final : public api::Connection {
 public:
  EngineConnection(Engine& eng, TxnCtx& txn) : eng_(eng), txn_(txn) {}

  sim::Task<std::optional<storage::Row>> get(
      storage::TableId t, const storage::Key& pk) override {
    check();
    return eng_.get(txn_, t, pk);
  }
  sim::Task<storage::Rows> scan(storage::TableId t,
                                api::ScanSpec spec) override {
    check();
    return eng_.scan(txn_, t, std::move(spec));
  }
  sim::Task<bool> insert(storage::TableId t,
                         const storage::Row& row) override {
    check();
    return eng_.insert(txn_, t, row);
  }
  sim::Task<bool> update(
      storage::TableId t, const storage::Key& pk,
      const std::function<void(storage::Row&)>& mutate) override {
    check();
    return eng_.update(txn_, t, pk, mutate);
  }
  sim::Task<bool> remove(storage::TableId t,
                         const storage::Key& pk) override {
    check();
    return eng_.remove(txn_, t, pk);
  }

 private:
  void check() const {
    if (txn_.poisoned()) throw TxnAbort(TxnAbort::Reason::Cancelled);
  }
  Engine& eng_;
  TxnCtx& txn_;
};

}  // namespace dmv::txn
