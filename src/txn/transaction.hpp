// Transaction context.
//
// Update transactions run on a master under strict two-phase page locking
// (the paper's "internal two-phase-locking per-page concurrency control"),
// saving the before-image of each slot they lock for writing (and of its
// page's occupancy bitmap) so pre-commit can byte-diff those regions into
// the replicated write-set and abort can roll them back.
// Read-only transactions carry the version-vector tag assigned by the
// scheduler and take no locks; isolation comes from dynamic multiversioning.
#pragma once

#include <array>
#include <cstdint>
#include <vector>

#include "storage/page.hpp"
#include "txn/op_log.hpp"

namespace dmv::txn {

enum class TxnKind { Update, ReadOnly };

// What one transaction's writes to one page can have overwritten: the
// page's occupancy bitmap and each slot it locked for writing, as they
// were before its first write to them. The transaction holds the page
// Exclusive from its first capture on and writes only captured slots, so
// every other byte of the page is as it was: the saved regions bound the
// page's diff.
struct PageUndo {
  storage::PageId pid;
  size_t row_size = 0;
  std::array<std::byte, storage::kPageHeader> bitmap{};
  std::vector<uint16_t> slots;  // ascending
  std::vector<std::byte> rows;  // slots[i]'s bytes at i * row_size
};

class TxnCtx {
 public:
  TxnCtx(uint64_t id, TxnKind kind) : id_(id), kind_(kind) {}
  TxnCtx(const TxnCtx&) = delete;
  TxnCtx& operator=(const TxnCtx&) = delete;

  uint64_t id() const { return id_; }
  TxnKind kind() const { return kind_; }

  // Save `slot` of page `pid` (rows of `row_size` bytes), and the page's
  // bitmap, as they are now unless this transaction saved them already:
  // call before the first write to the slot.
  void capture_undo(storage::PageId pid, const storage::Page& page,
                    uint16_t slot, size_t row_size);

  // The pages this transaction wrote, by PageId.
  const std::vector<PageUndo>& undo() const { return undo_; }

  // Read-only tag: per-table versions this transaction must observe.
  void set_read_version(std::vector<uint64_t> v) {
    read_version_ = std::move(v);
  }
  const std::vector<uint64_t>& read_version() const { return read_version_; }
  // In-place tag upgrade (§2.1 reads served by a table's master): the
  // engine raises the tag of every mastered table to the master's current
  // version once, on the transaction's first touch of a mastered table, so
  // the whole read observes one consistent cut and check_page can enforce
  // it. The flag makes the upgrade once-per-transaction.
  void upgrade_read_version(size_t table, uint64_t v) {
    if (read_version_[table] < v) read_version_[table] = v;
  }
  bool tag_upgraded() const { return tag_upgraded_; }
  void mark_tag_upgraded() { tag_upgraded_ = true; }

  // Scheduler-recovery abort (§4.1): a new scheduler asked the master to
  // abort unconfirmed transactions; the next operation throws Cancelled.
  void poison() { poisoned_ = true; }
  bool poisoned() const { return poisoned_; }

  // Lock bookkeeping (owned by LockManager).
  std::vector<storage::PageId>& held_locks() { return held_locks_; }

  // Logical write log (row-based), appended by engine write ops; consumed
  // by binlog replication and the scheduler's persistence query log.
  std::vector<OpRecord>& op_log() { return op_log_; }
  const std::vector<OpRecord>& op_log() const { return op_log_; }

 private:
  uint64_t id_;
  TxnKind kind_;
  std::vector<PageUndo> undo_;
  std::vector<storage::PageId> held_locks_;
  std::vector<OpRecord> op_log_;
  std::vector<uint64_t> read_version_;
  bool tag_upgraded_ = false;
  bool poisoned_ = false;
};

}  // namespace dmv::txn
