// Transaction context.
//
// Update transactions run on a master under strict two-phase page locking
// (the paper's "internal two-phase-locking per-page concurrency control"),
// capturing a before-image of each page on first write so pre-commit can
// byte-diff pages into the replicated write-set and abort can roll back.
// Read-only transactions carry the version-vector tag assigned by the
// scheduler and take no locks; isolation comes from dynamic multiversioning.
#pragma once

#include <cstdint>
#include <map>
#include <set>
#include <vector>

#include "storage/page.hpp"
#include "txn/op_log.hpp"

namespace dmv::txn {

enum class TxnKind { Update, ReadOnly };

class TxnCtx {
 public:
  TxnCtx(uint64_t id, TxnKind kind) : id_(id), kind_(kind) {}
  TxnCtx(const TxnCtx&) = delete;
  TxnCtx& operator=(const TxnCtx&) = delete;

  uint64_t id() const { return id_; }
  TxnKind kind() const { return kind_; }

  // Record the pristine image of a page the first time it is written.
  void capture_undo(storage::PageId pid, const storage::Page& current) {
    if (kind_ == TxnKind::ReadOnly) return;
    before_images_.try_emplace(pid, current);
    dirty_.insert(pid);
  }

  bool is_dirty(storage::PageId pid) const { return dirty_.count(pid) > 0; }
  const std::set<storage::PageId>& dirty_pages() const { return dirty_; }
  const std::map<storage::PageId, storage::Page>& before_images() const {
    return before_images_;
  }

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

  // Lock bookkeeping (owned by LockManager).
  std::vector<storage::PageId>& held_locks() { return held_locks_; }

  // Logical write log (row-based), appended by engine write ops; consumed
  // by binlog replication and the scheduler's persistence query log.
  std::vector<OpRecord>& op_log() { return op_log_; }
  const std::vector<OpRecord>& op_log() const { return op_log_; }

 private:
  uint64_t id_;
  TxnKind kind_;
  std::map<storage::PageId, storage::Page> before_images_;
  std::set<storage::PageId> dirty_;
  std::vector<storage::PageId> held_locks_;
  std::vector<OpRecord> op_log_;
  std::vector<uint64_t> read_version_;
  bool tag_upgraded_ = false;
};

}  // namespace dmv::txn
