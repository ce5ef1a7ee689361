// On-disk transactional engine — the InnoDB stand-in and baseline.
//
// Differences from the DMV in-memory engine, matching what the paper
// measures against:
//  - serializable two-phase locking for *all* transactions: read-only
//    transactions take shared page locks and block behind writers (the
//    "may stall readers" contrast of §7);
//  - every data-page access goes through a bounded buffer pool backed by a
//    single simulated disk (multi-ms random I/O);
//  - commits append to a WAL and wait for a group-commit fsync, and hand
//    the committed logical writes (the op-log) back to the caller — the
//    replication feed of the active-active baseline tier; replicas and the
//    DMV persistence back-end (§4.6) replay foreign TxnRecords.
#pragma once

#include <memory>

#include "api/api.hpp"
#include "disk/buffer_pool.hpp"
#include "disk/wal.hpp"
#include "storage/table.hpp"
#include "txn/lock_manager.hpp"
#include "txn/row_access.hpp"
#include "txn/transaction.hpp"

namespace dmv::disk {

using SchemaFn = std::function<void(storage::Database&)>;

struct DiskEngineStats {
  uint64_t commits = 0;
  uint64_t read_commits = 0;
  uint64_t records_applied = 0;
};

class DiskEngine {
 public:
  struct Config {
    txn::CostModel costs;
    size_t buffer_frames = 4096;
  };

  DiskEngine(sim::Simulation& sim, std::string name, Config cfg);
  ~DiskEngine();

  void build_schema(const SchemaFn& fn);

  // --- transactions ---
  std::unique_ptr<txn::TxnCtx> begin(txn::TxnKind kind);
  // Returns the committed op-log (null for a transaction that wrote
  // nothing). The transaction's own log is moved out of it.
  sim::Task<txn::OpLogPtr> commit(txn::TxnCtx& txn);
  void rollback(txn::TxnCtx& txn);

  // --- operations (throw txn::TxnAbort on deadlock death / shutdown) ---
  sim::Task<std::optional<storage::Row>> get(txn::TxnCtx& txn,
                                             storage::TableId t,
                                             const storage::Key& pk);
  sim::Task<storage::Rows> scan(txn::TxnCtx& txn, storage::TableId t,
                                api::ScanSpec spec);
  sim::Task<bool> insert(txn::TxnCtx& txn, storage::TableId t,
                         const storage::Row& row);
  sim::Task<bool> update(txn::TxnCtx& txn, storage::TableId t,
                         const storage::Key& pk,
                         const std::function<void(storage::Row&)>& mutate);
  sim::Task<bool> remove(txn::TxnCtx& txn, storage::TableId t,
                         const storage::Key& pk);

  // --- replication / replay ---
  uint64_t last_commit_seq() const { return commit_seq_; }
  uint64_t applied_seq() const { return applied_seq_; }
  // Replay a foreign TxnRecord (replica apply / failover catch-up /
  // persistence back-end). Disk-bound like any other transaction.
  sim::Task<> apply_record(const txn::TxnRecord& rec);

  void shutdown();

  // --- accessors ---
  storage::Database& db() { return db_; }
  const storage::Database& db() const { return db_; }
  sim::Simulation& sim() { return sim_; }
  const std::string& name() const { return name_; }
  SimDisk& disk() { return disk_; }
  BufferPool& pool() { return pool_; }
  Wal& wal() { return wal_; }
  txn::LockManager& locks() { return locks_; }
  sim::Resource& cpu() { return cpu_; }
  const txn::CostModel& costs() const { return cfg_.costs; }
  DiskEngineStats& stats() { return stats_; }
  // Node id for trace spans (propagates to the lock manager and pool).
  void set_trace_node(uint32_t node) {
    trace_node_ = node;
    locks_.set_trace_node(node);
    pool_.set_trace_node(node);
  }

 private:
  sim::Simulation& sim_;
  std::string name_;
  Config cfg_;
  storage::Database db_;
  txn::LockManager locks_;
  SimDisk disk_;
  BufferPool pool_;
  Wal wal_;
  sim::Resource cpu_;
  bool shutdown_ = false;
  uint32_t trace_node_ = UINT32_MAX;

  uint64_t next_txn_ = 1;
  uint64_t commit_seq_ = 0;
  uint64_t applied_seq_ = 0;
  DiskEngineStats stats_;
};

// Run one registered procedure as a transaction on a DiskEngine, retrying
// deadlock deaths after `deadlock_backoff`. Returns nullopt only if the
// engine shut down. `params` is taken by value: this is a lazy coroutine
// and must own its inputs (callers often hand it a dying local).
sim::Task<std::optional<api::TxnResult>> run_proc_on_disk(
    DiskEngine& eng, const api::ProcInfo& proc, api::Params params);

}  // namespace dmv::disk
