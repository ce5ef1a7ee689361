// The in-memory replicated database engine (the paper's REPLICATED_HEAP
// storage engine + Dynamic Multiversioning, §2-§3).
//
// One MemEngine instance is the database process on one cluster node. Its
// role is per-table: it is *master* for the tables of the conflict classes
// assigned to it (update transactions execute here under per-page strict
// 2PL and produce version-numbered write-sets at pre-commit, Figure 2), and
// *slave* for everything else (it queues incoming write-sets per table and
// applies them lazily, materializing the snapshot a tagged read-only
// transaction asks for).
//
// Version semantics:
//  - version_[t]      on mastered tables: last version produced locally.
//  - received_[t]     on slave tables: highest version received from the
//                     table's master (write-sets arrive FIFO).
//  - page meta.version: the version the page image currently reflects.
// A read-only transaction tagged V must observe table t exactly at V[t]:
// ensure_table() waits until received_[t] >= V[t], then applies pending
// mods with version <= V[t]; touching a page whose meta.version > V[t]
// (another reader pulled it further forward — old versions are not kept)
// raises txn::TxnAbort{VersionConflict}, the paper's rare read abort.
//
// Substitution note (DESIGN.md §2/§5): the paper applies pending mods
// per *page* on demand; we apply the pending prefix per *table* on demand.
// Abort detection stays page-granular (meta.version vs tag), waiting and
// migration stay page-granular; only application batching differs, because
// our secondary indexes are derived from rows rather than replicated as
// raw memory. This can only over-count aborts, never miss one.
#pragma once

#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <set>

#include "api/api.hpp"
#include "check/planted_bug.hpp"
#include "mem/cache_model.hpp"
#include "sim/sync.hpp"
#include "storage/table.hpp"
#include "txn/cost_model.hpp"
#include "txn/lock_manager.hpp"
#include "txn/row_access.hpp"
#include "txn/write_set.hpp"

namespace dmv::mem {

using VersionVec = std::vector<uint64_t>;
using SchemaFn = std::function<void(storage::Database&)>;

struct EngineStats {
  uint64_t update_commits = 0;
  uint64_t read_commits = 0;
  uint64_t version_aborts = 0;
  uint64_t mods_enqueued = 0;
  uint64_t mods_applied = 0;
  uint64_t pages_installed = 0;
};

class MemEngine {
 public:
  struct Config {
    txn::CostModel costs;
    size_t cache_pages = 1 << 20;  // effectively unbounded by default
    // Ablation: ship whole page images instead of byte-diff runs.
    bool full_page_writesets = false;
  };

  // `bug`: the deployment's planted bug (check::PlantedBug), if any.
  MemEngine(sim::Simulation& sim, std::string name, Config cfg,
            check::PlantedBug bug = check::PlantedBug::None);
  ~MemEngine();

  void build_schema(const SchemaFn& fn);

  // --- roles ---
  void set_master_tables(std::set<storage::TableId> tables);
  bool masters(storage::TableId t) const { return master_tables_.count(t); }
  bool is_master() const { return !master_tables_.empty(); }
  // Promote a slave: adopt received versions as produced versions, roll all
  // pending mods forward so updates run against the newest state.
  sim::Task<> promote(std::set<storage::TableId> tables);
  // Test-only (PlantedBug::WrongClassRoute): start mastering
  // `tables` WITHOUT the promote protocol — produced versions stay wherever
  // they were, so two masters now stamp the same table's stream. This is
  // the bug the scheduler's class validation and the engine node's
  // mastership guard exist to rule out.
  void mut_adopt_tables(const std::set<storage::TableId>& tables) {
    master_tables_.insert(tables.begin(), tables.end());
  }

  // --- transactions ---
  std::unique_ptr<txn::TxnCtx> begin_update();
  std::unique_ptr<txn::TxnCtx> begin_read(VersionVec tag);

  // Pre-commit (Figure 2): charges diff cost, then atomically increments
  // the version vector for written tables, builds the write-set, stamps
  // page versions and hands the write-set to `broadcast_fn` (set by the
  // hosting node) before any other transaction can interleave — write-sets
  // leave the master in version order.
  sim::Task<txn::WriteSetPtr> precommit(txn::TxnCtx& txn);
  void set_broadcast_fn(std::function<void(const txn::WriteSetPtr&)> fn) {
    broadcast_fn_ = std::move(fn);
  }
  // After replica acks: release locks, count the commit.
  void finish_commit(txn::TxnCtx& txn);
  void rollback(txn::TxnCtx& txn);
  void finish_read(txn::TxnCtx& txn);

  // --- operations (throw txn::TxnAbort) ---
  sim::Task<std::optional<storage::Row>> get(txn::TxnCtx& txn,
                                             storage::TableId t,
                                             const storage::Key& pk);
  sim::Task<storage::Rows> scan(txn::TxnCtx& txn, storage::TableId t,
                                api::ScanSpec spec);
  // False on primary-key duplicate.
  sim::Task<bool> insert(txn::TxnCtx& txn, storage::TableId t,
                         const storage::Row& row);
  // False if absent. `mutate` edits the row in place.
  sim::Task<bool> update(txn::TxnCtx& txn, storage::TableId t,
                         const storage::Key& pk,
                         const std::function<void(storage::Row&)>& mutate);
  sim::Task<bool> remove(txn::TxnCtx& txn, storage::TableId t,
                         const storage::Key& pk);

  // --- replication (slave side) ---
  // A queued mod: it points at its PageMod and shares ownership of the
  // write-set the mod arrived in (an aliasing shared_ptr, 16 bytes).
  // Queued mods keep their write-set alive, and nothing else.
  using PendingMod = std::shared_ptr<const txn::PageMod>;
  // Queue the mods of tables this engine does not master, sharing `ws`.
  void on_write_set(const txn::WriteSetPtr& ws);
  // Master-failure cleanup (§4.2): drop queued mods with versions above
  // what the recovering scheduler confirmed; restricted to `tables` if
  // non-empty (the failed master's conflict class).
  void discard_mods_above(const VersionVec& confirmed,
                          const std::vector<storage::TableId>& tables = {});
  // Roll table t's pages forward to version v (charging apply costs).
  // `txn_id` tags the apply span with the read that asked for it.
  sim::Task<> apply_pending(storage::TableId t, uint64_t v,
                            uint64_t txn_id = 0);
  // True if table t has queued mods whose versions the replication stream
  // has already covered (i.e. apply_pending(t, received) would do work).
  bool has_applicable(storage::TableId t) const;
  // Block until the next arrival (write-set or version advance) for table
  // t; false if the engine shut down. Persistent eager-apply drainers
  // park here between bursts.
  sim::Task<bool> wait_arrival(storage::TableId t);
  // Block until the replication stream has delivered at least `target`
  // for every table. False if the engine shut down while waiting.
  sim::Task<bool> wait_received(const VersionVec& target);

  // --- migration & checkpoint support ---
  std::map<storage::PageId, uint64_t> page_versions() const;
  void install_page(storage::PageId pid, const storage::Page& image,
                    uint64_t version);
  // Set received/current version state after a bulk install (joining node
  // adopting the masters' vector it subscribed at).
  void adopt_version(const VersionVec& v);

  // Fail-stop: cancel lock waiters and version waiters.
  void shutdown();

  // --- accessors ---
  storage::Database& db() { return db_; }
  const storage::Database& db() const { return db_; }
  const std::string& name() const { return name_; }
  const VersionVec& version() const { return version_; }
  const VersionVec& received_version() const { return received_; }
  CacheModel& cache() { return cache_; }
  txn::LockManager& locks() { return locks_; }
  // Node id attached to trace spans emitted by this engine (and its lock
  // manager); kNoNode until the hosting node wires it.
  void set_trace_node(uint32_t node) {
    trace_node_ = node;
    locks_.set_trace_node(node);
  }
  sim::Resource& cpu() { return cpu_; }
  const txn::CostModel& costs() const { return cfg_.costs; }
  EngineStats& stats() { return stats_; }
  size_t pending_mod_count() const;
  const std::deque<PendingMod>& pending(storage::TableId t) const {
    return pending_[t];
  }

 private:
  // Wait until received_[t] >= v, then apply the pending prefix <= v.
  sim::Task<> ensure_table(txn::TxnCtx& txn, storage::TableId t);
  // Throw VersionConflict if the page is newer than the txn's tag.
  void check_page(const txn::TxnCtx& txn, storage::TableId t,
                  storage::PageNo p) const;
  // One-pass scan for a read that cannot suspend (slave-served, no latch):
  // walk the index once, checking, touching and copying each entry as it
  // is reached. Appends to `out`; returns the charge past index_lookup.
  sim::Time scan_in_place(const txn::TxnCtx& txn, const storage::Table& tb,
                          const api::ScanSpec& spec, storage::Rows& out);
  // Rows a one-pass scan reserves up front (fewer if its limit is lower).
  static constexpr size_t kScanReserveRows = 64;
  // True for read-only access on a table this node masters (§2.1: such
  // reads are served from the master's latest state). With the tag-upgrade
  // guard on (default) the txn's tag is raised to the master's current cut
  // and check_page enforces it; only PlantedBug::SkipTagUpgrade
  // turns this into an unchecked bypass.
  bool read_at_latest(const txn::TxnCtx& txn, storage::TableId t) const;
  // Serialize a master-served read against in-flight writers on one page:
  // take the page latch (a Shared page lock held only across the
  // synchronous row read), run check_page under it, and release before the
  // caller suspends. Prevents dirty reads of uncommitted in-place writes;
  // no-op for slave-served (purely versioned) reads.
  sim::Task<> latch_for_master_read(txn::TxnCtx& txn, storage::TableId t,
                                    storage::PageNo p);

  sim::Simulation& sim_;
  std::string name_;
  Config cfg_;
  check::PlantedBug bug_;
  storage::Database db_;
  txn::LockManager locks_;
  CacheModel cache_;
  sim::Resource cpu_;
  std::set<storage::TableId> master_tables_;
  std::function<void(const txn::WriteSetPtr&)> broadcast_fn_;

  // Pre-commit's scratch: its buffers are reused from commit to commit.
  txn::WriteSetBuilder ws_builder_;

  VersionVec version_;   // produced (mastered tables)
  VersionVec received_;  // received from masters (slave tables)
  std::vector<std::deque<PendingMod>> pending_;  // per table, FIFO
  std::vector<std::unique_ptr<sim::WaitQueue>> arrival_;  // per table
  bool shutdown_ = false;

  uint64_t next_txn_ = 1;
  uint32_t trace_node_ = UINT32_MAX;
  EngineStats stats_;
};

}  // namespace dmv::mem
