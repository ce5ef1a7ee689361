// The on-disk persistence back-end binding (§4.6).
//
// The scheduler logs the update operations of every committed in-memory
// transaction and ships them, asynchronously and in order, to a small
// number of on-disk databases. The commit is acknowledged to the client as
// soon as the log append succeeds; the disk engines drain at their own
// (disk-bound) pace. If the whole in-memory tier is lost, any backend plus
// the log suffix reconstructs the committed state.
//
// Log lifecycle: the update log is a shared deque indexed by absolute
// sequence position; each backend holds a cursor (applied watermark) into
// it instead of a private feed. A periodic checkpoint records every live
// backend's watermark and truncates the log at min(checkpoint) — the
// truncation horizon tracks the slowest live backend, so log memory stays
// bounded in steady state. A bounded-lag knob (max_lag) additionally
// truncates under pressure, past slow backends if need be (clamped so the
// freshest live backend can always still bootstrap). A backend whose
// watermark falls below the horizon cannot replay the missing prefix; its
// applier re-attaches via a row-image snapshot from the freshest live
// peer, then replays only the remaining suffix — no pause of the log.
#pragma once

#include <deque>
#include <map>
#include <memory>
#include <set>

#include "disk/engine.hpp"
#include "sim/sync.hpp"

namespace dmv::core {

class PersistenceBinding {
 public:
  struct Config {
    disk::DiskEngine::Config engine;
    int backends = 2;
    // Checkpoint/truncation cadence. 0 disables truncation entirely (the
    // log then grows without bound, as the pre-lifecycle stub did).
    sim::Time checkpoint_period = 5 * sim::kSec;
    // Bounded-lag backpressure: when the retained log exceeds this many
    // records, truncate down to the bound even past slow backends (clamped
    // to the freshest live watermark so every record survives somewhere
    // recoverable). 0 = no pressure truncation.
    uint64_t max_lag = 0;
    // Planted bug for dmv_check --mutations: bootstrap_image() skips the
    // log suffix above the backend watermark, passing a stale snapshot off
    // as the acked prefix. Must be caught as `recovery-mismatch`.
    bool mut_skip_suffix = false;
  };

  PersistenceBinding(sim::Simulation& sim, Config cfg,
                     const disk::SchemaFn& schema);
  ~PersistenceBinding();

  // Give every backend an exact copy of the initial database image.
  void load(const storage::Database& image);

  void start();
  void stop();

  // Scheduler hook: append a committed transaction's ops to the update log
  // and wake the backend appliers. `db_version` is the post-commit version
  // vector — it orders records that arrive out of version order across a
  // scheduler fail-over and identifies duplicate re-logs of the same
  // commit (a resubmission re-acked via committed-mark dedup). Safe to
  // call after stop(): late TxnDones draining through a failing-over
  // scheduler are dropped here.
  void log_update(const std::vector<txn::OpRecord>& ops,
                  const std::vector<uint64_t>& db_version);

  // Retained records (after truncation).
  size_t log_size() const { return log_.size(); }
  // Truncation horizon: number of records dropped from the front.
  uint64_t log_base() const { return log_base_seq_; }
  // Total records ever logged: horizon + retained.
  uint64_t total_seq() const { return log_base_seq_ + log_.size(); }
  // Per-table max version stamp ever logged == the acked-commit frontier
  // (every acked update is logged before its client reply is sent).
  const std::vector<uint64_t>& logged_version() const {
    return logged_version_;
  }

  disk::DiskEngine& backend(size_t i) { return *backends_[i].engine; }
  const disk::DiskEngine& backend(size_t i) const {
    return *backends_[i].engine;
  }
  size_t backend_count() const { return backends_.size(); }
  uint64_t backend_applied(size_t i) const {
    return backends_[i].applied_log_seq;
  }
  bool backend_live(size_t i) const { return backends_[i].live; }
  // Can this backend's disk state + the retained log suffix reconstruct
  // the full committed prefix? False once truncation passed its watermark
  // (or while it is mid-reattach from a peer snapshot).
  bool backend_recoverable(size_t i) const {
    const Backend& b = backends_[i];
    return !b.attaching && b.applied_log_seq >= log_base_seq_;
  }

  // Every live backend attached and at the log tail (and at least one
  // live backend exists).
  bool drained() const;

  // Fail-stop backend fault injection. Kill freezes the backend's disk
  // state at record granularity (an in-flight record may complete, but the
  // watermark does not advance); restart resumes replay from the frozen
  // watermark, or via snapshot+suffix re-attach if the log has truncated
  // past it.
  void kill_backend(size_t idx);
  void restart_backend(size_t idx);

  // Kick backend `idx`'s applier and wait until it reaches the log tail as
  // of the call (returns early if the backend or binding dies).
  sim::Task<> catch_up(size_t idx);

  // Disaster recovery (§4.6): materialized table images equal to backend
  // `idx`'s disk state plus the in-order fold of the retained log suffix
  // it has not applied. Requires backend_recoverable(idx). Post-image
  // records make the fold exact even over a partially applied record.
  using TableImage = std::map<storage::Key, storage::Row>;
  std::map<storage::TableId, TableImage> bootstrap_image(size_t idx) const;

  // Disaster recovery, step 2 (§4.6): after the whole in-memory tier is
  // lost, a fresh tier is bootstrapped from a drained backend. Returns a
  // loader (row-copy of the backend's current state) usable as
  // DmvCluster::Config::loader for the replacement cluster.
  static std::function<void(storage::Database&)> snapshot_loader(
      const disk::DiskEngine& backend);

 private:
  // Per-table (table, stamp) pairs of one log record, for version-order
  // insertion and duplicate detection.
  using Stamps = std::vector<std::pair<storage::TableId, uint64_t>>;
  struct LogRec {
    txn::TxnRecord rec;
    Stamps stamps;
  };
  struct Backend {
    std::unique_ptr<disk::DiskEngine> engine;
    // Cursor: absolute log positions [0, applied_log_seq) are applied.
    uint64_t applied_log_seq = 0;
    uint64_t checkpoint_seq = 0;
    bool live = true;
    bool attaching = false;          // waiting for / running a re-attach
    std::shared_ptr<bool> alive;     // per-incarnation kill flag
    std::unique_ptr<sim::WaitQueue> wake;   // applier sleeps at the tail
    std::unique_ptr<sim::WaitQueue> drain;  // catch_up waiters
  };

  sim::Task<> applier_loop(size_t idx, std::shared_ptr<bool> alive);
  sim::Task<> checkpoint_loop(std::shared_ptr<bool> alive);
  // One synchronous re-attach attempt: snapshot the freshest live peer
  // into a fresh engine. False when no usable source exists yet.
  bool try_reattach(size_t idx);
  void truncate_to(uint64_t new_base);
  const LogRec& at(uint64_t abs) const { return log_[abs - log_base_seq_]; }
  void export_gauges() const;

  sim::Simulation& sim_;
  Config cfg_;
  disk::SchemaFn schema_;
  std::vector<Backend> backends_;
  // Killed incarnations may still have a suspended apply in their old
  // engine; retired engines are parked here instead of destroyed.
  std::vector<std::unique_ptr<disk::DiskEngine>> retired_;
  std::deque<LogRec> log_;
  uint64_t log_base_seq_ = 0;
  // Bumped on every mid-log (version-ordered) insert; appliers re-derive
  // their cursor instead of advancing past a record they did not apply.
  uint64_t insert_epoch_ = 0;
  std::vector<std::set<uint64_t>> logged_stamps_;  // per table, dedup
  std::vector<uint64_t> logged_version_;
  std::unique_ptr<sim::WaitQueue> ck_wq_;      // checkpoint loop idle wait
  std::unique_ptr<sim::WaitQueue> attach_wq_;  // re-attachers await a source
  std::shared_ptr<bool> alive_;
};

}  // namespace dmv::core
