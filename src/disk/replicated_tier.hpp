// Replicated on-disk tier — the baseline system of Figure 5(a,b).
//
// "The InnoDB replicated tier contains two active nodes and one passive
// backup. The two active nodes are kept up-to-date using a conflict-aware
// scheduler and both process read-only queries. The spare node is updated
// every 30 minutes."
//
// Updates execute on one active (the sequencer); the committed TxnRecord
// goes into the tier's logical log and is applied FIFO on the other
// actives. The passive backup receives the log only at `backup_sync_period`
// boundaries, so at failure time it is up to half a period stale. Fail-over
// ships the backlog and replays it at disk speed (the paper's ~94 s
// "DB Update" phase), then the promoted backup warms its buffer pool under
// live traffic (the ~3 min half-capacity trough of Fig 5a).
#pragma once

#include <memory>
#include <vector>

#include "disk/engine.hpp"

namespace dmv::disk {

class ReplicatedDiskTier {
 public:
  // The paper's tier: two actives and one passive backup.
  static constexpr size_t kActives = 2;
  static constexpr size_t kBackups = 1;

  struct Config {
    DiskEngine::Config engine;
    sim::Time backup_sync_period = 30 * 60 * sim::kSec;
  };

  struct FailoverStats {
    sim::Time failed_at = -1;
    sim::Time db_update_start = -1;
    sim::Time db_update_done = -1;  // backlog fully replayed; promoted
    size_t backlog_txns = 0;
    sim::Time db_update_duration() const {
      return db_update_done - db_update_start;
    }
  };

  ReplicatedDiskTier(sim::Simulation& sim, Config cfg, const SchemaFn& schema,
                     const api::ProcRegistry& procs);
  ~ReplicatedDiskTier();

  // Give every replica an exact copy of the initial data image.
  void load(const storage::Database& image);

  // Start repliers and the periodic backup sync. Call once, before traffic.
  void start();
  void stop();

  // Client entry point: routes reads round-robin over actives, updates to
  // the sequencer with FIFO apply on the other actives. Returns nullopt if
  // no node could serve the request.
  // Lazy coroutine: owns its inputs by value.
  sim::Task<std::optional<api::TxnResult>> execute(std::string proc,
                                                   api::Params params);

  // Fail-stop an active node; triggers automatic backup integration.
  void kill_active(size_t idx);

  size_t active_count() const;
  DiskEngine& engine(size_t i) { return *nodes_[i].engine; }
  bool is_active(size_t i) const { return nodes_[i].active; }
  const FailoverStats& failover() const { return failover_; }
  uint64_t log_size() const { return log_.size(); }

 private:
  struct Node {
    std::unique_ptr<DiskEngine> engine;
    bool active = false;
    bool dead = false;
    uint64_t applied_tier_seq = 0;
    std::unique_ptr<sim::Channel<txn::TxnRecord>> feed;
  };

  sim::Task<> applier_loop(size_t idx);
  sim::Task<> backup_sync_loop();
  sim::Task<> failover_task(size_t backup_idx);
  void ship_to(size_t idx, uint64_t from_seq);
  size_t pick_read_node();
  size_t sequencer() const;

  sim::Simulation& sim_;
  Config cfg_;
  const api::ProcRegistry& procs_;
  std::vector<Node> nodes_;
  std::vector<txn::TxnRecord> log_;  // tier-wide logical update log
  uint64_t next_seq_ = 0;
  uint64_t backup_shipped_seq_ = 0;
  size_t rr_ = 0;
  std::shared_ptr<bool> alive_;
  sim::WaitQueue applied_q_;
  FailoverStats failover_;
};

}  // namespace dmv::disk
