// A database process on one cluster node: MemEngine + the DMV protocol.
//
// The node's message loop dispatches:
//  - ExecTxn: spawn a transaction handler. Updates run the full Figure-2
//    pre-commit (eager write-set broadcast, wait for acks from every live
//    replica, then release locks and report the new version vector to the
//    scheduler). Read-only transactions run tagged; a version-inconsistency
//    abort is reported so the scheduler can retry with a fresh tag.
//  - WriteSetMsg / WriteSetBatchMsg: queue mods (lazy application) and
//    cumulatively ack the master (the ack covers the whole received
//    prefix of its stream, optionally coalesced over a window).
//  - Control: promotion, discard-above (master recovery), abort-all
//    (scheduler recovery), replica-set updates.
//  - Migration: serve PageRequests as a support slave; run the §4.4 join
//    protocol as a reintegrating node.
//  - Warm-up: apply PageIdHints to the cache; as a designated active slave,
//    ship hot-page ids to a spare backup every N transactions.
#pragma once

#include <unordered_map>

#include "core/messages.hpp"
#include "mem/checkpoint.hpp"
#include "util/rng.hpp"

namespace dmv::core {

struct EngineNodeStats {
  uint64_t txns_executed = 0;
  uint64_t pages_served = 0;   // migration, as support slave
  uint64_t hints_sent = 0;
  sim::Time join_started = -1;
  sim::Time join_pages_done = -1;  // data-migration phase end
};

class EngineNode {
 public:
  struct Config {
    sim::Time checkpoint_period = 0;  // 0: checkpointing off
    // Page-id-transfer warm-up (§4.5 second technique): if hint_target is
    // set, ship hot-page ids there every hint_every_txns transactions.
    NodeId hint_target = net::kNoNode;
    uint64_t hint_every_txns = 100;
    // Ablation: apply incoming write-sets immediately instead of lazily
    // on first read (costs CPU off the read path; loses the "create the
    // version a reader needs, when it needs it" batching). Implemented as
    // one persistent per-table drainer woken by arrivals.
    bool eager_apply = false;
    // --- replication pipeline (cumulative acks + batching) ---
    // Master side: coalesce up to batch_max_writesets write-sets bound for
    // the same replica into one WriteSetBatchMsg, holding each for at most
    // batch_delay. Batching needs both knobs (>1 and >0): a count-only
    // window with no deadline could hold a commit's write-set forever.
    // Defaults are the unbatched baseline (send immediately).
    size_t batch_max_writesets = 1;
    sim::Time batch_delay = 0;
    // Replica side: acks are cumulative (CumAckMsg covers the whole
    // received prefix) and may be coalesced — send after every
    // ack_every_n write-sets or ack_delay after the first unacked one,
    // whichever comes first. Same both-knobs rule; defaults ack every
    // write-set immediately.
    uint64_t ack_every_n = 1;
    sim::Time ack_delay = 0;
    // Test-only mutation (dmv_check smoke mode): apply the items of an
    // incoming WriteSetBatchMsg in reverse, violating the FIFO version
    // order the replication stream guarantees. Never set outside
    // bench/check_sweep --mutations.
    bool mut_batch_reverse = false;
    // --- quorum commit (geo-replication) ---
    // When set, the client-visible reply waits only for a write-quorum of
    // voter acks (plus every same-region voter — the synchronous replicas)
    // instead of every replica; the rest catch up lazily through the
    // cumulative-ack stream, and the scheduler's version vectors gate
    // reads on them exactly as for any stale slave.
    bool quorum_commit = false;
    // Write-quorum size counted over voters + this master; 0 = majority.
    int write_quorum = 0;
    // Test-only mutation: reply to the client without waiting for any
    // acks — the bug quorum reconciliation exists to rule out. Never set
    // outside bench/check_sweep --mutations.
    bool mut_reply_before_quorum = false;
    // Test-only mutation: execute updates for tables this node does NOT
    // master instead of refusing them (pairs with the scheduler-side
    // wrong-class routing mutation: versions get stamped off a
    // non-authoritative counter and two masters feed one table's stream).
    // Never set outside bench/check_sweep --mutations.
    bool mut_wrong_class_route = false;
    // Test-only mutation: a resubmission skips the lookup of its original
    // still waiting for replica acks, so it finds no committed mark and
    // executes a second time. Never set outside bench/check_sweep
    // --mutations.
    bool mut_mark_after_ack = false;
  };

  EngineNode(net::Network& net, NodeId id, const api::ProcRegistry& procs,
             const mem::SchemaFn& schema,
             const mem::MemEngine::Config& engine, Config cfg,
             mem::StableStore* store = nullptr);
  ~EngineNode();

  NodeId id() const { return id_; }
  mem::MemEngine& engine() { return *engine_; }
  EngineNodeStats& stats() { return stats_; }
  const Config& config() const { return cfg_; }

  // Pre-start role assignment (initial deployment). `voters` is the
  // subset of replicas whose acks may satisfy a write quorum (the
  // election candidate pool); empty means every replica votes.
  void make_master(std::set<storage::TableId> tables,
                   std::vector<NodeId> replicas,
                   std::vector<NodeId> voters = {});

  // Start the message loop (+ checkpointer if configured). If
  // `restore_from_store` and a StableStore was given, reload the local
  // checkpoint first (restart path).
  void start(bool restore_from_store = false);

  // Begin the §4.4 reintegration protocol against `scheduler`. The
  // optional peer list lets the joiner retry against another scheduler if
  // `scheduler` dies (or rejects the join) mid-protocol. `as_spare` asks
  // the scheduler to admit this node as a spare backup instead of an
  // active slave (elastic scale-out of the warm-standby pool).
  void begin_rejoin(NodeId scheduler, std::vector<NodeId> peers = {},
                    bool as_spare = false);

  // Called by the cluster controller after net.kill(id): release volatile
  // state, cancel waiters.
  void on_killed();

  // Failure notification for some *other* node: prune it from replica and
  // subscriber lists and from pending ack waits (a master wedged in
  // pre-commit must not wait for a dead replica), and cancel/retry a join
  // that depends on it.
  void on_peer_killed(NodeId n);

  bool is_master() const { return engine_->is_master(); }
  const std::vector<NodeId>& replicas() const { return replicas_; }
  void set_hint_target(NodeId target) { cfg_.hint_target = target; }

 private:
  struct Inflight {
    txn::TxnCtx* txn = nullptr;
    bool in_precommit = false;
  };
  // One broadcast's ack bookkeeping. In the default all-ack mode the wait
  // completes when `pending` empties. Under quorum commit it completes as
  // soon as every same-region voter (sync_pending) has acked AND `votes`
  // voter acks arrived — or when pending empties anyway (every replica
  // acked or died), which keeps the no-live-replica degradation identical
  // to the all-ack mode.
  struct AckWait {
    std::set<NodeId> pending;
    std::unique_ptr<sim::WaitQueue> done;
    bool cancelled = false;
    bool quorum = false;
    std::set<NodeId> voters;        // snapshot of the voter set, ∩ targets
    std::set<NodeId> sync_pending;  // same-region voters yet to ack
    size_t votes = 0;               // voter acks received
    size_t need = 0;                // voter acks required (self-vote excluded)
    bool satisfied() const {
      if (pending.empty()) return true;
      if (!quorum) return false;
      return sync_pending.empty() && votes >= need;
    }
  };
  // At-most-once bookkeeping: the last committed update per client.
  // Clients are single-outstanding, so one mark per client suffices; a
  // resubmission (same req after a scheduler fail-over) is re-acked from
  // here instead of executed twice. Replicated via the write-set stream
  // and pruned by DiscardAbove so a promoted slave inherits only marks
  // whose updates it actually kept.
  using CommittedMark = std::shared_ptr<const CommittedUpdate>;
  // Master->replica batch window, one per destination link. Urgent
  // (client-blocking) write-sets take a Nagle-style path: flush
  // immediately when the link is idle (acked_seq has caught up with
  // sent_seq), otherwise coalesce behind the in-flight batch and flush
  // when its cumulative ack returns — so batching never costs a blocked
  // client more than one ack round-trip, and batches still form exactly
  // when commits overlap (the only regime where message economy exists).
  // Lazy streams (quorum non-voters, catch-up subscribers) ignore the
  // urgent path and keep the full batch_delay window.
  struct Outbox {
    std::vector<WriteSetMsg> items;
    size_t bytes = 0;
    bool timer_armed = false;
    bool has_urgent = false;  // pending items include a client-blocking one
    uint64_t sent_seq = 0;    // highest seq flushed on this link
    uint64_t acked_seq = 0;   // highest cumulative ack from this replica
  };
  // Replica-side cumulative-ack window, one per master stream. Per-link
  // FIFO makes received seqs contiguous, so last_seq IS the cumulative
  // ack; acked_seq is how far we have told the master.
  struct CumAckState {
    uint64_t last_seq = 0;
    uint64_t acked_seq = 0;
    bool timer_armed = false;
  };

  sim::Task<> main_loop();
  sim::Task<> handle_exec(ExecTxn m);
  sim::Task<> run_update(ExecTxn m);
  sim::Task<> run_read(ExecTxn m);
  sim::Task<> handle_abort_all(NodeId from, AbortAllRequest m);
  sim::Task<> handle_promote(NodeId from, PromoteToMaster m);
  sim::Task<> serve_page_request(NodeId to, PageRequest m);
  // Install every page newer than our copy; returns how many.
  size_t install_newer(const std::vector<mem::PageSnapshot>& pages);
  sim::Task<> rejoin_protocol(NodeId scheduler);
  // Abort the current join attempt and schedule a capped-backoff retry
  // against the first live scheduler in join_schedulers_.
  void join_failed(const std::shared_ptr<bool>& alive);
  void broadcast_write_set(const txn::WriteSetPtr& ws);
  sim::Task<bool> wait_acks(uint64_t seq);
  // Ack-wait mutation helpers: `from` acked everything up to the wait's
  // seq / died / left the replica set; wake the committer if satisfied.
  void ack_wait_acked(AckWait& w, NodeId from);
  void ack_wait_dropped(AckWait& w, NodeId from);
  // Batch-window plumbing (master side).
  // `bytes`: the simulated size of msg's payload.
  void enqueue_write_set(NodeId to, const WriteSetMsg& msg, size_t bytes);
  void flush_outbox(NodeId to);
  void prune_outbox(const std::set<NodeId>& live);
  // Cumulative-ack plumbing (replica side).
  void apply_incoming_write_set(const WriteSetMsg& ws);
  void note_received(NodeId master, uint64_t seq);
  void flush_cum_ack(NodeId master);
  void flush_all_cum_acks();
  sim::Task<> eager_drainer(storage::TableId t, std::shared_ptr<bool> alive);
  void on_replica_set(std::vector<NodeId> replicas,
                      std::vector<NodeId> voters);
  void maybe_send_hints();
  void reply_txn_done(const ExecTxn& m, TxnDone done);

  net::Network& net_;
  NodeId id_;
  const api::ProcRegistry& procs_;
  Config cfg_;
  std::unique_ptr<mem::MemEngine> engine_;
  mem::StableStore* store_;
  std::unique_ptr<mem::Checkpointer> checkpointer_;
  std::shared_ptr<bool> alive_;

  std::vector<NodeId> replicas_;
  // Election candidate pool (live slaves + spares) as last told by the
  // scheduler; the only acks that may satisfy a write quorum. Empty =
  // every replica votes (pre-start make_master default).
  std::vector<NodeId> voters_;
  // In-progress joiners subscribed to our stream (§4.4) but not yet in the
  // scheduler's replica sets. Kept separate so a ReplicaSetUpdate (which
  // *replaces* replicas_) cannot silently drop them mid-migration; unioned
  // with replicas_ for every broadcast, graduated out when they appear in
  // a ReplicaSetUpdate, pruned on death.
  std::vector<NodeId> subscribers_;
  uint64_t next_bcast_seq_ = 0;
  uint64_t last_bcast_seq_ = 0;  // seq of the most recent broadcast (valid
                                 // immediately after precommit returns)
  std::map<uint64_t, std::unique_ptr<AckWait>> ack_waits_;
  std::map<NodeId, Outbox> outbox_;
  std::map<NodeId, CumAckState> cum_acks_;

  std::unordered_map<uint64_t, Inflight*> inflight_;
  std::unique_ptr<sim::WaitQueue> precommit_drain_;
  std::map<NodeId, CommittedMark> committed_;
  // Updates past precommit whose mark waits on their replica acks, by
  // (client, request): a resubmission that arrives in that window waits
  // here for the original's ack, then is re-acked from committed_. A
  // queue of its own, because wait_acks erases the AckWait as soon as the
  // original resumes.
  std::map<std::pair<NodeId, uint64_t>, std::shared_ptr<sim::WaitQueue>>
      awaiting_ack_;
  // Client outcome of the update currently in precommit, keyed by engine
  // txn id: broadcast_write_set (called from inside precommit) stamps its
  // db_version and shares it on the outgoing WriteSetMsg.
  std::map<uint64_t, std::shared_ptr<CommittedUpdate>> origin_by_txn_;

  // Join-protocol reply channels (one protocol at a time).
  std::unique_ptr<sim::Channel<SubscribeReply>> sub_replies_;
  std::unique_ptr<sim::Channel<JoinInfo>> join_infos_;
  std::unique_ptr<sim::Channel<PageChunk>> page_chunks_;

  // Join liveness state: the peer the current protocol step awaits (its
  // death closes the channels, waking the join coroutine to retry), the
  // scheduler list for retries, and a capped attempt counter.
  bool joining_ = false;
  bool join_as_spare_ = false;
  NodeId join_peer_ = net::kNoNode;
  std::vector<NodeId> join_schedulers_;
  int join_attempts_ = 0;

  uint64_t txns_since_hint_ = 0;
  EngineNodeStats stats_;
};

}  // namespace dmv::core
