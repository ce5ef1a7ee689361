// Wire messages of the DMV cluster: a closed set, core::Message, one
// std::variant alternative per payload struct. net::Network carries them
// by value in envelopes; receivers dispatch with std::visit.
#pragma once

#include <map>
#include <memory>
#include <string>
#include <variant>
#include <vector>

#include "api/api.hpp"
#include "mem/checkpoint.hpp"
#include "mem/engine.hpp"
#include "net/network.hpp"
#include "txn/op_log.hpp"
#include "txn/write_set.hpp"

namespace dmv::core {

using net::NodeId;
using VersionVec = mem::VersionVec;

// ---- client <-> scheduler ----

struct ClientRequest {
  uint64_t req_id = 0;
  NodeId reply_to = net::kNoNode;
  std::string proc;
  api::Params params;
};

struct ClientReply {
  uint64_t req_id = 0;
  bool ok = false;
  api::TxnResult result;
};

// ---- scheduler <-> engine nodes ----

struct ExecTxn {
  uint64_t req_id = 0;
  NodeId reply_to = net::kNoNode;  // scheduler
  std::string proc;
  api::Params params;
  bool read_only = true;
  VersionVec tag;  // read-only: versions this transaction must observe
  // Originating client and its request id (updates only). A client that
  // fails over to a standby scheduler resubmits under the same id; the
  // master uses the pair to detect a resubmission of an update that
  // already committed (the ack died with the old scheduler) and re-acks
  // instead of executing it twice.
  NodeId origin = net::kNoNode;
  uint64_t origin_req = 0;
};

struct TxnDone {
  uint64_t req_id = 0;
  bool ok = false;
  bool version_abort = false;  // read-only version inconsistency (§2.2)
  api::TxnResult result;
  VersionVec db_version;  // updates: post-commit version vector
  txn::OpLogPtr ops;      // updates: for the persistence log
  // Committed reads: the tag the transaction actually observed. Equal to
  // the dispatch tag except for reads served by a table's master, whose
  // mastered entries were upgraded to the master's version at first touch
  // (mem::MemEngine::ensure_table). The dmv_check oracle verifies observed
  // values against the sequential model at exactly this vector.
  VersionVec read_tag;
};

// ---- replication (master -> replicas) ----

// The client-facing outcome of a committed update, replicated with its
// write-set: a slave promoted after a master+scheduler double failure
// still detects client resubmissions of updates it already holds (see
// ExecTxn::origin) and re-acks them with the real payload instead of
// success-with-empty-result. Immutable once broadcast, and shared like the
// write-set, but held apart from it: replicas keep it per client (in their
// committed marks), long after the commit's mods have been applied.
struct CommittedUpdate {
  NodeId origin = net::kNoNode;
  uint64_t origin_req = 0;
  VersionVec db_version;  // post-commit vector, for discard pruning
  api::TxnResult result;
  // The op-log rides along too: a re-ack must carry the ops so the
  // scheduler's persistence hook can (re-)log the commit — the update log
  // deduplicates by version stamp, but a re-ack with empty ops would leave
  // an acked commit unlogged when the original ack died with its scheduler
  // before the append. The same log the master's TxnDone shares.
  txn::OpLogPtr ops;

  // Simulated wire bytes the outcome adds to its write-set: the op-log.
  size_t byte_size() const {
    size_t n = 0;
    if (ops)
      for (const auto& op : *ops) n += op.byte_size();
    return n;
  }
};

struct WriteSetMsg {
  NodeId master = net::kNoNode;
  uint64_t seq = 0;  // per-master broadcast sequence, for acks
  // One payload per commit, shared by every recipient's message.
  txn::WriteSetPtr ws;
  // The master's ack wait for this write-set blocks a client reply on
  // THIS recipient's ack (all-ack mode: every replica; quorum commit:
  // voters only). The recipient flushes its cumulative-ack window
  // immediately after processing such a message instead of letting the
  // client-visible reply sit out the ack_delay coalescing window; lazy
  // catch-up streams (non-voters, WAN subscribers) keep coalescing.
  bool ack_urgent = false;
  // Null unless the update came from a client request (see ExecTxn).
  std::shared_ptr<const CommittedUpdate> committed;
};

// Master-side batching: write-sets bound for the same replica, coalesced
// inside a bounded window into one message (one base_latency, summed byte
// cost). The link is FIFO, so items apply in the order they appear — the
// order the master produced them.
struct WriteSetBatchMsg {
  NodeId master = net::kNoNode;
  std::vector<WriteSetMsg> items;
};

// Replica -> master: cumulative ack of the master's broadcast stream —
// every seq <= `seq` on this link has been received (per-link FIFO makes
// the received prefix contiguous).
struct CumAckMsg {
  uint64_t seq = 0;
};

// ---- recovery & control ----

// New primary scheduler -> master: abort in-flight unconfirmed updates,
// report the authoritative version vector (§4.1).
struct AbortAllRequest {
  NodeId reply_to = net::kNoNode;
};
struct AbortAllReply {
  VersionVec version;
};

// Scheduler -> replicas on master failure: drop queued mods above the last
// confirmed version (§4.2). `tables` restricts the discard to the failed
// master's conflict class (empty = all tables). `token` is echoed in the
// DiscardAck so concurrent recoveries (multi-class) can tell their acks
// apart.
struct DiscardAbove {
  VersionVec confirmed;
  std::vector<storage::TableId> tables;
  uint64_t token = 0;
};
// Replica -> scheduler: the discard is done. `received` is the replica's
// post-discard received vector. The recovering scheduler elects the most
// caught-up candidate from these — under quorum commit a client-acked
// write may live on only a quorum of replicas, so electing an arbitrary
// survivor could lose it.
struct DiscardAck {
  uint64_t token = 0;
  VersionVec received;
};

// Scheduler -> elected slave: become master for these tables.
struct PromoteToMaster {
  NodeId reply_to = net::kNoNode;
  std::vector<storage::TableId> tables;
  std::vector<NodeId> replicas;  // nodes to broadcast write-sets to
  // Subset of `replicas` that counts toward the write quorum: the slaves
  // and spares a fail-over would elect from. Other-class masters receive
  // the stream too but their acks must not satisfy the quorum — a commit
  // acked only by non-candidates could be lost by the next election.
  std::vector<NodeId> voters;
};
struct PromoteDone {
  VersionVec version;
};

// Scheduler -> master: replica membership changed (join/death).
struct ReplicaSetUpdate {
  std::vector<NodeId> replicas;
  std::vector<NodeId> voters;  // see PromoteToMaster
};

// ---- reintegration / data migration (§4.4) ----

struct JoinRequest {
  NodeId joiner = net::kNoNode;
};
struct JoinInfo {
  std::vector<NodeId> masters;    // one per conflict class
  NodeId support = net::kNoNode;  // support slave for page transfer
};

// Joiner -> master: subscribe to the replication stream.
struct SubscribeRequest {
  NodeId joiner = net::kNoNode;
  NodeId reply_to = net::kNoNode;
};
struct SubscribeReply {
  VersionVec db_version;  // target version the joiner must attain
};

// Joiner -> support slave: send me pages newer than mine. Also sent by a
// recovering scheduler to a promoted master on behalf of a survivor that
// lags it (fail-over catch-up, see Scheduler::recover_master).
struct PageRequest {
  NodeId reply_to = net::kNoNode;
  std::map<storage::PageId, uint64_t> have;  // joiner's per-page versions
  VersionVec target;
  // Catch-up: ship only these tables' pages (empty = a join's transfer).
  std::vector<storage::TableId> tables;
};
struct PageChunk {
  std::vector<mem::PageSnapshot> pages;
  bool last = false;
  // Catch-up chunks carry the request's target (empty for a join): the
  // receiver installs them on arrival and adopts the target with the last.
  VersionVec catch_up;
};

// Joiner -> scheduler: migration finished, add me to the read rotation.
struct JoinComplete {
  NodeId joiner = net::kNoNode;
};

// ---- spare-backup warm-up (§4.5) ----

// Active slave -> spare backup: ids of hot pages to touch.
struct PageIdHint {
  std::vector<storage::PageId> pages;
};

// ---- scheduler peering (§4.1) ----

struct VersionGossip {
  VersionVec version;
};

// Primary -> standby schedulers after reconfiguration.
struct TopologyGossip {
  std::vector<NodeId> masters;
  std::vector<NodeId> slaves;
  std::vector<NodeId> spares;
};

// Synthesized locally into a client's mailbox when a scheduler it may be
// waiting on dies (clients learn failures from broken connections).
struct SchedulerDown {
  NodeId scheduler = net::kNoNode;
};

using Message =
    std::variant<ClientRequest, ClientReply, ExecTxn, TxnDone, WriteSetMsg,
                 WriteSetBatchMsg, CumAckMsg, AbortAllRequest, AbortAllReply,
                 DiscardAbove, DiscardAck, PromoteToMaster, PromoteDone,
                 ReplicaSetUpdate, JoinRequest, JoinInfo, SubscribeRequest,
                 SubscribeReply, PageRequest, PageChunk, JoinComplete,
                 PageIdHint, VersionGossip, TopologyGossip, SchedulerDown>;
using Envelope = net::Envelope<Message>;

}  // namespace dmv::core

namespace dmv::net {
// The cluster's network, instantiated once, in core/messages.cpp.
using Network = BasicNetwork<core::Message>;
extern template class BasicNetwork<core::Message>;
}  // namespace dmv::net
