// History-recording hook points (dmv_check).
//
// The core cluster code reports the few events the one-copy-serializability
// oracle needs — committed update write-sets in master commit order, the
// tag/observed-values of every committed read, scheduler-side update acks,
// and recovery discards — through the Sink its DmvCluster was built with,
// which the cluster hands to each scheduler and engine node. This header
// is intentionally dependency-free in the other direction: dmv_core only
// sees the abstract interface, so the checker library (dmv_check) can depend
// on dmv_core without a cycle. With no sink (the default, and all
// production-shaped benches) every hook is a single pointer test.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "api/api.hpp"
#include "storage/page.hpp"
#include "txn/op_log.hpp"

namespace dmv::check {

class Sink {
 public:
  virtual ~Sink() = default;

  // A master committed an update: its logical row ops, the post-commit
  // version vector, and the originating (client, request) pair for
  // at-most-once accounting. Called after precommit broadcast, before the
  // master suspends for acks — i.e. in master commit (version) order.
  virtual void update_commit(uint32_t node, uint32_t origin,
                             uint64_t origin_req,
                             const std::vector<txn::OpRecord>& ops,
                             const std::vector<uint64_t>& db_version) = 0;

  // A scheduler dispatched a read-only transaction with this tag.
  virtual void read_tag(uint32_t scheduler,
                        const std::vector<uint64_t>& tag) = 0;

  // A scheduler accepted a committed read-only result served by engine
  // `node`. `read_tag` is the tag the transaction actually observed
  // (upgraded for master-served reads, see core::TxnDone::read_tag).
  virtual void read_done(uint32_t scheduler, uint32_t node,
                         const std::string& proc, const api::Params& params,
                         const std::vector<uint64_t>& read_tag,
                         const api::TxnResult& result) = 0;

  // A scheduler merged a committed update's db_version before acking the
  // client (the §4.1 vector merge PlantedBug::SkipAckMerge skips).
  virtual void update_ack(uint32_t scheduler,
                          const std::vector<uint64_t>& db_version) = 0;

  // Recovery: a scheduler told replicas to drop mods above `confirmed`
  // for `tables` (empty = all) — the oracle prunes unconfirmed commits of
  // the failed master the same way.
  virtual void discard(uint32_t scheduler,
                       const std::vector<uint64_t>& confirmed,
                       const std::vector<storage::TableId>& tables) = 0;
};

}  // namespace dmv::check
