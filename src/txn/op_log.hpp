// Row-based logical operation records.
//
// Three consumers:
//  - the on-disk tier's logical-log replication (active-active sync and
//    the 30-minute stale-backup shipping of Fig 5a/b);
//  - the DMV scheduler's update-query log (§4.6): committed in-memory
//    update transactions are logged and batched to the on-disk back-end
//    for persistence;
//  - crash recovery replay of the on-disk back-end.
//
// Records carry the post-image row (row-based, like MySQL RBR), so replay
// is deterministic and idempotent per record kind.
#pragma once

#include <memory>
#include <vector>

#include "storage/value.hpp"
#include "storage/page.hpp"

namespace dmv::txn {

struct OpRecord {
  enum class Kind { Insert, Update, Delete };
  Kind kind = Kind::Insert;
  storage::TableId table = 0;
  storage::Key pk;
  storage::Row row;  // post-image; empty for Delete

  size_t byte_size() const {
    size_t n = 16;
    for (const auto& v : pk)
      n += std::holds_alternative<std::string>(v)
               ? std::get<std::string>(v).size() + 8
               : 8;
    for (const auto& v : row)
      n += std::holds_alternative<std::string>(v)
               ? std::get<std::string>(v).size() + 8
               : 8;
    return n;
  }
};

// A committed update's op-log, built once by its master and shared,
// immutable, by everything that carries it: the client-outcome mark, the
// scheduler's reply and through it the persistence log, and on the
// replicated disk tier its log and every replica feed.
using OpLogPtr = std::shared_ptr<const std::vector<OpRecord>>;

// All logical writes of one committed transaction, in execution order.
// Copying a record shares its op-log.
struct TxnRecord {
  uint64_t seq = 0;  // commit sequence number on the origin engine
  OpLogPtr ops;

  size_t byte_size() const {
    size_t n = 8;
    for (const auto& op : *ops) n += op.byte_size();
    return n;
  }
};

}  // namespace dmv::txn
