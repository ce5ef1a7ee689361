// History recorder for the one-copy-serializability checker.
//
// A Recorder is the check::Sink of one simulated run's DmvCluster. It
// captures, in chronological (virtual-time) order, every event the
// sequential oracle needs:
//
//   Commit  — a master precommitted an update: op log (post-images),
//             the write-set's per-table db_version stamp, and the
//             originating (client, req) pair for at-most-once checking;
//   Read    — a scheduler delivered a committed read-only result to a
//             client: proc, params, the version-vector tag the read ran
//             at, and the observed cells (TxnResult::values);
//   Discard — a scheduler started a fail-over and told replicas to drop
//             replicated state above `confirmed` for the failed class's
//             tables (the oracle prunes its model chains to match).
//
// One property is checked online rather than by replay: *tag coverage*.
// Every update ack carries the db_version the commit was stamped with; the
// recorder folds acks into a per-scheduler floor and requires every
// subsequently dispatched read tag to cover that floor. This is the
// session-order guarantee ("a client that saw its update acked must not
// read a snapshot older than that update"), and it is invisible to pure
// snapshot replay: a read tagged too low still *matches* the model at its
// too-low tag. Dropping the scheduler's ack merge
// (PlantedBug::SkipAckMerge) is caught here and nowhere else.
#pragma once

#include <cstdint>
#include <map>
#include <ostream>
#include <sstream>
#include <string>
#include <variant>
#include <vector>

#include "check/sink.hpp"
#include "sim/simulation.hpp"

namespace dmv::check {

// Named violations a run collects: the recorder's online check, the
// oracle replay and the checker's structural invariants all append here.
struct Violations {
  std::vector<std::string> items;
  bool ok() const { return items.empty(); }
  void add(std::string msg) { items.push_back(std::move(msg)); }
};

struct CommitEvent {
  sim::Time t = 0;
  uint32_t node = 0;        // master that precommitted
  uint32_t origin = 0;      // client node (kNoNode for internal txns)
  uint64_t origin_req = 0;  // client request id (at-most-once key)
  std::vector<txn::OpRecord> ops;
  std::vector<uint64_t> db_version;  // write-set version stamp
};

struct ReadEvent {
  sim::Time t = 0;
  uint32_t scheduler = 0;
  uint32_t node = 0;  // engine that served the read
  std::string proc;
  api::Params params;
  std::vector<uint64_t> tag;  // version vector the read executed at
  api::TxnResult result;
};

struct DiscardEvent {
  sim::Time t = 0;
  uint32_t scheduler = 0;
  std::vector<uint64_t> confirmed;
  std::vector<storage::TableId> tables;  // failed class's tables
};

using Event = std::variant<CommitEvent, ReadEvent, DiscardEvent>;

class Recorder final : public Sink {
 public:
  explicit Recorder(sim::Simulation& sim) : sim_(sim) {}

  // ---- Sink ----
  void update_commit(uint32_t node, uint32_t origin, uint64_t origin_req,
                     const std::vector<txn::OpRecord>& ops,
                     const std::vector<uint64_t>& db_version) override;
  void read_tag(uint32_t scheduler,
                const std::vector<uint64_t>& tag) override;
  void read_done(uint32_t scheduler, uint32_t node, const std::string& proc,
                 const api::Params& params,
                 const std::vector<uint64_t>& read_tag,
                 const api::TxnResult& result) override;
  void update_ack(uint32_t scheduler,
                  const std::vector<uint64_t>& db_version) override;
  void discard(uint32_t scheduler, const std::vector<uint64_t>& confirmed,
               const std::vector<storage::TableId>& tables) override;

  const std::vector<Event>& events() const { return events_; }
  // Violations found online (tag-coverage); merged into the run report
  // alongside whatever the oracle replay finds.
  const Violations& online() const { return online_; }

  size_t commit_count() const { return commits_; }

  // One event per line, for failure artifacts (`--artifacts`).
  void dump(std::ostream& os) const;
  std::string dump_string() const {
    std::ostringstream os;
    dump(os);
    return os.str();
  }

 private:
  sim::Simulation& sim_;
  std::vector<Event> events_;
  // Per-scheduler floor: running max over acked commit stamps.
  std::map<uint32_t, std::vector<uint64_t>> acked_floor_;
  Violations online_;
  size_t commits_ = 0;
};

}  // namespace dmv::check
