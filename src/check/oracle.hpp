// Sequential oracle: replays a recorded history against a single-copy
// model and checks one-copy serializability of the committed reads.
//
// Model: per (table, key) a chain of (version, value) pairs built by
// applying each CommitEvent's op log at its write-set db_version stamp, in
// commit (recording) order — masters precommit under strict 2PL, so per
// table the recording order *is* the version order, which the oracle
// enforces as it goes:
//
//   version-gap        a commit's db_version[t] must extend the chain head
//                      by exactly one (== head is tolerated: a write that
//                      reverts every row byte-for-byte publishes no new
//                      version);
//   at-most-once       no (origin client, origin req) pair may commit
//                      twice — resubmitted updates must dedupe;
//   snapshot-mismatch  every committed read-only txn must observe exactly
//                      the model state at its version-vector tag: each
//                      observed cell equals the chain value at the largest
//                      version <= tag[t]. Stale reads, dirty reads and
//                      torn multi-row snapshots all land here.
//
// DiscardEvents truncate the model the way fail-over truncates the
// cluster: chains for the failed class's tables are pruned above
// `confirmed` and the head clamps down. Reads are evaluated at their
// chronological position, so a read served *before* the discard is checked
// against the pre-truncation chains it really saw.
//
// The oracle knows nothing about the workload's procedures; the checker
// supplies an `expect` function that re-evaluates a read proc against a
// StateView of the model at the read's tag.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "check/history.hpp"

namespace dmv::check {

// Read-only view of the model at one version-vector tag.
class StateView {
 public:
  std::optional<int64_t> get(storage::TableId t, int64_t key) const;
  // All live (key, value) pairs of table t at the view's tag, key order.
  std::vector<std::pair<int64_t, int64_t>> scan(storage::TableId t) const;

 private:
  friend class Oracle;
  const class Oracle* oracle_ = nullptr;
  const std::vector<uint64_t>* tag_ = nullptr;
};

struct OracleConfig {
  size_t tables = 0;
  // Initial state (loader output), per table: key -> value. Values are the
  // single checked cell per row (column 1 of the workload schema).
  std::vector<std::map<int64_t, int64_t>> initial;
  // Re-evaluate a read proc against the model; must return the same cells
  // the proc put in TxnResult::values.
  std::function<std::vector<int64_t>(const StateView&, const std::string&,
                                     const api::Params&)>
      expect;
};

class Oracle {
 public:
  explicit Oracle(OracleConfig cfg);

  // Replays the history, appending named violations. Call once.
  void check(const std::vector<Event>& events, Violations* v);

  // Disaster drill (§4.6), call after check(): compare a reconstructed
  // tier image (backend rows + log-suffix fold) against the model prefix
  // at the persistence log's version frontier `logged` — the last acked
  // commit per table, since every acked update is logged before its
  // client reply. Missing, phantom, or divergent rows are all
  // `recovery-mismatch` violations tagged with `who` (which backend was
  // the bootstrap source). `tables` restricts the comparison to a subset
  // (empty = every table): a live master is checked on the tables it
  // masters, at its own version vector.
  void check_recovered_state(
      const std::map<storage::TableId, std::map<storage::Key, storage::Row>>&
          state,
      const std::vector<uint64_t>& logged, const std::string& who,
      Violations* v,
      const std::vector<storage::TableId>& tables = {}) const;

  size_t reads_checked() const { return reads_checked_; }
  size_t commits_applied() const { return commits_applied_; }

 private:
  friend class StateView;
  // Chain entry: value as of `version` (nullopt = deleted).
  struct Entry {
    uint64_t version;
    std::optional<int64_t> value;
  };
  using Chain = std::vector<Entry>;

  void apply_commit(const CommitEvent& c, Violations* v);
  void apply_discard(const DiscardEvent& d);
  void check_read(const ReadEvent& r, Violations* v);
  std::optional<int64_t> value_at(storage::TableId t, int64_t key,
                                  uint64_t version) const;

  OracleConfig cfg_;
  std::vector<std::map<int64_t, Chain>> chains_;  // per table
  std::vector<uint64_t> head_;                    // per table chain head
  // Live (origin, origin_req) -> commit stamp, pruned on discard.
  std::map<std::pair<uint32_t, uint64_t>, std::vector<uint64_t>> committed_;
  size_t reads_checked_ = 0;
  size_t commits_applied_ = 0;
};

}  // namespace dmv::check
