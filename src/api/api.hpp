// Client-facing transaction API.
//
// Application logic (the TPC-W interactions, the examples) is written once
// against api::Connection and runs unchanged on either engine:
//  - a DMV in-memory cluster session (routed by the version-aware
//    scheduler: reads to a tagged slave, updates to the conflict-class
//    master), or
//  - an on-disk engine session (the InnoDB baseline).
//
// Transactions are registered as named procedures (ProcRegistry); the
// scheduler ships {proc name, params} to a database node, mirroring the
// paper's setup where the scheduler is pre-configured with the types of
// transactions the application uses.
#pragma once

#include <algorithm>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "sim/task.hpp"
#include "storage/page.hpp"
#include "storage/rows.hpp"
#include "storage/value.hpp"
#include "util/assert.hpp"

namespace dmv::api {

// Declarative range scan; both engines execute it as given.
struct ScanSpec {
  int index = -1;  // -1: primary key; else secondary index position
  std::optional<storage::Key> lo;
  std::optional<storage::Key> hi;
  size_t limit = SIZE_MAX;
  bool reverse = false;  // newest-first (descending key order)
  // Residual predicate on each row in range; rows it rejects are skipped.
  std::function<bool(const storage::RowRef&)> filter;
};

// Named parameters for a procedure invocation: a key-sorted flat vector
// searched by binary search, shared copy-on-write. A request is built once
// by its client and then copied hop by hop (client -> scheduler -> engine
// node, and into the check recorder); each copy is a reference-count bump,
// and only set() on a shared Params clones the entries.
class Params {
 public:
  using Entry = std::pair<std::string, storage::Value>;

  Params& set(std::string k, storage::Value v) {
    if (!kv_) {
      kv_ = std::make_shared<std::vector<Entry>>();
      kv_->reserve(4);  // most requests fit: one allocation, not three
    } else if (kv_.use_count() > 1) {
      kv_ = std::make_shared<std::vector<Entry>>(*kv_);
    }
    auto it = lower_bound(kv_->begin(), kv_->end(), k);
    if (it != kv_->end() && it->first == k)
      it->second = std::move(v);
    else
      kv_->emplace(it, std::move(k), std::move(v));
    return *this;
  }
  int64_t i(std::string_view k) const { return std::get<int64_t>(at(k)); }
  double d(std::string_view k) const { return std::get<double>(at(k)); }
  const std::string& s(std::string_view k) const {
    return std::get<std::string>(at(k));
  }
  bool has(std::string_view k) const { return find(k) != nullptr; }
  // Full key/value view, in key order (history recording: the dmv_check
  // recorder serializes the invocation so the oracle can re-evaluate it).
  const std::vector<Entry>& raw() const {
    static const std::vector<Entry> kEmpty;
    return kv_ ? *kv_ : kEmpty;
  }

 private:
  template <typename It>
  static It lower_bound(It first, It last, std::string_view k) {
    return std::lower_bound(
        first, last, k,
        [](const Entry& e, std::string_view key) { return e.first < key; });
  }
  const storage::Value* find(std::string_view k) const {
    if (!kv_) return nullptr;
    auto it = lower_bound(kv_->cbegin(), kv_->cend(), k);
    return it != kv_->end() && it->first == k ? &it->second : nullptr;
  }
  const storage::Value& at(std::string_view k) const {
    const storage::Value* v = find(k);
    DMV_ASSERT_MSG(v != nullptr, "missing param " << k);
    return *v;
  }
  std::shared_ptr<std::vector<Entry>> kv_;
};

struct TxnResult {
  bool ok = true;
  uint64_t rows = 0;       // rows produced (the "web page" payload size)
  int64_t value = 0;       // procedure-specific scalar (e.g. new order id)
  // Procedure-specific observed cells (read-only procs that want their
  // full read set checked against the dmv_check sequential oracle fill
  // this; empty for procs that don't participate in history checking).
  std::vector<int64_t> values;
};

// One transaction's query surface. Its one implementation,
// txn::EngineConnection, runs the operations on either engine.
class Connection {
 public:
  virtual ~Connection() = default;
  virtual sim::Task<std::optional<storage::Row>> get(
      storage::TableId t, const storage::Key& pk) = 0;
  // The rows are copied out, so the result stays valid after the
  // transaction ends.
  virtual sim::Task<storage::Rows> scan(storage::TableId t,
                                        ScanSpec spec) = 0;
  // False on duplicate primary key.
  virtual sim::Task<bool> insert(storage::TableId t,
                                 const storage::Row& row) = 0;
  // False if the row is absent.
  virtual sim::Task<bool> update(
      storage::TableId t, const storage::Key& pk,
      const std::function<void(storage::Row&)>& mutate) = 0;
  virtual sim::Task<bool> remove(storage::TableId t,
                                 const storage::Key& pk) = 0;
};

using ProcFn =
    std::function<sim::Task<TxnResult>(Connection&, const Params&)>;

// Static description of a transaction type, used by the scheduler for
// routing and conflict-class assignment (§2.1: "the scheduler is
// pre-configured with the types of transactions used by the application
// and the tables each of them accesses").
struct ProcInfo {
  ProcFn fn;
  bool read_only = true;
  std::vector<storage::TableId> tables;  // tables the proc may access
};

class ProcRegistry {
 public:
  void register_proc(const std::string& name, ProcInfo info) {
    DMV_ASSERT_MSG(!procs_.count(name), "duplicate proc " << name);
    procs_[name] = std::move(info);
  }
  const ProcInfo& find(const std::string& name) const {
    auto it = procs_.find(name);
    DMV_ASSERT_MSG(it != procs_.end(), "unknown proc " << name);
    return it->second;
  }
  bool contains(const std::string& name) const {
    return procs_.count(name) > 0;
  }
  size_t size() const { return procs_.size(); }

  template <typename Fn>
  void for_each(Fn&& fn) const {
    for (const auto& [name, info] : procs_) fn(name, info);
  }

 private:
  std::map<std::string, ProcInfo> procs_;
};

}  // namespace dmv::api
