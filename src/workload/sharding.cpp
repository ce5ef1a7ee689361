#include "workload/sharding.hpp"

#include "util/zipf.hpp"

namespace dmv::workload {

namespace {

// Forwards every table access shifted into the shard's id range; the
// proc bodies keep addressing tables by the base enum. Lives on the
// wrapper proc's coroutine frame, so it outlives every awaited call.
class OffsetConnection : public api::Connection {
 public:
  OffsetConnection(api::Connection& base, storage::TableId off)
      : base_(base), off_(off) {}
  sim::Task<std::optional<storage::Row>> get(
      storage::TableId t, const storage::Key& pk) override {
    return base_.get(storage::TableId(off_ + t), pk);
  }
  sim::Task<storage::Rows> scan(storage::TableId t,
                                api::ScanSpec spec) override {
    return base_.scan(storage::TableId(off_ + t), std::move(spec));
  }
  sim::Task<bool> insert(storage::TableId t,
                         const storage::Row& row) override {
    return base_.insert(storage::TableId(off_ + t), row);
  }
  sim::Task<bool> update(
      storage::TableId t, const storage::Key& pk,
      const std::function<void(storage::Row&)>& mutate) override {
    return base_.update(storage::TableId(off_ + t), pk, mutate);
  }
  sim::Task<bool> remove(storage::TableId t,
                         const storage::Key& pk) override {
    return base_.remove(storage::TableId(off_ + t), pk);
  }

 private:
  api::Connection& base_;
  storage::TableId off_;
};

sim::Task<api::TxnResult> run_offset(api::ProcFn fn, storage::TableId off,
                                     api::Connection& c,
                                     const api::Params& p) {
  OffsetConnection oc(c, off);
  co_return co_await fn(oc, p);
}

}  // namespace

std::string shard_proc(const std::string& base, size_t shard,
                       size_t shards) {
  if (shards <= 1) return base;
  return base + "@" + std::to_string(shard);
}

std::function<void(storage::Database&)> make_sharded_schema(
    std::shared_ptr<const Workload> w, size_t shards) {
  return [w, shards](storage::Database& db) {
    for (size_t s = 0; s < shards; ++s) w->build_schema(db);
  };
}

std::function<void(storage::Database&)> make_sharded_loader(
    std::shared_ptr<const Workload> w, size_t shards) {
  return [w, shards](storage::Database& db) {
    for (size_t s = 0; s < shards; ++s)
      w->load(db, storage::TableId(s * w->table_count()), s);
  };
}

api::ProcRegistry make_sharded_registry(const Workload& w, size_t shards) {
  if (shards <= 1) return w.make_registry();
  const api::ProcRegistry base = w.make_registry();
  api::ProcRegistry out;
  for (size_t s = 0; s < shards; ++s) {
    const auto off = storage::TableId(s * w.table_count());
    base.for_each([&](const std::string& name, const api::ProcInfo& info) {
      api::ProcInfo p;
      p.read_only = info.read_only;
      for (storage::TableId t : info.tables)
        p.tables.push_back(storage::TableId(off + t));
      p.fn = [fn = info.fn, off](api::Connection& c, const api::Params& pa) {
        return run_offset(fn, off, c, pa);
      };
      out.register_proc(shard_proc(name, s, shards), std::move(p));
    });
  }
  return out;
}

std::vector<std::vector<storage::TableId>> sharded_conflict_classes(
    const Workload& w, size_t shards) {
  std::vector<std::vector<storage::TableId>> out(shards);
  for (size_t s = 0; s < shards; ++s)
    for (storage::TableId t = 0; t < w.table_count(); ++t)
      out[s].push_back(storage::TableId(s * w.table_count() + t));
  return out;
}

size_t zipf_shard(uint64_t key, size_t shards, double theta) {
  if (shards <= 1) return 0;
  if (theta <= 0) return size_t(key % shards);
  return util::zipf_pick(key, shards, theta);
}

}  // namespace dmv::workload
