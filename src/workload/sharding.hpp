// Conflict-class sharding, generic over any Workload (§2.1 multi-master).
//
// A workload's update transactions usually touch enough tables that no
// finer class-cover exists (TPC-W's buy_confirm alone touches seven of
// ten), so the multi-master deployments run N *full* stores side by side
// in one database — shard s's copy of base table t has TableId
// s * w.table_count() + t — with every proc registered once per shard
// ("buy_confirm@2") and each shard forming one conflict class with its
// own update master. Clients are pinned to a shard (see harness):
// round-robin, or zipfian-skewed to make one class hot.
#pragma once

#include "workload/workload.hpp"

namespace dmv::workload {

// "proc@shard" for shards > 1; the bare name for a single shard (so a
// 1-class sharded deployment is byte-compatible with the stock registry).
std::string shard_proc(const std::string& base, size_t shard, size_t shards);

// The workload's schema built once per shard into one database (table
// ids offset by shard * table_count()). The shared_ptr keeps the
// workload alive as long as the returned closure.
std::function<void(storage::Database&)> make_sharded_schema(
    std::shared_ptr<const Workload> w, size_t shards);

// The workload's loader run once per shard with salt = shard, so the
// stores are independent (not byte-identical) images.
std::function<void(storage::Database&)> make_sharded_loader(
    std::shared_ptr<const Workload> w, size_t shards);

// Every proc registered once per shard, with tables offset and the
// connection wrapped so the proc bodies run unchanged.
api::ProcRegistry make_sharded_registry(const Workload& w, size_t shards);

// One conflict class per shard: {{0..T-1}, {T..2T-1}, ...}.
std::vector<std::vector<storage::TableId>> sharded_conflict_classes(
    const Workload& w, size_t shards);

}  // namespace dmv::workload
