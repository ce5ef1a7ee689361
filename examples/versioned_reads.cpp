// Dynamic Multiversioning under the microscope.
//
// Drives the replication engine directly (no scheduler) to show the §2
// mechanics one step at a time:
//   1. the master's pre-commit produces per-page byte-diff write-sets and
//      bumps the per-table version vector;
//   2. slaves queue modifications and apply them lazily, so two readers
//      tagged with different versions observe different snapshots of the
//      same row — at the same wall-clock instant;
//   3. a reader that needs an *older* version of a page someone already
//      upgraded gets the version-inconsistency abort.
//
//   $ ./versioned_reads
#include <iostream>

#include "mem/engine.hpp"

using namespace dmv;
using mem::MemEngine;
using storage::Key;
using storage::Row;
using storage::Value;

namespace {
Key K(Value v) { return Key{std::move(v)}; }

void schema(storage::Database& db) {
  db.add_table("ticker",
               storage::Schema({storage::int_col("id"),
                                storage::int_col("price")}),
               storage::IndexDef{"pk", {0}, true});
}

sim::Task<> commit_price(MemEngine& master, int64_t price) {
  auto txn = master.begin_update();
  Key k = K(int64_t{1});
  const bool found = co_await master.update(
      *txn, 0, k, [price](Row& r) { r[1] = price; });
  if (!found) {
    Row row{int64_t{1}, price};
    co_await master.insert(*txn, 0, row);
  }
  const txn::WriteSetPtr ws = co_await master.precommit(*txn);
  master.finish_commit(*txn);
  size_t bytes = 0;
  for (const auto& m : ws->mods) bytes += m.byte_size();
  std::cout << "  committed price=" << price << " -> version "
            << ws->db_version[0] << ", write-set " << ws->mods.size()
            << " page mod(s) of " << ws->run_headers.size() << " run(s) ("
            << ws->run_bytes.size() << " changed bytes), " << bytes
            << " bytes\n";
}

sim::Task<> read_at(MemEngine& slave, uint64_t version, const char* who) {
  auto txn = slave.begin_read({version});
  Key k = K(int64_t{1});
  try {
    auto row = co_await slave.get(*txn, 0, k);
    const auto& t0 = slave.db().table(0);
    const uint64_t pagev =
        t0.page_count() > 0 ? t0.meta(0).version : 0;
    std::cout << "  " << who << " tagged v" << version << " sees price="
              << (row ? std::get<int64_t>((*row)[1]) : -1)
              << " (page now at v" << pagev << ")\n";
    slave.finish_read(*txn);
  } catch (const txn::TxnAbort& e) {
    std::cout << "  " << who << " tagged v" << version
              << " ABORTED: " << e.what()
              << " (page already upgraded past its tag)\n";
  }
}
}  // namespace

int main() {
  sim::Simulation sim;
  MemEngine master(sim, "master", {});
  MemEngine slave(sim, "slave", {});
  master.build_schema(schema);
  slave.build_schema(schema);
  master.set_master_tables({0});
  master.set_broadcast_fn(
      [&](const txn::WriteSetPtr& ws) { slave.on_write_set(ws); });

  sim.spawn([](MemEngine& master, MemEngine& slave) -> sim::Task<> {
    std::cout << "1. Master commits three updates (eager broadcast, lazy "
                 "apply):\n";
    co_await commit_price(master, 100);
    co_await commit_price(master, 110);
    co_await commit_price(master, 120);

    std::cout << "\n2. Slave has " << slave.pending_mod_count()
              << " pending mods and "
              << slave.db().table(0).page_count()
              << " materialized pages — nothing applied yet.\n";

    std::cout << "\n3. Snapshot reads at different versions:\n";
    co_await read_at(slave, 1, "reader A");
    co_await read_at(slave, 2, "reader B");
    co_await read_at(slave, 3, "reader C");

    std::cout << "\n4. An old tag after the page moved forward:\n";
    co_await read_at(slave, 1, "laggard ");
    std::cout << "\nversion aborts counted: "
              << slave.stats().version_aborts << " (the paper's <2.5% "
              << "events)\n";
  }(master, slave));

  sim.run();
  return 0;
}
