// Quickstart: stand up a small DMV cluster (1 master, 2 slaves, 1 spare),
// define a schema, register two transaction types, and run a few
// transactions through the version-aware scheduler.
//
//   $ ./quickstart
//
// Everything runs inside one deterministic simulation: the "cluster" is a
// set of in-memory database engines connected by a simulated network, and
// time is virtual — which is exactly how the library's experiments work.
#include <iostream>

#include "core/cluster.hpp"

using namespace dmv;
using storage::Key;
using storage::Row;
using storage::Value;

namespace {

Key K(Value v) { return Key{std::move(v)}; }

// Schema: one "accounts" table. Every replica builds the same catalog.
void schema(storage::Database& db) {
  db.add_table("accounts",
               storage::Schema({storage::int_col("id"),
                                storage::int_col("balance"),
                                storage::char_col("owner", 16)}),
               storage::IndexDef{"pk", {0}, true},
               {storage::IndexDef{"by_owner", {2}, false}});
}

// Initial data, loaded identically on every replica (and, in a full
// deployment, the on-disk persistence backend).
void loader(storage::Database& db) {
  for (int64_t i = 1; i <= 100; ++i)
    db.table(0).insert_row(Row{i, i * 100, "cust" + std::to_string(i % 7)});
}

api::ProcRegistry make_procs() {
  api::ProcRegistry reg;

  // An update transaction: routed to the master, which runs it under
  // per-page 2PL and broadcasts the page diffs to every replica before
  // confirming the commit (Dynamic Multiversioning pre-commit).
  api::ProcInfo transfer;
  transfer.read_only = false;
  transfer.tables = {0};
  transfer.fn = [](api::Connection& c,
                   const api::Params& p) -> sim::Task<api::TxnResult> {
    const int64_t amount = p.i("amount");
    Key from = K(p.i("from"));
    Key to = K(p.i("to"));
    bool ok = co_await c.update(0, from, [&](Row& r) {
      r[1] = std::get<int64_t>(r[1]) - amount;
    });
    if (ok)
      ok = co_await c.update(0, to, [&](Row& r) {
        r[1] = std::get<int64_t>(r[1]) + amount;
      });
    api::TxnResult res;
    res.ok = ok;
    co_return res;
  };
  reg.register_proc("transfer", transfer);

  // A read-only transaction: tagged with the freshest version vector and
  // executed on a slave, which materializes exactly that snapshot.
  api::ProcInfo audit;
  audit.read_only = true;
  audit.tables = {0};
  audit.fn = [](api::Connection& c,
                const api::Params&) -> sim::Task<api::TxnResult> {
    api::ScanSpec all;
    auto rows = co_await c.scan(0, std::move(all));
    int64_t total = 0;
    for (const storage::RowRef r : rows) total += r.i(1);
    api::TxnResult res;
    res.rows = rows.size();
    res.value = total;  // must always be the invariant sum
    co_return res;
  };
  reg.register_proc("audit", audit);
  return reg;
}

}  // namespace

int main() {
  sim::Simulation sim;
  net::Network net(sim);
  api::ProcRegistry procs = make_procs();

  core::DmvCluster::Config cfg;
  cfg.slaves = 2;
  cfg.spares = 1;
  cfg.schema = schema;
  cfg.loader = loader;
  core::DmvCluster cluster(net, procs, cfg);
  cluster.start();

  auto client = cluster.make_client("quickstart");
  sim.spawn([](core::DmvCluster& cluster,
               core::ClusterClient& c) -> sim::Task<> {
    // 50 transfers interleaved with audits; every audit must see the
    // invariant total (1-copy serializability through the whole stack).
    const int64_t invariant = 100 * 101 / 2 * 100;
    for (int i = 0; i < 50; ++i) {
      api::Params t;
      t.set("from", int64_t{1 + i % 100})
          .set("to", int64_t{1 + (i * 37) % 100})
          .set("amount", int64_t{5});
      auto tr = co_await c.execute("transfer", t);
      std::cout << "transfer #" << i << (tr && tr->ok ? " ok" : " FAILED")
                << "\n";
      if (i % 10 == 9) {
        auto audit = co_await c.execute("audit", {});
        std::cout << "  audit: " << audit->rows << " accounts, total "
                  << audit->value
                  << (audit->value == invariant ? " (invariant holds)"
                                                : " (INVARIANT BROKEN!)")
                  << "\n";
      }
    }
    std::cout << "\nCluster state:\n"
              << "  master version vector entry[0]: "
              << cluster.master().engine().version()[0] << "\n"
              << "  slave read commits: " << cluster.total_read_commits()
              << "\n"
              << "  version-inconsistency aborts: "
              << cluster.total_version_aborts() << "\n";
  }(cluster, *client));

  sim.run();
  std::cout << "simulated time: " << sim::to_seconds(sim.now())
            << " s, events: " << sim.events_processed() << "\n";
  return 0;
}
