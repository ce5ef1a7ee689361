// Conflict classes (§2.1): fully parallel update execution.
//
// Two disjoint table sets — an orders ledger and a telemetry feed — each
// get their own master. Update transactions route by class and commit in
// parallel; every replica still sees one totally-consistent database,
// because the version vector has one entry per table and read-only
// transactions are tagged with the merged vector.
//
//   $ ./multimaster
#include <iostream>

#include "core/cluster.hpp"

using namespace dmv;
using storage::Row;

namespace {

void schema(storage::Database& db) {
  db.add_table("orders",
               storage::Schema({storage::int_col("id"),
                                storage::int_col("total")}),
               storage::IndexDef{"pk", {0}, true});
  db.add_table("telemetry",
               storage::Schema({storage::int_col("seq"),
                                storage::int_col("reading")}),
               storage::IndexDef{"pk", {0}, true});
}

api::ProcRegistry make_procs() {
  api::ProcRegistry reg;
  api::ProcInfo order;
  order.read_only = false;
  order.tables = {0};  // conflict class 0
  order.fn = [](api::Connection& c,
                const api::Params& p) -> sim::Task<api::TxnResult> {
    Row row{p.i("id"), p.i("total")};
    co_await c.insert(0, row);
    co_return api::TxnResult{};
  };
  reg.register_proc("place_order", order);

  api::ProcInfo reading;
  reading.read_only = false;
  reading.tables = {1};  // conflict class 1
  reading.fn = [](api::Connection& c,
                  const api::Params& p) -> sim::Task<api::TxnResult> {
    Row row{p.i("seq"), p.i("reading")};
    co_await c.insert(1, row);
    co_return api::TxnResult{};
  };
  reg.register_proc("record_reading", reading);

  api::ProcInfo report;
  report.read_only = true;
  report.tables = {0, 1};
  report.fn = [](api::Connection& c,
                 const api::Params&) -> sim::Task<api::TxnResult> {
    api::ScanSpec all0, all1;
    auto orders = co_await c.scan(0, std::move(all0));
    auto readings = co_await c.scan(1, std::move(all1));
    api::TxnResult res;
    res.rows = orders.size();
    res.value = int64_t(readings.size());
    co_return res;
  };
  reg.register_proc("report", report);
  return reg;
}

}  // namespace

int main() {
  sim::Simulation sim;
  net::Network net(sim);
  api::ProcRegistry procs = make_procs();

  core::DmvCluster::Config cfg;
  cfg.slaves = 2;
  cfg.conflict_classes = {{0}, {1}};  // two masters, disjoint tables
  cfg.schema = schema;
  core::DmvCluster cluster(net, procs, cfg);
  cluster.start();

  // Two independent writers hammer their own class concurrently; a reader
  // snapshots across both.
  auto w1 = cluster.make_client("orders-app");
  auto w2 = cluster.make_client("sensor-app");
  auto rd = cluster.make_client("dashboard");

  auto writer = [](core::ClusterClient& c, const char* proc,
                   const char* key) -> sim::Task<> {
    for (int i = 0; i < 200; ++i) {
      api::Params p;
      p.set(key, int64_t(i)).set(key[0] == 'i' ? "total" : "reading",
                                 int64_t(i * 3));
      co_await c.execute(proc, p);
    }
  };
  sim.spawn(writer(*w1, "place_order", "id"));
  sim.spawn(writer(*w2, "record_reading", "seq"));
  sim.spawn([](core::DmvCluster& cluster,
               core::ClusterClient& c) -> sim::Task<> {
    for (int i = 0; i < 5; ++i) {
      co_await cluster.net().sim().delay(30 * sim::kMsec);
      auto r = co_await c.execute("report", {});
      std::cout << "  report: " << r->rows << " orders, " << r->value
                << " readings (merged tag over both classes)\n";
    }
  }(cluster, *rd));
  sim.run();

  std::cout << "\nmaster for class 0 committed "
            << cluster.master(0).engine().stats().update_commits
            << " txns; master for class 1 committed "
            << cluster.master(1).engine().stats().update_commits
            << " txns — no inter-master synchronization (§2.1)\n";
  std::cout << "class-0 master version vector: ["
            << cluster.master(0).engine().version()[0] << ", "
            << cluster.master(0).engine().version()[1] << "]\n";
  std::cout << "class-1 master version vector: ["
            << cluster.master(1).engine().version()[0] << ", "
            << cluster.master(1).engine().version()[1] << "]\n";
  return 0;
}
