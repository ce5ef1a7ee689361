// Cross-module integration and property tests.
//
// The central property is the paper's contract: the replicated system is
// indistinguishable from one database (1-copy serializability) and no
// acknowledged commit is ever lost across any single-node failure — while
// reconfiguration stays transparent to surviving clients.
#include <gtest/gtest.h>

#include "core/cluster.hpp"
#include "util/rng.hpp"

namespace dmv::core {
namespace {

using storage::Key;
using storage::Row;
using storage::Value;

Key K(Value a) { return Key{std::move(a)}; }

void ledger_schema(storage::Database& db) {
  // Wide rows (~200B) so entries spread across many pages and page-level
  // mechanics (checkpoint deltas, migration volume) are observable.
  db.add_table("ledger",
               storage::Schema({storage::int_col("id"),
                                storage::int_col("amount"),
                                storage::char_col("memo", 184)}),
               storage::IndexDef{"pk", {0}, true});
  db.add_table("balance",
               storage::Schema({storage::int_col("id"),
                                storage::int_col("total")}),
               storage::IndexDef{"pk", {0}, true});
}

void ledger_loader(storage::Database& db) {
  for (int64_t i = 0; i < 16; ++i)
    db.table(1).insert_row(Row{i, int64_t{0}});
}

// Procs: "post" inserts a uniquely-keyed ledger entry AND adds its amount
// to one of 16 balance rows (a two-table update transaction). "sum" reads
// every balance and counts ledger entries — a consistent snapshot must
// satisfy sum(balances) == sum(ledger amounts).
api::ProcRegistry ledger_registry() {
  api::ProcRegistry reg;
  api::ProcInfo post;
  post.read_only = false;
  post.tables = {0, 1};
  post.fn = [](api::Connection& c, const api::Params& p)
      -> sim::Task<api::TxnResult> {
    Row entry{p.i("id"), p.i("amount"), std::string("memo")};
    const bool inserted = co_await c.insert(0, entry);
    api::TxnResult res;
    if (!inserted) {  // duplicate (client retry after lost ack)
      res.ok = true;
      res.value = -1;
      co_return res;
    }
    Key bk = K(p.i("id") % 16);
    const int64_t amt = p.i("amount");
    co_await c.update(1, bk, [amt](Row& r) {
      r[1] = std::get<int64_t>(r[1]) + amt;
    });
    res.ok = true;
    res.value = 1;
    co_return res;
  };
  reg.register_proc("post", post);

  api::ProcInfo sum;
  sum.read_only = true;
  sum.tables = {0, 1};
  sum.fn = [](api::Connection& c, const api::Params&)
      -> sim::Task<api::TxnResult> {
    api::ScanSpec balances;
    auto brows = co_await c.scan(1, std::move(balances));
    int64_t total = 0;
    for (const storage::RowRef r : brows) total += r.i(1);
    api::ScanSpec entries;
    auto lrows = co_await c.scan(0, std::move(entries));
    int64_t check = 0;
    for (const storage::RowRef r : lrows) check += r.i(1);
    api::TxnResult res;
    res.ok = total == check;  // snapshot consistency across tables
    res.value = total;
    res.rows = lrows.size();
    co_return res;
  };
  reg.register_proc("sum", sum);
  return reg;
}

struct Fixture {
  sim::Simulation sim;
  net::Network net{sim};
  api::ProcRegistry reg = ledger_registry();
  std::unique_ptr<DmvCluster> cluster;

  explicit Fixture(DmvCluster::Config cfg = {}) {
    cfg.schema = ledger_schema;
    cfg.loader = ledger_loader;
    cluster = std::make_unique<DmvCluster>(net, reg, std::move(cfg));
    cluster->start();
  }
};

// A writer client posting unique entries, retrying on error; it records
// which entries were POSITIVELY acknowledged.
sim::Task<> writer(ClusterClient& c, sim::Simulation& sim, int64_t base,
                   int count, util::Rng& rng,
                   std::set<int64_t>& confirmed) {
  for (int i = 0; i < count; ++i) {
    co_await sim.delay(sim::Time(rng.below(40 * sim::kMsec)));
    const int64_t id = base + i;
    api::Params p;
    p.set("id", id).set("amount", int64_t(1 + rng.below(100)));
    for (int attempt = 0; attempt < 8; ++attempt) {
      auto r = co_await c.execute("post", p);
      if (r && r->ok) {
        confirmed.insert(id);
        break;
      }
      co_await sim.delay(100 * sim::kMsec);
    }
  }
}

// Reader client auditing snapshot consistency continuously.
sim::Task<> auditor(ClusterClient& c, sim::Simulation& sim,
                    std::shared_ptr<bool> run, uint64_t& audits,
                    uint64_t& inconsistent) {
  while (*run) {
    co_await sim.delay(150 * sim::kMsec);
    auto r = co_await c.execute("sum", {});
    if (r) {
      ++audits;
      if (!r->ok) ++inconsistent;
    }
  }
}

TEST(Integration, SnapshotConsistencyUnderConcurrentWriters) {
  Fixture f;
  util::Rng rng(1234);
  std::set<int64_t> confirmed;
  std::vector<std::unique_ptr<ClusterClient>> conns;
  for (int w = 0; w < 6; ++w) {
    conns.push_back(f.cluster->make_client("w" + std::to_string(w)));
    f.sim.spawn(writer(*conns.back(), f.sim, 1000 * (w + 1), 50, rng,
                       confirmed));
  }
  auto run = std::make_shared<bool>(true);
  uint64_t audits = 0, inconsistent = 0;
  conns.push_back(f.cluster->make_client("audit"));
  f.sim.spawn(auditor(*conns.back(), f.sim, run, audits, inconsistent));
  f.sim.run(60 * sim::kSec);
  *run = false;
  f.sim.run();

  EXPECT_EQ(confirmed.size(), 300u);
  EXPECT_GT(audits, 50u);
  EXPECT_EQ(inconsistent, 0u);  // every snapshot was transactionally
                                // consistent across both tables
}

// Property: across random fault storms (slave kills/restarts and a master
// kill), every positively acknowledged entry survives on the final
// cluster state, and all live replicas converge byte-for-byte.
class FaultStorm : public ::testing::TestWithParam<uint64_t> {};

TEST_P(FaultStorm, NoAcknowledgedCommitLostAndReplicasConverge) {
  DmvCluster::Config cfg;
  cfg.slaves = 3;
  cfg.spares = 1;
  cfg.node.checkpoint_period = 5 * sim::kSec;
  Fixture f(cfg);
  util::Rng rng(GetParam());

  std::set<int64_t> confirmed;
  std::vector<std::unique_ptr<ClusterClient>> conns;
  for (int w = 0; w < 5; ++w) {
    conns.push_back(f.cluster->make_client("w" + std::to_string(w)));
    f.sim.spawn(writer(*conns.back(), f.sim, 1000 * (w + 1), 60, rng,
                       confirmed));
  }

  // Fault script: kill a random slave at 5s, restart+rejoin it at 12s,
  // kill the master at 20s.
  const net::NodeId victim =
      f.cluster->slave_id(rng.below(f.cluster->slave_count()));
  f.sim.schedule_at(5 * sim::kSec,
                    [&] { f.cluster->kill_node(victim); });
  f.sim.schedule_at(12 * sim::kSec,
                    [&] { f.cluster->restart_and_rejoin(victim); });
  f.sim.schedule_at(20 * sim::kSec,
                    [&] { f.cluster->kill_node(f.cluster->master_id()); });
  // Bounded runs: the periodic checkpointer keeps the event queue
  // non-empty forever, so an unbounded run() would never return.
  f.sim.run(180 * sim::kSec);

  ASSERT_GT(confirmed.size(), 200u);  // progress despite the storm

  // Verify durability on the current master's state.
  const net::NodeId master_now = f.cluster->scheduler().master();
  ASSERT_NE(master_now, net::kNoNode);
  auto& mdb = f.cluster->node(master_now).engine().db();
  for (int64_t id : confirmed) {
    EXPECT_TRUE(mdb.table(0).pk_find(K(id)).has_value())
        << "acknowledged entry " << id << " lost";
  }

  // All live replicas converge after draining pending mods.
  for (NodeId n : f.cluster->scheduler().slaves()) {
    auto& eng = f.cluster->node(n).engine();
    f.sim.spawn([](mem::MemEngine& e) -> sim::Task<> {
      for (storage::TableId t = 0; t < e.db().table_count(); ++t)
        co_await e.apply_pending(t, e.received_version()[t]);
    }(eng));
    f.sim.run(f.sim.now() + 5 * sim::kSec);
    EXPECT_TRUE(mdb.pages_equal(eng.db()))
        << "replica " << f.net.name(n) << " diverged";
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, FaultStorm,
                         ::testing::Values(7, 21, 99, 2024));

// §4.6 disaster recovery: the whole in-memory tier dies; the on-disk
// persistence back-end (fed asynchronously from the scheduler's update
// log) still holds every acknowledged commit.
TEST(Integration, PersistenceTierSurvivesTotalMemoryLoss) {
  DmvCluster::Config cfg;
  cfg.slaves = 2;
  cfg.enable_persistence = true;
  cfg.persistence.backends = 2;
  Fixture f(cfg);
  util::Rng rng(555);

  std::set<int64_t> confirmed;
  auto conn = f.cluster->make_client("w");
  f.sim.spawn(writer(*conn, f.sim, 5000, 80, rng, confirmed));
  f.sim.run(60 * sim::kSec);
  f.sim.run();
  ASSERT_GT(confirmed.size(), 70u);

  // Let the async appliers drain, then lose the entire in-memory tier.
  f.sim.run(f.sim.now() + 30 * sim::kSec);
  ASSERT_TRUE(f.cluster->persistence()->drained());
  f.cluster->kill_node(f.cluster->master_id());
  f.cluster->kill_node(f.cluster->slave_id(0));
  f.cluster->kill_node(f.cluster->slave_id(1));
  f.sim.run();

  for (size_t b = 0; b < f.cluster->persistence()->backend_count(); ++b) {
    auto& db = f.cluster->persistence()->backend(b).db();
    for (int64_t id : confirmed)
      EXPECT_TRUE(db.table(0).pk_find(K(id)).has_value())
          << "backend " << b << " missing acknowledged entry " << id;
    // And the balance table is consistent with the ledger.
    int64_t ledger = 0, balances = 0;
    db.table(0).primary_tree().scan_all([&](std::string_view, storage::RowId rid) {
      ledger += std::get<int64_t>(db.table(0).read_row(rid)[1]);
      return true;
    });
    db.table(1).primary_tree().scan_all([&](std::string_view, storage::RowId rid) {
      balances += std::get<int64_t>(db.table(1).read_row(rid)[1]);
      return true;
    });
    EXPECT_EQ(ledger, balances);
  }
}

// §4.6 step 2: bootstrap a replacement in-memory tier from a drained
// backend after total tier loss; the new cluster serves the old data.
TEST(Integration, BootstrapReplacementTierFromBackend) {
  DmvCluster::Config cfg;
  cfg.slaves = 2;
  cfg.enable_persistence = true;
  cfg.persistence.backends = 1;
  Fixture f(cfg);
  util::Rng rng(808);
  std::set<int64_t> confirmed;
  auto conn = f.cluster->make_client("w");
  f.sim.spawn(writer(*conn, f.sim, 3000, 40, rng, confirmed));
  f.sim.run(40 * sim::kSec);
  f.sim.run(f.sim.now() + 30 * sim::kSec);  // drain appliers
  ASSERT_TRUE(f.cluster->persistence()->drained());
  ASSERT_GT(confirmed.size(), 35u);

  // Total in-memory tier loss.
  f.cluster->kill_node(f.cluster->master_id());
  f.cluster->kill_node(f.cluster->slave_id(0));
  f.cluster->kill_node(f.cluster->slave_id(1));
  f.sim.run(f.sim.now() + sim::kSec);

  // Replacement tier bootstrapped from the backend's state.
  auto loader = PersistenceBinding::snapshot_loader(
      f.cluster->persistence()->backend(0));
  DmvCluster::Config cfg2;
  cfg2.slaves = 1;
  cfg2.schema = ledger_schema;
  cfg2.loader = loader;
  DmvCluster fresh(f.net, f.reg, cfg2);
  fresh.start();
  auto client2 = fresh.make_client("verify");
  std::optional<api::TxnResult> sum;
  f.sim.spawn([](ClusterClient& c,
                 std::optional<api::TxnResult>& out) -> sim::Task<> {
    out = co_await c.execute("sum", {});
  }(*client2, sum));
  f.sim.run(f.sim.now() + 10 * sim::kSec);
  ASSERT_TRUE(sum.has_value());
  EXPECT_TRUE(sum->ok);                        // ledger == balances
  EXPECT_EQ(sum->rows, confirmed.size());      // every acked entry present
}

// Checkpoints shrink reintegration: a node that checkpointed recently
// should transfer fewer pages than one relying on the base image alone.
TEST(Integration, CheckpointReducesMigrationVolume) {
  auto run_once = [&](sim::Time checkpoint_period) -> uint64_t {
    DmvCluster::Config cfg;
    cfg.slaves = 2;
    cfg.node.checkpoint_period = checkpoint_period;
    Fixture f(cfg);
    util::Rng rng(42);
    std::set<int64_t> confirmed;
    std::vector<std::unique_ptr<ClusterClient>> conns;
    for (int w = 0; w < 8; ++w) {
      conns.push_back(f.cluster->make_client("w" + std::to_string(w)));
      f.sim.spawn(writer(*conns.back(), f.sim, 9000 + 1000 * w, 120, rng,
                         confirmed));
    }
    // Auditors keep the slaves applying the replication stream — a lazy
    // slave that never reads never advances its pages, and its fuzzy
    // checkpoints would stay as stale as the base image.
    auto run = std::make_shared<bool>(true);
    uint64_t audits = 0, bad = 0;
    for (int a = 0; a < 2; ++a) {
      conns.push_back(f.cluster->make_client("a" + std::to_string(a)));
      f.sim.spawn(auditor(*conns.back(), f.sim, run, audits, bad));
    }
    const net::NodeId victim = f.cluster->slave_id(0);
    f.sim.schedule_at(30 * sim::kSec,
                      [&] { f.cluster->kill_node(victim); });
    f.sim.schedule_at(40 * sim::kSec,
                      [&] { f.cluster->restart_and_rejoin(victim); });
    f.sim.run(110 * sim::kSec);
    *run = false;
    f.sim.run(120 * sim::kSec);
    // Migration volume = pages shipped by support slaves (restore from
    // the local checkpoint also calls install_page, so the joiner-side
    // counter would over-count).
    uint64_t served = 0;
    for (size_t i = 0; i < f.cluster->slave_count(); ++i)
      served += f.cluster->node(f.cluster->slave_id(i)).stats().pages_served;
    served += f.cluster->master().stats().pages_served;
    return served;
  };
  const uint64_t with_checkpoints = run_once(3 * sim::kSec);
  const uint64_t without = run_once(0);
  EXPECT_GT(without, 2u);
  EXPECT_LT(with_checkpoints, without);
}

}  // namespace
}  // namespace dmv::core
