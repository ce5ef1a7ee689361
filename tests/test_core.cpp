#include <gtest/gtest.h>

#include <utility>

#include "check/checker.hpp"
#include "check/history.hpp"
#include "core/cluster.hpp"
#include "core/persistence_binding.hpp"
#include "obs/counters.hpp"
#include "obs/trace.hpp"
#include "util/assert.hpp"

namespace dmv::core {
namespace {

using storage::Key;
using storage::Row;
using storage::Value;

inline Key K(Value a) { return Key{std::move(a)}; }
inline Row R(Value a, Value b) { return Row{std::move(a), std::move(b)}; }

void demo_schema(storage::Database& db) {
  db.add_table("acct",
               storage::Schema({storage::int_col("id"),
                                storage::int_col("balance")}),
               storage::IndexDef{"pk", {0}, true});
}

void demo_loader(storage::Database& db) {
  for (int64_t i = 0; i < 100; ++i)
    db.table(0).insert_row(Row{i, i * 10});
}

storage::Database demo_image() {
  storage::Database db;
  demo_schema(db);
  demo_loader(db);
  return db;
}

api::ProcRegistry make_registry() {
  api::ProcRegistry reg;
  api::ProcInfo deposit;
  deposit.read_only = false;
  deposit.tables = {0};
  deposit.fn = [](api::Connection& c, const api::Params& p)
      -> sim::Task<api::TxnResult> {
    Key k = K(p.i("id"));
    const int64_t amt = p.i("amt");
    const bool found = co_await c.update(0, k, [amt](Row& r) {
      r[1] = std::get<int64_t>(r[1]) + amt;
    });
    api::TxnResult res;
    res.ok = found;
    co_return res;
  };
  reg.register_proc("deposit", deposit);

  api::ProcInfo check;
  check.read_only = true;
  check.tables = {0};
  check.fn = [](api::Connection& c, const api::Params& p)
      -> sim::Task<api::TxnResult> {
    Key k = K(p.i("id"));
    auto row = co_await c.get(0, k);
    api::TxnResult res;
    res.ok = row.has_value();
    res.value = row ? std::get<int64_t>((*row)[1]) : -1;
    co_return res;
  };
  reg.register_proc("check", check);

  api::ProcInfo sum;
  sum.read_only = true;
  sum.tables = {0};
  sum.fn = [](api::Connection& c, const api::Params&)
      -> sim::Task<api::TxnResult> {
    api::ScanSpec spec;
    auto rows = co_await c.scan(0, std::move(spec));
    api::TxnResult res;
    res.rows = rows.size();
    for (const storage::RowRef r : rows) res.value += r.i(1);
    co_return res;
  };
  reg.register_proc("sum", sum);
  return reg;
}

struct Fixture {
  sim::Simulation sim;
  net::Network net{sim};
  api::ProcRegistry reg = make_registry();
  std::unique_ptr<DmvCluster> cluster;

  explicit Fixture(DmvCluster::Config cfg = {}) {
    cfg.schema = demo_schema;
    if (!cfg.loader) cfg.loader = demo_loader;
    cluster = std::make_unique<DmvCluster>(net, reg, std::move(cfg));
    cluster->start();
  }

  // Run one request through a throwaway client; returns the result.
  std::optional<api::TxnResult> request(const std::string& proc,
                                        api::Params params) {
    auto client = cluster->make_client("c");
    std::optional<api::TxnResult> out;
    sim.spawn([](ClusterClient& c, const std::string proc, api::Params p,
                 std::optional<api::TxnResult>& out) -> sim::Task<> {
      out = co_await c.execute(proc, std::move(p));
    }(*client, proc, std::move(params), out));
    sim.run();
    return out;
  }
};

// Two clusters in one process record into their own sinks: each sink sees
// exactly its cluster's commits and reads, also from a scheduler the
// cluster built after start().
TEST(DmvCluster, EachClusterRecordsToItsOwnSink) {
  struct Deployment {
    sim::Simulation sim;
    net::Network net{sim};
    check::Recorder rec{sim};
    std::unique_ptr<DmvCluster> cluster;
    std::unique_ptr<ClusterClient> client;
    int deposits = 0;
    int checks = 0;

    explicit Deployment(const api::ProcRegistry& reg) {
      DmvCluster::Config cfg;
      cfg.schema = demo_schema;
      cfg.loader = demo_loader;
      cluster = std::make_unique<DmvCluster>(net, reg, cfg, &rec);
      cluster->start();
    }
    // Runs one request to completion on this deployment's simulation.
    void request(const std::string& proc, api::Params params) {
      std::optional<api::TxnResult> out;
      sim.spawn([](ClusterClient& c, std::string proc, api::Params p,
                   std::optional<api::TxnResult>& out) -> sim::Task<> {
        out = co_await c.execute(std::move(proc), std::move(p));
      }(*client, proc, std::move(params), out));
      sim.run(sim.now() + sim::kSec);
      ASSERT_TRUE(out.has_value() && out->ok) << proc;
      ++(proc == "deposit" ? deposits : checks);
    }
  };
  const api::ProcRegistry reg = make_registry();
  Deployment a(reg), b(reg);
  a.client = a.cluster->make_client("ca");
  // b serves from a standby scheduler added after start(): the first one
  // dies, and only clients made afterwards know the newcomer.
  const NodeId standby = b.cluster->add_scheduler();
  b.cluster->kill_scheduler(0);
  b.sim.run(b.sim.now() + sim::kSec);
  b.client = b.cluster->make_client("cb");

  // Interleave the two simulations.
  const auto deposit = [](int64_t id, int64_t amt) {
    return api::Params().set("id", id).set("amt", amt);
  };
  const auto check = [](int64_t id) { return api::Params().set("id", id); };
  a.request("deposit", deposit(1, 5));
  b.request("deposit", deposit(2, 7));
  b.request("check", check(2));
  a.request("check", check(1));
  b.request("deposit", deposit(3, 1));
  a.request("deposit", deposit(4, 2));
  b.request("check", check(3));

  for (Deployment* d : {&a, &b}) {
    int commits = 0, reads = 0;
    for (const check::Event& e : d->rec.events()) {
      if (const auto* c = std::get_if<check::CommitEvent>(&e)) {
        ++commits;
        EXPECT_EQ(c->origin, d->client->id());
        EXPECT_EQ(c->node, d->cluster->master_id());
      } else if (const auto* r = std::get_if<check::ReadEvent>(&e)) {
        ++reads;
        if (d == &b) {
          EXPECT_EQ(r->scheduler, standby);
        }
      }
    }
    EXPECT_EQ(commits, d->deposits);
    EXPECT_EQ(reads, d->checks);
    EXPECT_EQ(d->rec.commit_count(), size_t(d->deposits));
  }
  EXPECT_EQ(a.deposits, 2);
  EXPECT_EQ(b.deposits, 2);
}

// One image is generated per deployment and kept for the cluster's life,
// and every database copies it: at construction each master, slave, spare
// and persistence backend equals a fresh loader image, and so does a node
// restarted after start(), which copies the same kept image.
TEST(DmvCluster, EveryDatabaseStartsAsTheLoaderImage) {
  sim::Simulation sim;
  net::Network net{sim};
  const api::ProcRegistry reg = make_registry();
  DmvCluster::Config cfg;
  cfg.slaves = 2;
  cfg.spares = 1;
  cfg.enable_persistence = true;
  cfg.schema = demo_schema;
  cfg.loader = demo_loader;
  DmvCluster cluster(net, reg, cfg);
  const storage::Database fresh = demo_image();
  auto expect_fresh = [&](const storage::Database& db, const char* who) {
    EXPECT_TRUE(db.pages_equal(fresh)) << who;
    EXPECT_EQ(db.total_rows(), fresh.total_rows()) << who;
    EXPECT_EQ(db.table(0).index_rotations(),
              fresh.table(0).index_rotations())
        << who;
  };
  expect_fresh(cluster.master().engine().db(), "master");
  for (size_t i = 0; i < cluster.slave_count(); ++i)
    expect_fresh(cluster.node(cluster.slave_id(i)).engine().db(), "slave");
  expect_fresh(cluster.node(cluster.spare_id(0)).engine().db(), "spare");
  ASSERT_NE(cluster.persistence(), nullptr);
  for (size_t i = 0; i < cluster.persistence()->backend_count(); ++i)
    expect_fresh(cluster.persistence()->backend(i).db(), "backend");

  cluster.start();
  const NodeId victim = cluster.slave_id(1);
  cluster.kill_node(victim);
  sim.run(sim.now() + sim::kSec);
  cluster.restart_and_rejoin(victim);
  sim.run(sim.now() + 10 * sim::kSec);
  EXPECT_EQ(cluster.scheduler().stats().joins_completed, 1u);
  expect_fresh(cluster.node(victim).engine().db(), "restarted slave");
  // Nothing was written, so the restarted slave still shares the other
  // slave's page: both are the kept image's.
  const auto page0 = [&](NodeId n) {
    return &std::as_const(cluster.node(n).engine()).db().table(0).page(0);
  };
  EXPECT_EQ(page0(victim), page0(cluster.slave_id(0)));
}

void indexed_schema(storage::Database& db) {
  for (const char* name : {"item", "stock"})
    db.add_table(name,
                 storage::Schema({storage::int_col("id"),
                                  storage::int_col("grp"),
                                  storage::char_col("name", 48)}),
                 storage::IndexDef{"pk", {0}, true},
                 {storage::IndexDef{"by_grp", {1}, false}});
}

// Reads reach a copied database's pages and trees without cloning them:
// index lookups, scans both ways, row images, a checkpoint pass and a
// served page request leave every page and tree of the copy at the
// image's address.
TEST(Table, ReadsLeaveCopiesShared) {
  storage::Database image;
  indexed_schema(image);
  size_t pages = 0;
  for (storage::TableId t = 0; t < image.table_count(); ++t) {
    for (int64_t i = 0; i < 1500; ++i)
      image.table(t).insert_row(Row{i, i % 7, "n" + std::to_string(i)});
    // Version 1 everywhere: a request from a node with no pages ships all.
    for (storage::PageNo p = 0; p < image.table(t).page_count(); ++p, ++pages)
      image.table(t).meta(p).version = 1;
  }
  ASSERT_GT(pages, 20u);

  sim::Simulation sim;
  net::Network net{sim};
  const NodeId server = net.add_node("server");
  const NodeId joiner = net.add_node("joiner");
  const api::ProcRegistry reg = make_registry();
  mem::StableStore store;
  EngineNode node(net, server, reg, indexed_schema, mem::MemEngine::Config{},
                  EngineNode::Config{}, &store);
  node.engine().db() = image;
  storage::Database& copy = node.engine().db();
  const storage::Database& image_ref = image;
  auto expect_shared = [&](const char* after) {
    for (storage::TableId t = 0; t < image.table_count(); ++t) {
      const storage::Table& c = std::as_const(copy).table(t);
      const storage::Table& i = image_ref.table(t);
      for (storage::PageNo p = 0; p < i.page_count(); ++p)
        EXPECT_EQ(&c.page(p), &i.page(p)) << after << " page " << p;
      for (int x = -1; x < int(i.secondary_count()); ++x)
        EXPECT_EQ(&c.index_tree(x), &i.index_tree(x)) << after;
    }
  };
  expect_shared("copy");

  // Through a non-const Table, as the engines hold it.
  storage::Table& t = copy.table(0);
  const Key lo = K(int64_t{100}), hi = K(int64_t{400});
  EXPECT_TRUE(t.pk_find(lo).has_value());
  size_t bytes = 0;
  for (bool reverse : {false, true}) {
    t.scan(-1, &lo, &hi, reverse, [&](std::string_view, storage::RowId r) {
      bytes += t.row_image(r).size();
      return true;
    });
    t.scan(0, nullptr, nullptr, reverse,
           [&](std::string_view, storage::RowId r) {
             bytes += t.read_row(r).size();
             return bytes < 100000;
           });
  }
  EXPECT_GT(bytes, 0u);
  expect_shared("reads");

  mem::Checkpointer cp(sim, node.engine(), store, 0);
  size_t flushed = 0;
  sim.spawn([](mem::Checkpointer& cp, size_t& out) -> sim::Task<> {
    out = co_await cp.checkpoint_once();
  }(cp, flushed));
  sim.run();
  EXPECT_EQ(flushed, pages);
  expect_shared("checkpoint");

  node.start();
  net.send(joiner, server,
           PageRequest{joiner, {}, VersionVec(image.table_count(), 0), {}},
           128);
  sim.run();
  EXPECT_EQ(node.stats().pages_served, pages);
  expect_shared("page request");
}

TEST(DmvCluster, UpdateThenReadOneCopySemantics) {
  Fixture f;
  api::Params dep;
  dep.set("id", int64_t{7}).set("amt", int64_t{5});
  auto r1 = f.request("deposit", dep);
  ASSERT_TRUE(r1.has_value());
  EXPECT_TRUE(r1->ok);

  api::Params chk;
  chk.set("id", int64_t{7});
  auto r2 = f.request("check", chk);
  ASSERT_TRUE(r2.has_value());
  EXPECT_EQ(r2->value, 75);  // 7*10 + 5, read on a slave at the new tag
  EXPECT_EQ(f.cluster->total_read_commits(), 1u);
  EXPECT_EQ(f.cluster->total_update_commits(), 1u);
}

TEST(DmvCluster, ReadsDistributeAcrossSlaves) {
  DmvCluster::Config cfg;
  cfg.slaves = 3;
  Fixture f(cfg);
  std::vector<std::unique_ptr<ClusterClient>> clients;
  int ok = 0;
  for (int i = 0; i < 30; ++i) {
    clients.push_back(f.cluster->make_client("c" + std::to_string(i)));
    f.sim.spawn([](ClusterClient& c, int id, int& ok) -> sim::Task<> {
      api::Params p;
      p.set("id", int64_t(id % 100));
      auto r = co_await c.execute("check", p);
      if (r && r->ok) ++ok;
    }(*clients.back(), i, ok));
  }
  f.sim.run();
  EXPECT_EQ(ok, 30);
  // Every slave served something (load balancing).
  for (size_t i = 0; i < f.cluster->slave_count(); ++i) {
    EXPECT_GT(f.cluster->node(f.cluster->slave_id(i))
                  .engine()
                  .stats()
                  .read_commits,
              0u);
  }
  // Master stayed out of the read path.
  EXPECT_EQ(f.cluster->master().engine().stats().read_commits, 0u);
}

TEST(DmvCluster, SequentialWorkloadKeepsConsistency) {
  Fixture f;
  // Interleave deposits and sums; the final sum must reflect all deposits.
  auto client = f.cluster->make_client("c");
  int64_t expected = 0;
  for (int64_t i = 0; i < 100; ++i) expected += i * 10;
  f.sim.spawn([](ClusterClient& c, int64_t expected) -> sim::Task<> {
    for (int i = 0; i < 20; ++i) {
      api::Params dep;
      dep.set("id", int64_t(i % 100)).set("amt", int64_t{3});
      auto r = co_await c.execute("deposit", dep);
      EXPECT_TRUE(r.has_value());
      api::Params none;
      auto s = co_await c.execute("sum", none);
      EXPECT_TRUE(s.has_value());
      EXPECT_EQ(s->rows, 100u);
      EXPECT_EQ(s->value, expected + 3 * (i + 1));  // sees all commits
    }
  }(*client, expected));
  f.sim.run();
}

TEST(DmvCluster, SlaveFailureContinuesService) {
  DmvCluster::Config cfg;
  cfg.slaves = 2;
  Fixture f(cfg);
  auto client = f.cluster->make_client("c");
  // Warm up both slaves.
  for (int i = 0; i < 4; ++i) {
    api::Params p;
    p.set("id", int64_t{1});
    f.request("check", p);
  }
  f.cluster->kill_node(f.cluster->slave_id(0));
  f.sim.run(f.sim.now() + sim::kSec);
  // Service continues on the surviving slave.
  api::Params p;
  p.set("id", int64_t{2});
  auto r = f.request("check", p);
  ASSERT_TRUE(r.has_value());
  EXPECT_EQ(r->value, 20);
  EXPECT_EQ(f.cluster->scheduler().slaves().size(), 1u);
}

TEST(DmvCluster, MasterFailureElectsSlaveAndContinues) {
  DmvCluster::Config cfg;
  cfg.slaves = 3;
  Fixture f(cfg);
  api::Params dep;
  dep.set("id", int64_t{5}).set("amt", int64_t{7});
  ASSERT_TRUE(f.request("deposit", dep).has_value());

  f.cluster->kill_node(f.cluster->master_id());
  f.sim.run(f.sim.now() + sim::kSec);  // detection + recovery
  EXPECT_EQ(f.cluster->scheduler().stats().recoveries, 1u);
  EXPECT_NE(f.cluster->scheduler().master(), net::kNoNode);
  EXPECT_EQ(f.cluster->scheduler().slaves().size(), 2u);

  // Committed data survived; updates flow through the new master.
  api::Params chk;
  chk.set("id", int64_t{5});
  auto r = f.request("check", chk);
  ASSERT_TRUE(r.has_value());
  EXPECT_EQ(r->value, 57);
  api::Params dep2;
  dep2.set("id", int64_t{5}).set("amt", int64_t{1});
  ASSERT_TRUE(f.request("deposit", dep2).has_value());
  auto r2 = f.request("check", chk);
  ASSERT_TRUE(r2.has_value());
  EXPECT_EQ(r2->value, 58);
}

TEST(DmvCluster, MasterFailureIntegratesSpareIntoRotation) {
  DmvCluster::Config cfg;
  cfg.slaves = 2;
  cfg.spares = 1;
  Fixture f(cfg);
  api::Params dep;
  dep.set("id", int64_t{1}).set("amt", int64_t{1});
  ASSERT_TRUE(f.request("deposit", dep).has_value());

  f.cluster->kill_node(f.cluster->master_id());
  f.sim.run(f.sim.now() + sim::kSec);
  // One slave became master; the spare backfilled the read rotation.
  EXPECT_EQ(f.cluster->scheduler().slaves().size(), 2u);
  EXPECT_TRUE(f.cluster->scheduler().spares().empty());
  EXPECT_GE(f.cluster->scheduler().stats().spare_activated_at, 0);
}

TEST(DmvCluster, SchedulerFailoverKeepsServing) {
  DmvCluster::Config cfg;
  cfg.schedulers = 2;
  Fixture f(cfg);
  api::Params dep;
  dep.set("id", int64_t{3}).set("amt", int64_t{9});
  ASSERT_TRUE(f.request("deposit", dep).has_value());

  f.cluster->kill_scheduler(0);
  f.sim.run(f.sim.now() + sim::kSec);

  // Client retries transparently against the standby.
  api::Params chk;
  chk.set("id", int64_t{3});
  auto r = f.request("check", chk);
  ASSERT_TRUE(r.has_value());
  EXPECT_EQ(r->value, 39);
  EXPECT_EQ(f.cluster->scheduler(1).stats().takeovers, 1u);
  EXPECT_TRUE(f.cluster->scheduler(1).is_primary());

  // Updates keep working through the new scheduler (version vector was
  // recovered from the master).
  api::Params dep2;
  dep2.set("id", int64_t{3}).set("amt", int64_t{1});
  ASSERT_TRUE(f.request("deposit", dep2).has_value());
  auto r2 = f.request("check", chk);
  EXPECT_EQ(r2->value, 40);
}

TEST(DmvCluster, ReintegrationAfterRestart) {
  DmvCluster::Config cfg;
  cfg.slaves = 2;
  cfg.node.checkpoint_period = 0;  // worst case: full page transfer
  Fixture f(cfg);
  auto client = f.cluster->make_client("c");
  // Produce some committed state.
  for (int i = 0; i < 10; ++i) {
    api::Params dep;
    dep.set("id", int64_t(i)).set("amt", int64_t{100});
    ASSERT_TRUE(f.request("deposit", dep).has_value());
  }
  const NodeId victim = f.cluster->slave_id(0);
  f.cluster->kill_node(victim);
  f.sim.run(f.sim.now() + sim::kSec);
  EXPECT_EQ(f.cluster->scheduler().slaves().size(), 1u);

  // More updates while the node is down.
  for (int i = 10; i < 20; ++i) {
    api::Params dep;
    dep.set("id", int64_t(i)).set("amt", int64_t{100});
    ASSERT_TRUE(f.request("deposit", dep).has_value());
  }

  f.cluster->restart_and_rejoin(victim);
  f.sim.run(f.sim.now() + 10 * sim::kSec);
  EXPECT_EQ(f.cluster->scheduler().stats().joins_completed, 1u);
  EXPECT_EQ(f.cluster->scheduler().slaves().size(), 2u);
  // Joiner caught up: its data matches the master's after applying.
  auto& joiner = f.cluster->node(victim).engine();
  EXPECT_GT(joiner.stats().pages_installed, 0u);
  // Reads on the rejoined node (force by killing the other slave).
  f.cluster->kill_node(f.cluster->slave_id(1));
  f.sim.run(f.sim.now() + sim::kSec);
  api::Params chk;
  chk.set("id", int64_t{15});
  auto r = f.request("check", chk);
  ASSERT_TRUE(r.has_value());
  EXPECT_EQ(r->value, 250);  // 15*10 + 100
}

TEST(DmvCluster, PersistenceBackendsConverge) {
  DmvCluster::Config cfg;
  cfg.enable_persistence = true;
  cfg.persistence.backends = 2;
  Fixture f(cfg);
  for (int i = 0; i < 10; ++i) {
    api::Params dep;
    dep.set("id", int64_t(i)).set("amt", int64_t{50});
    ASSERT_TRUE(f.request("deposit", dep).has_value());
  }
  // Drain the async appliers.
  f.sim.run(f.sim.now() + 60 * sim::kSec);
  auto* pb = f.cluster->persistence();
  ASSERT_NE(pb, nullptr);
  EXPECT_EQ(pb->total_seq(), 10u);
  EXPECT_TRUE(pb->drained());
  // Once every backend checkpointed past the tail, the log truncates to
  // empty — steady-state memory is bounded, not proportional to history.
  EXPECT_EQ(pb->log_size(), 0u);
  EXPECT_EQ(pb->log_base(), 10u);
  // Backends hold the committed state (disaster-recovery guarantee).
  for (size_t b = 0; b < pb->backend_count(); ++b) {
    auto& tb = pb->backend(b).db().table(0);
    auto rid = tb.pk_find(K(int64_t{3}));
    ASSERT_TRUE(rid.has_value());
    EXPECT_EQ(std::get<int64_t>(tb.read_row(*rid)[1]), 80);
  }
}

TEST(DmvCluster, PersistenceTruncationSkipsDeadBackendAndReattaches) {
  DmvCluster::Config cfg;
  cfg.enable_persistence = true;
  cfg.persistence.backends = 2;
  cfg.persistence.checkpoint_period = sim::kSec;
  Fixture f(cfg);
  auto deposit = [&f](int64_t id) {
    api::Params dep;
    dep.set("id", id).set("amt", int64_t{50});
    ASSERT_TRUE(f.request("deposit", dep).has_value());
  };
  for (int64_t i = 0; i < 5; ++i) deposit(i);
  auto* pb = f.cluster->persistence();
  ASSERT_NE(pb, nullptr);
  ASSERT_TRUE(pb->drained());
  EXPECT_EQ(pb->log_base(), 5u);  // both checkpointed: fully truncated

  // A dead backend must not pin the log: the horizon keeps tracking the
  // slowest *live* backend, so truncation advances past the corpse.
  f.cluster->kill_backend(0);
  for (int64_t i = 0; i < 5; ++i) deposit(i);
  EXPECT_EQ(pb->total_seq(), 10u);
  EXPECT_EQ(pb->log_base(), 10u);
  EXPECT_EQ(pb->backend_applied(0), 5u);
  EXPECT_FALSE(pb->backend_live(0));
  EXPECT_FALSE(pb->backend_recoverable(0));  // watermark below the horizon
  EXPECT_TRUE(pb->backend_recoverable(1));

  // On restart the applier finds its watermark below the horizon and must
  // route through a peer snapshot + suffix replay, not the retained log
  // alone (which is missing records 5..9 of its gap).
  f.cluster->restart_backend(0);
  f.sim.run(f.sim.now() + 30 * sim::kSec);
  EXPECT_TRUE(pb->drained());
  EXPECT_EQ(pb->backend_applied(0), 10u);
  EXPECT_TRUE(pb->backend_recoverable(0));
  for (size_t b = 0; b < pb->backend_count(); ++b) {
    auto& tb = pb->backend(b).db().table(0);
    auto rid = tb.pk_find(K(int64_t{3}));
    ASSERT_TRUE(rid.has_value());
    EXPECT_EQ(std::get<int64_t>(tb.read_row(*rid)[1]), 130);  // 30 + 2*50
  }
}

// One post-image update op: set row `id` of table 0 to balance `bal`.
txn::OpLogPtr persist_op(int64_t id, int64_t bal) {
  txn::OpRecord op;
  op.kind = txn::OpRecord::Kind::Update;
  op.table = 0;
  op.pk = {id};
  op.row = {id, bal};
  return std::make_shared<const std::vector<txn::OpRecord>>(
      std::vector<txn::OpRecord>{op});
}

// Regression: the scheduler's persist_ hook can fire after stop() — a
// TxnDone still draining through a failing-over scheduler. log_update must
// drop it instead of waking appliers whose frames are unwinding.
TEST(PersistenceBinding, LogUpdateAfterStopIsDropped) {
  sim::Simulation sim;
  PersistenceBinding::Config pcfg;
  pcfg.backends = 1;
  pcfg.checkpoint_period = 0;
  PersistenceBinding pb(sim, pcfg, demo_schema);
  pb.load(demo_image());
  pb.start();
  pb.log_update(persist_op(0, 1), {1});
  sim.run();
  pb.stop();
  pb.log_update(persist_op(1, 11), {0, 0});  // late TxnDone: dropped
  sim.run();
  EXPECT_EQ(pb.total_seq(), 1u);
  EXPECT_EQ(pb.backend_applied(0), 1u);
}

TEST(DmvCluster, SpareReadFractionWarmsSpare) {
  DmvCluster::Config cfg;
  cfg.slaves = 2;
  cfg.spares = 1;
  cfg.scheduler.spare_read_fraction = 0.05;
  Fixture f(cfg);
  auto client = f.cluster->make_client("c");
  int done = 0;
  f.sim.spawn([](ClusterClient& c, int& done) -> sim::Task<> {
    for (int i = 0; i < 600; ++i) {
      api::Params p;
      p.set("id", int64_t(i % 100));
      auto r = co_await c.execute("check", p);
      EXPECT_TRUE(r.has_value());
      ++done;
    }
  }(*client, done));
  f.sim.run();
  EXPECT_EQ(done, 600);
  const uint64_t spare_reads = f.cluster->scheduler().stats().spare_reads;
  EXPECT_GT(spare_reads, 5u);
  EXPECT_LT(spare_reads, 100u);
  // The spare's cache holds pages now.
  EXPECT_GT(f.cluster->node(f.cluster->spare_id(0))
                .engine()
                .cache()
                .resident_pages(),
            0u);
}

TEST(DmvCluster, PageIdHintsWarmSpareWithoutQueries) {
  DmvCluster::Config cfg;
  cfg.slaves = 2;
  cfg.spares = 1;
  cfg.pageid_hints = true;
  Fixture f(cfg);
  auto client = f.cluster->make_client("c");
  int done = 0;
  f.sim.spawn([](ClusterClient& c, int& done) -> sim::Task<> {
    for (int i = 0; i < 200; ++i) {
      api::Params p;
      p.set("id", int64_t(i % 100));
      auto r = co_await c.execute("check", p);
      EXPECT_TRUE(r.has_value());
      ++done;
    }
  }(*client, done));
  f.sim.run();
  EXPECT_EQ(done, 200);
  auto& spare = f.cluster->node(f.cluster->spare_id(0)).engine();
  EXPECT_EQ(spare.stats().read_commits, 0u);  // no queries went there
  EXPECT_GT(spare.cache().resident_pages(), 0u);  // but its cache is warm
  EXPECT_GT(f.cluster->node(f.cluster->slave_id(0)).stats().hints_sent, 0u);
}

TEST(DmvCluster, SparesReceiveReplicationStream) {
  DmvCluster::Config cfg;
  cfg.slaves = 1;
  cfg.spares = 1;
  Fixture f(cfg);
  api::Params dep;
  dep.set("id", int64_t{4}).set("amt", int64_t{2});
  ASSERT_TRUE(f.request("deposit", dep).has_value());
  auto& spare = f.cluster->node(f.cluster->spare_id(0)).engine();
  EXPECT_EQ(spare.received_version()[0], 1u);  // subscribed like a slave
}

// ---- Conflict classes (§2.1): one master per disjoint table set ----

void two_table_schema(storage::Database& db) {
  db.add_table("acct",
               storage::Schema({storage::int_col("id"),
                                storage::int_col("balance")}),
               storage::IndexDef{"pk", {0}, true});
  db.add_table("audit",
               storage::Schema({storage::int_col("seq"),
                                storage::int_col("what")}),
               storage::IndexDef{"pk", {0}, true});
}

api::ProcRegistry two_class_registry() {
  api::ProcRegistry reg;
  api::ProcInfo dep;
  dep.read_only = false;
  dep.tables = {0};
  dep.fn = [](api::Connection& c, const api::Params& p)
      -> sim::Task<api::TxnResult> {
    Key k = K(p.i("id"));
    const int64_t amt = p.i("amt");
    co_await c.update(0, k, [amt](Row& r) {
      r[1] = std::get<int64_t>(r[1]) + amt;
    });
    co_return api::TxnResult{};
  };
  reg.register_proc("deposit", dep);

  api::ProcInfo log;
  log.read_only = false;
  log.tables = {1};
  log.fn = [](api::Connection& c, const api::Params& p)
      -> sim::Task<api::TxnResult> {
    Row row = R(p.i("seq"), p.i("what"));
    co_await c.insert(1, row);
    co_return api::TxnResult{};
  };
  reg.register_proc("log", log);

  api::ProcInfo snap;
  snap.read_only = true;
  snap.tables = {0, 1};
  snap.fn = [](api::Connection& c, const api::Params& p)
      -> sim::Task<api::TxnResult> {
    Key k = K(p.i("id"));
    auto acct = co_await c.get(0, k);
    api::ScanSpec all;
    auto logs = co_await c.scan(1, std::move(all));
    api::TxnResult res;
    res.ok = acct.has_value();
    res.value = acct ? std::get<int64_t>((*acct)[1]) : -1;
    res.rows = logs.size();
    co_return res;
  };
  reg.register_proc("snapshot", snap);
  return reg;
}

struct MultiMasterFixture {
  sim::Simulation sim;
  net::Network net{sim};
  api::ProcRegistry reg = two_class_registry();
  std::unique_ptr<DmvCluster> cluster;

  MultiMasterFixture() {
    DmvCluster::Config cfg;
    cfg.slaves = 2;
    cfg.conflict_classes = {{0}, {1}};  // two masters
    cfg.schema = two_table_schema;
    cfg.loader = [](storage::Database& db) {
      for (int64_t i = 0; i < 10; ++i)
        db.table(0).insert_row(Row{i, i * 10});
    };
    cluster = std::make_unique<DmvCluster>(net, reg, cfg);
    cluster->start();
  }

  std::optional<api::TxnResult> request(const std::string& proc,
                                        api::Params params) {
    auto client = cluster->make_client("c");
    std::optional<api::TxnResult> out;
    sim.spawn([](ClusterClient& c, const std::string proc, api::Params p,
                 std::optional<api::TxnResult>& out) -> sim::Task<> {
      out = co_await c.execute(proc, std::move(p));
    }(*client, proc, std::move(params), out));
    sim.run();
    return out;
  }
};

TEST(ConflictClasses, UpdateProcSpanningClassesFailsAtStart) {
  // An update proc whose tables fit no single conflict class cannot be
  // routed: it would execute on one master while writing tables mastered
  // elsewhere. Scheduler::start() must reject the registry by proc name
  // instead of silently falling back to class 0.
  sim::Simulation sim;
  net::Network net{sim};
  api::ProcRegistry reg = two_class_registry();
  api::ProcInfo bad;
  bad.read_only = false;
  bad.tables = {0, 1};  // spans both classes
  bad.fn = [](api::Connection&, const api::Params&)
      -> sim::Task<api::TxnResult> { co_return api::TxnResult{}; };
  reg.register_proc("cross_class_transfer", bad);

  DmvCluster::Config cfg;
  cfg.slaves = 2;
  cfg.conflict_classes = {{0}, {1}};
  cfg.schema = two_table_schema;
  cfg.loader = [](storage::Database&) {};
  DmvCluster cluster(net, reg, cfg);
  EXPECT_THROW(cluster.start(), util::AssertionError);
}

TEST(ConflictClasses, UpdatesRouteToPerClassMasters) {
  MultiMasterFixture f;
  ASSERT_EQ(f.cluster->master_count(), 2u);
  api::Params dep;
  dep.set("id", int64_t{3}).set("amt", int64_t{7});
  ASSERT_TRUE(f.request("deposit", dep).has_value());
  api::Params lg;
  lg.set("seq", int64_t{1}).set("what", int64_t{42});
  ASSERT_TRUE(f.request("log", lg).has_value());

  // Each class's master committed exactly its own transaction.
  EXPECT_EQ(f.cluster->master(0).engine().stats().update_commits, 1u);
  EXPECT_EQ(f.cluster->master(1).engine().stats().update_commits, 1u);
  // And produced versions only in its own vector slot.
  EXPECT_EQ(f.cluster->master(0).engine().version()[0], 1u);
  EXPECT_EQ(f.cluster->master(0).engine().version()[1], 0u);
  EXPECT_EQ(f.cluster->master(1).engine().version()[1], 1u);
}

TEST(ConflictClasses, ReadersSeeMergedSnapshotAcrossClasses) {
  MultiMasterFixture f;
  for (int i = 0; i < 5; ++i) {
    api::Params dep;
    dep.set("id", int64_t{1}).set("amt", int64_t{10});
    ASSERT_TRUE(f.request("deposit", dep).has_value());
    api::Params lg;
    lg.set("seq", int64_t(100 + i)).set("what", int64_t(i));
    ASSERT_TRUE(f.request("log", lg).has_value());
  }
  api::Params sp;
  sp.set("id", int64_t{1});
  auto r = f.request("snapshot", sp);
  ASSERT_TRUE(r.has_value());
  EXPECT_EQ(r->value, 60);  // 10 + 5*10
  EXPECT_EQ(r->rows, 5u);   // all five log records visible
}

TEST(ConflictClasses, MastersExchangeWriteSets) {
  MultiMasterFixture f;
  api::Params lg;
  lg.set("seq", int64_t{9}).set("what", int64_t{1});
  ASSERT_TRUE(f.request("log", lg).has_value());
  // Master 0 is a slave for table 1: it received master 1's write-set.
  EXPECT_EQ(f.cluster->master(0).engine().received_version()[1], 1u);
}

TEST(ConflictClasses, PerClassMasterFailureRecoversOnlyThatClass) {
  MultiMasterFixture f;
  api::Params dep;
  dep.set("id", int64_t{2}).set("amt", int64_t{5});
  ASSERT_TRUE(f.request("deposit", dep).has_value());
  api::Params lg;
  lg.set("seq", int64_t{11}).set("what", int64_t{3});
  ASSERT_TRUE(f.request("log", lg).has_value());

  // Kill the class-1 master; class 0 must keep serving untouched.
  f.cluster->kill_node(f.cluster->master_id(1));
  f.sim.run(f.sim.now() + sim::kSec);
  EXPECT_EQ(f.cluster->scheduler().stats().recoveries, 1u);
  EXPECT_NE(f.cluster->scheduler().masters()[1], net::kNoNode);
  EXPECT_EQ(f.cluster->scheduler().masters()[0], f.cluster->master_id(0));

  // Both classes accept updates again.
  api::Params lg2;
  lg2.set("seq", int64_t{12}).set("what", int64_t{4});
  ASSERT_TRUE(f.request("log", lg2).has_value());
  api::Params dep2;
  dep2.set("id", int64_t{2}).set("amt", int64_t{1});
  ASSERT_TRUE(f.request("deposit", dep2).has_value());
  api::Params sp;
  sp.set("id", int64_t{2});
  auto r = f.request("snapshot", sp);
  ASSERT_TRUE(r.has_value());
  EXPECT_EQ(r->value, 26);  // 20 + 5 + 1
  EXPECT_EQ(r->rows, 2u);
}

// ---- fail-over corner cases, replayed as shrunk chaos plans ----
//
// Each plan below was found (or is the shrunk form of one found) by the
// chaos or check sweep; replaying it through check::run_check checks the
// 1-copy-SR oracle and every structural invariant — no lost acked update,
// consistent tagged reads, monotone version vectors, drained scheduler
// queues, balanced spans, converged replicas — not just liveness.

// check_sweep --chaos's base run with the given seed and replica counts.
check::CheckConfig one_class(uint64_t seed = 1, int slaves = 2,
                             int spares = 1) {
  check::CheckConfig cfg = check::chaos_config();
  cfg.cluster.slaves = slaves;
  cfg.cluster.spares = spares;
  cfg.seed = seed;
  return cfg;
}

check::CheckReport replay(const char* plan, uint64_t seed = 1,
                          int slaves = 2, int spares = 1) {
  return check::run_check(one_class(seed, slaves, spares), plan);
}

TEST(Failover, RecoverySurvivesSlaveDeathDuringDiscard) {
  // The support slave dies while the recovery is collecting DiscardAbove
  // acks: the wait must prune the dead node instead of hanging (the
  // original bug wedged recover_master forever).
  auto r = replay("kill:master@t:30000;kill:slave0@p:failover.discard#1");
  EXPECT_TRUE(r.passed) << r.summary();
  EXPECT_GE(r.recoveries, 1u);
  EXPECT_EQ(r.faults_unfired, 0u);
}

TEST(Failover, DoubleFailureMasterAndSupportSlave) {
  // A node is rejoining (bounced slave); the master dies exactly while the
  // support slave is serving pages. Join must retry/complete against the
  // recovered topology and the recovery itself must not hang.
  auto r = replay(
      "kill:slave0@t:20000;restart:slave0@t:40000;"
      "kill:master@p:migration.serve#1");
  EXPECT_TRUE(r.passed) << r.summary();
  EXPECT_GE(r.recoveries, 1u);
}

TEST(Failover, TakeoverWithConcurrentlyDyingMaster) {
  // The primary scheduler dies; the standby's takeover liveness-checks the
  // master, which then dies before AbortAllReply. The takeover wait must
  // be pruned on the obituary (the original bug hung the standby forever).
  auto r = replay("kill:sched0@t:30000;kill:master@p:sched.takeover#1");
  EXPECT_TRUE(r.passed) << r.summary();
  EXPECT_GE(r.takeovers, 1u);
  EXPECT_GE(r.recoveries, 1u);
}

TEST(Failover, ReadsSurviveLastSlaveDeath) {
  // Single slave, no spares: killing it must divert reads to the master
  // (liveness-gated fallback) rather than starving them behind a dead
  // entry still present in slaves_. The availability bound asserts the
  // diversion is immediate — a fallback gated on list emptiness parks
  // reads for the whole failure-detection window.
  check::CheckConfig cfg = one_class(1, /*slaves=*/1, /*spares=*/0);
  cfg.max_read_stall = 20 * sim::kMsec;  // well under detect_delay (50ms)
  auto r = check::run_check(cfg, "kill:slave0@t:30000");
  EXPECT_TRUE(r.passed) << r.summary();
  // Only the ops in flight on slave0 when it dies fail (§4.3: abort,
  // error to the client); every client has at most one.
  EXPECT_LE(r.client_errors, uint64_t(cfg.clients));
  EXPECT_GT(r.read_commits, 0u);
}

TEST(Failover, JoinArrivingMidRecovery) {
  // A bounced slave's JoinRequest lands while the cluster is recovering
  // from the master's death (slowed support link widens the window): the
  // join must be parked/retried, never answered with a stale topology.
  auto r = replay(
      "slow:slave0~spare0:4000@t:0;kill:slave1@t:20000;"
      "restart:slave1@t:30000;kill:master@p:join.subscribe#1");
  EXPECT_TRUE(r.passed) << r.summary();
  EXPECT_GE(r.recoveries, 1u);
  EXPECT_GE(r.joins, 1u);
}

TEST(Failover, ResubmittedUpdateIsNotExecutedTwice) {
  // Scheduler dies with committed-but-unacked updates in flight; clients
  // resubmit via the standby under the same request id and the master must
  // dedupe — the oracle's at-most-once check fails on any update that
  // commits twice.
  auto r = replay("kill:sched0@t:30000", 2, /*slaves=*/1, /*spares=*/0);
  EXPECT_TRUE(r.passed) << r.summary();
  EXPECT_GE(r.takeovers, 1u);
}

TEST(Failover, SchedulerDeathClosesRequestSpans) {
  // Killing a scheduler with parked/in-flight requests must close their
  // spans (shutdown path) — the span-balance invariant catches leaks.
  auto r = replay("kill:sched0@t:20000;kill:sched1@t:90000");
  EXPECT_TRUE(r.passed) << r.summary();
}

TEST(Failover, PromotionCandidateDeathFailsItsReads) {
  // The elected slave dies while being promoted. It had already left the
  // rotation, so its obituary matched no list, and a read routed to it
  // before the election stayed outstanding forever (wedged client, open
  // request span). It must fail back to its client like any read on a
  // dead node (§4.3).
  auto r = replay("kill:master@t:30000;kill:slave0@p:failover.promote#1", 3);
  for (const auto& v : r.violations) ADD_FAILURE() << v;
  EXPECT_TRUE(r.passed) << r.summary();
  EXPECT_EQ(r.faults_unfired, 0u);
  EXPECT_GE(r.recoveries, 1u);
}

TEST(Failover, MasterRestartBeforeStandbyTakeoverIsRecovered) {
  // The primary scheduler dies, the master dies, and the master restarts
  // before the standby takes over. The standby heard the master's death
  // while standing by; it must still recover the class instead of keeping
  // the restarted (empty) process as master — which once left every
  // replica diverged from a master stuck at version 0.
  for (uint64_t seed = 1; seed <= 3; ++seed) {
    auto r = replay(
        "kill:sched0@t:25002;kill:master@t:14762;restart:master@t:36988",
        seed);
    for (const auto& v : r.violations) ADD_FAILURE() << v;
    EXPECT_TRUE(r.passed) << "seed " << seed << ": " << r.summary();
    EXPECT_GE(r.takeovers, 1u);
    EXPECT_GE(r.recoveries, 1u);
    EXPECT_GE(r.joins, 1u);  // the restarted process rejoined as a slave
  }
}

// ---- quorum fail-over: survivors below the promoted master ----
//
// Under quorum commit an acked write-set may reach only the quorum. When
// the master dies, the discard keeps it and the most caught-up survivor is
// promoted, but no stream ever ships it to the other survivors: without
// the promotion's page transfer they stay below the new master forever
// (divergence at quiesce, reads above the gap parked, joins supported by
// them hung). Each plan below is a shrunk check_sweep failure.

check::CheckConfig quorum_mode(uint64_t seed, bool multimaster) {
  check::CheckConfig cfg;  // what check_sweep --geo / --multimaster set
  cfg.seed = seed;
  cfg.multimaster = multimaster;
  if (multimaster) cfg.classes = 3;
  cfg.cluster.regions = 2;
  cfg.cluster.node.quorum_commit = true;
  check::open_batch_windows(cfg.cluster.node);
  return cfg;
}

void expect_clean(const check::CheckConfig& cfg, const char* plan) {
  const check::CheckReport r = check::run_check(cfg, plan);
  for (const auto& v : r.violations) ADD_FAILURE() << v;
  EXPECT_TRUE(r.passed) << r.summary();
  EXPECT_GE(r.recoveries, 1u);
}

TEST(QuorumFailover, GeoMasterKillLeavesNoLaggard) {
  expect_clean(quorum_mode(78, false), "kill:master0@t:42163");
}

TEST(QuorumFailover, MultimasterEarlyMasterKillLeavesNoLaggard) {
  // Another class's master (master0) missed class 2's only acked version.
  expect_clean(quorum_mode(67, true), "kill:master2@t:5966");
}

TEST(QuorumFailover, MultimasterMasterKillDoesNotWedgeReads) {
  // The once-wedged seed: reads parked in slave.wait_version above a gap.
  expect_clean(quorum_mode(254, true), "kill:master2@t:28910");
}

TEST(QuorumFailover, MultimasterMasterKillMidWorkloadLeavesNoLaggard) {
  expect_clean(quorum_mode(2, true), "kill:master2@t:39125");
}

TEST(QuorumFailover, MultimasterMasterKillNearEndLeavesNoLaggard) {
  expect_clean(quorum_mode(49, true), "kill:master2@t:43077");
}

// Two classes recover at once: the first promotion's candidate is in
// neither list while it waits for PromoteDone, and a replica-set push in
// that window must still include it, or it misses the other class's
// write-sets until its own promotion completes.
TEST(QuorumFailover, ConcurrentRecoveriesKeepThePromotingNodeSubscribed) {
  expect_clean(quorum_mode(86, true),
               "retire:slave0@t:29661;kill:master1@t:12004;"
               "kill:master2@t:5225");
}

TEST(QuorumFailover, ConcurrentRecoveriesWithRetireConverge) {
  expect_clean(quorum_mode(34, true),
               "retire:slave0@t:17834;kill:master2@t:17478;"
               "kill:master0@t:12019");
}

// A client's update still waiting for its quorum when the scheduler dies
// is resubmitted through the standby. The committed mark is stored only
// once the acks arrive, so the resubmission must wait for them, then be
// re-acked from the mark instead of executing again (shrunk check_sweep
// --multimaster failure: two at-most-once violations).
TEST(QuorumFailover, ResubmissionDuringAckWaitIsNotExecutedTwice) {
  const check::CheckReport r = check::run_check(
      quorum_mode(262, true),
      "retire:slave1@t:9345;kill:sched0@t:35648;kill:slave0@t:24395");
  for (const auto& v : r.violations) ADD_FAILURE() << v;
  EXPECT_TRUE(r.passed) << r.summary();
  EXPECT_GE(r.takeovers, 1u);
}

// ---- replication pipeline: cumulative acks + write-set batching ----

TEST(DmvCluster, SchedulerRoutingStateErasedOnDeathAndRejoin) {
  DmvCluster::Config cfg;
  cfg.slaves = 2;
  Fixture f(cfg);
  api::Params dep;
  dep.set("id", int64_t{1}).set("amt", int64_t{5});
  ASSERT_TRUE(f.request("deposit", dep).has_value());
  for (int i = 0; i < 6; ++i) {
    api::Params p;
    p.set("id", int64_t{1});
    ASSERT_TRUE(f.request("check", p).has_value());
  }
  const NodeId victim = f.cluster->slave_id(0);
  ASSERT_TRUE(f.cluster->scheduler().has_routing_state(victim));

  f.cluster->kill_node(victim);
  f.sim.run(f.sim.now() + sim::kSec);
  // A dead node's routing state must go with it: a stale last_tag_ entry
  // biases pick_read_replica against the node's next incarnation, and a
  // leaked outstanding_per_node_ counter skews load comparisons forever.
  EXPECT_FALSE(f.cluster->scheduler().has_routing_state(victim));

  f.cluster->restart_and_rejoin(victim);
  f.sim.run(f.sim.now() + 10 * sim::kSec);
  ASSERT_EQ(f.cluster->scheduler().stats().joins_completed, 1u);
  EXPECT_FALSE(f.cluster->scheduler().has_routing_state(victim));

  // The fresh incarnation serves reads (force it by killing the peer).
  f.cluster->kill_node(f.cluster->slave_id(1));
  f.sim.run(f.sim.now() + sim::kSec);
  api::Params chk;
  chk.set("id", int64_t{1});
  auto r = f.request("check", chk);
  ASSERT_TRUE(r.has_value());
  EXPECT_EQ(r->value, 15);
}

TEST(Failover, ResubmissionAfterPromotionCarriesResult) {
  DmvCluster::Config cfg;
  cfg.slaves = 2;
  Fixture f(cfg);
  const NodeId me = f.net.add_node("raw-client");
  const NodeId sched = f.cluster->scheduler_ids()[0];

  auto send_req = [&] {
    ClientRequest cr;
    cr.req_id = 77;
    cr.reply_to = me;
    cr.proc = "deposit";
    cr.params.set("id", int64_t{4}).set("amt", int64_t{6});
    f.net.send(me, sched, std::move(cr));
  };
  auto receive = [&](std::optional<ClientReply>& out) {
    f.sim.spawn([](net::Network& net, NodeId me,
                   std::optional<ClientReply>& out) -> sim::Task<> {
      auto env = co_await net.mailbox(me).receive();
      if (!env) co_return;
      if (const auto* r = std::get_if<ClientReply>(&env->msg)) out = *r;
    }(f.net, me, out));
  };

  std::optional<ClientReply> first;
  receive(first);
  send_req();
  f.sim.run();
  ASSERT_TRUE(first.has_value());
  EXPECT_TRUE(first->ok);
  EXPECT_TRUE(first->result.ok);

  f.cluster->kill_node(f.cluster->master_id());
  f.sim.run(f.sim.now() + sim::kSec);

  // Same client, same request id, after fail-over: the promoted master
  // never executed the original update — it only has the committed mark
  // replicated in the write-set. The mark must carry the original result
  // (it rides in WriteSetMsg), so the re-ack is indistinguishable from
  // the first ack, not an empty TxnResult.
  std::optional<ClientReply> second;
  receive(second);
  send_req();
  f.sim.run();
  ASSERT_TRUE(second.has_value());
  EXPECT_TRUE(second->ok);
  EXPECT_TRUE(second->result.ok);

  // At-most-once held: the deposit applied exactly once.
  api::Params chk;
  chk.set("id", int64_t{4});
  auto r = f.request("check", chk);
  ASSERT_TRUE(r.has_value());
  EXPECT_EQ(r->value, 46);
}

TEST(CommittedMarks, DenseMarksReackAndDiscardAboveResetsOnlyHigherOnes) {
  // Committed marks are a vector indexed by client NodeId. Clients with ids
  // far beyond the cluster's nodes must get marks on the master and on the
  // slave (through the write-set stream); a resubmission is re-acked from
  // the mark; DiscardAbove resets exactly the marks above the confirmed
  // version, so after a promotion only those updates execute again.
  DmvCluster::Config cfg;
  cfg.slaves = 1;
  Fixture f(cfg);
  const NodeId me = f.net.add_node("raw-sched");
  const NodeId master = f.cluster->master_id();
  const NodeId slave = f.cluster->slave_id(0);
  constexpr NodeId kLow = 4000, kHigh = 4097;

  std::map<uint64_t, TxnDone> done;
  bool promoted = false;
  f.sim.spawn([](net::Network& net, NodeId me, std::map<uint64_t, TxnDone>& done,
                 bool& promoted) -> sim::Task<> {
    for (;;) {
      auto env = co_await net.mailbox(me).receive();
      if (!env) co_return;
      if (const auto* d = std::get_if<TxnDone>(&env->msg))
        done[d->req_id] = *d;
      if (std::get_if<PromoteDone>(&env->msg)) promoted = true;
    }
  }(f.net, me, done, promoted));
  uint64_t next_req = 1;
  auto update = [&](NodeId to, NodeId origin, uint64_t origin_req) {
    ExecTxn m;
    m.req_id = next_req++;
    m.reply_to = me;
    m.proc = "deposit";
    m.params.set("id", int64_t{2}).set("amt", int64_t{10});
    m.read_only = false;
    m.origin = origin;
    m.origin_req = origin_req;
    f.net.send(me, to, std::move(m));
    f.sim.run();
    return done.at(m.req_id);
  };

  const TxnDone low = update(master, kLow, 1);    // version 1
  const TxnDone high = update(master, kHigh, 1);  // version 2
  ASSERT_TRUE(low.ok);
  ASSERT_TRUE(high.ok);
  ASSERT_EQ(low.db_version, (VersionVec{1}));
  ASSERT_EQ(high.db_version, (VersionVec{2}));
  ASSERT_NE(low.ops, nullptr);
  EXPECT_FALSE(low.ops->empty());

  // Re-acked from the master's mark: same outcome, nothing executed.
  const uint64_t executed = f.cluster->master().stats().txns_executed;
  const TxnDone again = update(master, kHigh, 1);
  EXPECT_TRUE(again.ok);
  EXPECT_EQ(again.db_version, high.db_version);
  EXPECT_EQ(again.ops, high.ops);  // the mark's own log, shared
  EXPECT_EQ(f.cluster->master().stats().txns_executed, executed);

  // Discard above version 1 on the slave, then make it a master.
  f.net.send(me, slave, DiscardAbove{VersionVec{1}, {}, 9});
  PromoteToMaster pm;
  pm.reply_to = me;
  pm.tables = {0};
  f.net.send(me, slave, std::move(pm));
  f.sim.run();
  ASSERT_TRUE(promoted);

  EngineNode& node = f.cluster->node(slave);
  const uint64_t before = node.stats().txns_executed;
  // The low client's update is at the confirmed version: its mark
  // survived and it is re-acked.
  const TxnDone low_again = update(slave, kLow, 1);
  EXPECT_TRUE(low_again.ok);
  EXPECT_EQ(low_again.db_version, low.db_version);
  EXPECT_EQ(node.stats().txns_executed, before);
  // The high client's update was discarded with its mark: it runs again.
  const TxnDone high_again = update(slave, kHigh, 1);
  EXPECT_TRUE(high_again.ok);
  EXPECT_EQ(high_again.db_version, (VersionVec{2}));
  EXPECT_EQ(node.stats().txns_executed, before + 1);
}

TEST(SchedulerDown, SynthesizedNoticeDispatchesByType) {
  // A client learns of a scheduler's death from a SchedulerDown the
  // cluster puts straight into its mailbox. It must dispatch like any sent
  // message: it holds a SchedulerDown, not a reply type.
  DmvCluster::Config cfg;
  cfg.schedulers = 2;
  Fixture f(cfg);
  auto client = f.cluster->make_client("c");
  const NodeId victim = f.cluster->scheduler_ids()[0];
  std::optional<Envelope> got;
  f.sim.spawn([](net::Network& net, NodeId id,
                 std::optional<Envelope>& got) -> sim::Task<> {
    got = co_await net.mailbox(id).receive();
  }(f.net, client->id(), got));
  f.cluster->kill_scheduler(0);
  f.sim.run(f.sim.now() + sim::kSec);
  ASSERT_TRUE(got.has_value());
  const auto* down = std::get_if<SchedulerDown>(&got->msg);
  ASSERT_NE(down, nullptr);
  EXPECT_EQ(down->scheduler, victim);
  EXPECT_EQ(got->from, client->id());
  EXPECT_EQ(std::get_if<ClientReply>(&got->msg), nullptr);
  EXPECT_EQ(std::get_if<TxnDone>(&got->msg), nullptr);
}

TEST(DmvCluster, ReplicasShareOneWriteSetPayload) {
  // The master builds one write-set per commit; the network messages and
  // every replica's queue of pending mods share it instead of copying.
  DmvCluster::Config cfg;
  cfg.slaves = 3;
  cfg.spares = 1;
  Fixture f(cfg);
  api::Params dep;
  dep.set("id", int64_t{3}).set("amt", int64_t{1});
  ASSERT_TRUE(f.request("deposit", dep).has_value());
  std::vector<NodeId> replicas;
  for (size_t i = 0; i < f.cluster->slave_count(); ++i)
    replicas.push_back(f.cluster->slave_id(i));
  replicas.push_back(f.cluster->spare_id(0));
  mem::MemEngine::PendingMod shared;
  for (NodeId r : replicas) {
    const auto& q = f.cluster->node(r).engine().pending(0);
    ASSERT_EQ(q.size(), 1u);
    if (!shared) shared = q.front();
    EXPECT_EQ(q.front(), shared);  // the same mod of the same write-set
  }
  // Held by the replicas' queues and this test, by nothing else.
  EXPECT_EQ(shared.use_count(), long(replicas.size()) + 1);
}

TEST(DmvCluster, BatchedReplicationCoalescesAndPreservesOrder) {
  DmvCluster::Config cfg;
  cfg.slaves = 2;
  cfg.node.batch_max_writesets = 4;
  cfg.node.batch_delay = 5 * sim::kMsec;
  cfg.node.ack_every_n = 4;
  cfg.node.ack_delay = 5 * sim::kMsec;
  Fixture f(cfg);
  constexpr int kDeposits = 8;
  std::vector<std::unique_ptr<ClusterClient>> clients;
  std::vector<std::optional<api::TxnResult>> outs(kDeposits);
  for (int i = 0; i < kDeposits; ++i)
    clients.push_back(f.cluster->make_client("c" + std::to_string(i)));
  for (int i = 0; i < kDeposits; ++i) {
    f.sim.spawn([](ClusterClient& c, int i,
                   std::optional<api::TxnResult>& out) -> sim::Task<> {
      api::Params p;
      p.set("id", int64_t(i)).set("amt", int64_t{7});
      out = co_await c.execute("deposit", std::move(p));
    }(*clients[i], i, outs[i]));
  }
  f.sim.run();
  for (auto& out : outs) {
    ASSERT_TRUE(out.has_value());
    EXPECT_TRUE(out->ok);
  }
  // Concurrent write-sets coalesced into WriteSetBatchMsg; replicas
  // answered with cumulative acks; the only other ack, DiscardAck,
  // answers a fail-over's DiscardAbove, so none was sent here.
  EXPECT_GT(f.net.stats_of<WriteSetBatchMsg>().messages, 0u);
  EXPECT_GT(f.net.stats_of<CumAckMsg>().messages, 0u);
  EXPECT_EQ(f.net.stats_of<DiscardAck>().messages, 0u);
  EXPECT_LT(f.net.stats_of<WriteSetMsg>().messages +
                f.net.stats_of<WriteSetBatchMsg>().messages,
            uint64_t(kDeposits) * 2);
  // In-batch application preserved version order on every replica: each
  // account reads back exactly one deposit on top of its seed balance.
  for (int i = 0; i < kDeposits; ++i) {
    api::Params chk;
    chk.set("id", int64_t(i));
    auto r = f.request("check", chk);
    ASSERT_TRUE(r.has_value());
    EXPECT_EQ(r->value, i * 10 + 7);
  }
}

TEST(DmvCluster, DelayedCumAckFlushesOnDeadline) {
  DmvCluster::Config cfg;
  cfg.slaves = 1;
  cfg.node.ack_every_n = 16;  // the count threshold will never be reached
  cfg.node.ack_delay = 2 * sim::kMsec;
  Fixture f(cfg);
  api::Params dep;
  dep.set("id", int64_t{1}).set("amt", int64_t{5});
  ASSERT_TRUE(f.request("deposit", dep).has_value());
  const sim::Time t0 = f.sim.now();
  // A lone update cannot fill the ack window; only the deadline timer
  // stands between it and a parked commit.
  api::Params dep2;
  dep2.set("id", int64_t{2}).set("amt", int64_t{5});
  auto r = f.request("deposit", dep2);
  ASSERT_TRUE(r.has_value());
  EXPECT_TRUE(r->ok);
  EXPECT_GE(f.sim.now() - t0, 2 * sim::kMsec);
}

TEST(DmvCluster, ReplicaDeathMidAckWaitDoesNotHangCommit) {
  // Client-blocking acks no longer park in the ack_delay window (replicas
  // flush urgently — see ack_urgent in messages.hpp), so a death can no
  // longer strand a commit on acks a survivor is sitting on. The hazard
  // that remains: a replica dies while the write-set is on the wire to it,
  // so ITS ack is never coming. The master must prune the dead node from
  // the ack-wait on failure detection and complete on the survivor alone.
  DmvCluster::Config cfg;
  cfg.slaves = 2;
  cfg.node.ack_every_n = 64;
  cfg.node.ack_delay = 200 * sim::kMsec;  // much longer than failure detection
  Fixture f(cfg);
  auto client = f.cluster->make_client("c");
  std::optional<api::TxnResult> out;
  f.sim.spawn([](ClusterClient& c,
                 std::optional<api::TxnResult>& out) -> sim::Task<> {
    api::Params p;
    p.set("id", int64_t{1}).set("amt", int64_t{5});
    out = co_await c.execute("deposit", std::move(p));
  }(*client, out));
  // Advance in sub-latency steps until the master has broadcast to both
  // replicas, then kill one immediately — the write-set (or at worst its
  // cumulative ack) is still in flight and dies with the sealed connection.
  const sim::Time deadline = f.sim.now() + 10 * sim::kMsec;
  while (f.net.stats_of<WriteSetMsg>().messages < 2 &&
         f.sim.now() < deadline)
    f.sim.run(f.sim.now() + 20 * sim::kUsec);
  ASSERT_GE(f.net.stats_of<WriteSetMsg>().messages, 2u);
  ASSERT_FALSE(out.has_value());  // commit still gated on the acks
  f.cluster->kill_node(f.cluster->slave_id(0));
  f.sim.run();
  ASSERT_TRUE(out.has_value());
  EXPECT_TRUE(out->ok);

  api::Params chk;
  chk.set("id", int64_t{1});
  auto r = f.request("check", chk);
  ASSERT_TRUE(r.has_value());
  EXPECT_EQ(r->value, 15);
}

TEST(Failover, LateWriteSetBatchAfterDiscardIsDropped) {
  // Slowed replication links hold the dead master's last write-set batches
  // in flight past failure detection, so they arrive at the replicas after
  // the recovery's DiscardAbove truncated the stream. Delivering them
  // would resurrect discarded versions: received_ jumps to versions the
  // new master will restamp with different transactions, the stale mods
  // apply to pages the new stream hasn't touched, and tagged reads observe
  // a state that never existed in the one-copy history. The connection
  // model must seal the stream instead — once a peer has observed the
  // broken connection, nothing more arrives on it. Caught end-to-end by
  // the dmv_check oracle (these seeds fail with snapshot-mismatch if the
  // late batches are let through).
  for (uint64_t seed : {6u, 8u, 9u}) {
    check::CheckConfig cfg;
    cfg.seed = seed;
    cfg.rows_per_table = 4096;  // spread rows over pages: no accidental
    cfg.clients = 4;            // page-version masking of stale mods
    cfg.ops_per_client = 25;
    cfg.cluster.node.batch_max_writesets = 4;
    cfg.cluster.node.batch_delay = 2 * sim::kMsec;
    cfg.cluster.node.ack_every_n = 4;
    cfg.cluster.node.ack_delay = 2 * sim::kMsec;
    auto r = check::run_check(
        cfg,
        "slow:master0~slave0:70000@t:0;slow:master0~slave1:70000@t:0;"
        "slow:master0~spare0:70000@t:0;kill:master0@t:4000");
    EXPECT_TRUE(r.passed) << "seed " << seed << ": " << r.summary() << "\n"
                          << (r.violations.empty() ? ""
                                                   : r.violations.front());
    EXPECT_GE(r.recoveries, 1u);
    EXPECT_EQ(r.faults_unfired, 0u);
  }
}

// ---- geo-replication: WAN regions + quorum commit ----

// Two-region deployment: region 0 ("local") keeps the master, sched0 and
// the clients; slave1 lands in "r1" behind a slow cross-region link.
struct GeoFixture {
  sim::Simulation sim;
  net::Network net{sim};
  api::ProcRegistry reg = make_registry();
  std::unique_ptr<DmvCluster> cluster;
  net::RegionId remote = net::kNoRegion;

  GeoFixture(DmvCluster::Config cfg, sim::Time cross_base) {
    net::LinkClassConfig& cross =
        net.topology().link(net::LinkClass::Cross);
    cross.base_latency = cross_base;
    cross.per_kb = 200;
    cross.detect_delay = 200 * sim::kMsec;
    cfg.regions = 2;
    cfg.schema = demo_schema;
    cfg.loader = demo_loader;
    cluster = std::make_unique<DmvCluster>(net, reg, std::move(cfg));
    cluster->start();
    remote = net.topology().find_region("r1");
  }

  // Run `deposit`/`check` in a coroutine, recording completion time.
  sim::Task<> timed(ClusterClient& c, std::string proc, api::Params p,
                    std::optional<api::TxnResult>& out, sim::Time& done) {
    out = co_await c.execute(std::move(proc), std::move(p));
    done = sim.now();
  }

  std::optional<api::TxnResult> request(const std::string& proc,
                                        api::Params params) {
    auto client = cluster->make_client("c");
    std::optional<api::TxnResult> out;
    sim::Time done = -1;
    sim.spawn(timed(*client, proc, std::move(params), out, done));
    sim.run();
    return out;
  }
};

TEST(GeoReplication, QuorumCommitDoesNotWaitForRemoteRegion) {
  DmvCluster::Config cfg;
  cfg.slaves = 2;  // slave0 -> local (sync voter), slave1 -> r1
  cfg.node.quorum_commit = true;
  GeoFixture f(std::move(cfg), 100 * sim::kMsec);
  auto client = f.cluster->make_client("c");
  std::optional<api::TxnResult> r;
  sim::Time done = -1;
  api::Params p;
  p.set("id", int64_t{7}).set("amt", int64_t{5});
  f.sim.spawn(f.timed(*client, "deposit", p, r, done));
  f.sim.run();
  ASSERT_TRUE(r.has_value());
  EXPECT_TRUE(r->ok);
  // Majority quorum = master + one voter ack, and the same-region sync
  // voter (slave0) covers both — the reply never rides the 100ms WAN leg.
  EXPECT_LT(done, 100 * sim::kMsec);
  // The remote replica still catches up lazily over the same stream.
  EXPECT_EQ(f.cluster->node(f.cluster->slave_id(1))
                .engine()
                .received_version()[0],
            1u);
}

TEST(GeoReplication, AllAckCommitWaitsForRemoteRegion) {
  // Control for the test above: with quorum commit off, the client reply
  // gates on every replica's cumulative ack — one WAN round trip minimum.
  DmvCluster::Config cfg;
  cfg.slaves = 2;
  cfg.node.quorum_commit = false;
  GeoFixture f(std::move(cfg), 100 * sim::kMsec);
  auto client = f.cluster->make_client("c");
  std::optional<api::TxnResult> r;
  sim::Time done = -1;
  api::Params p;
  p.set("id", int64_t{7}).set("amt", int64_t{5});
  f.sim.spawn(f.timed(*client, "deposit", p, r, done));
  f.sim.run();
  ASSERT_TRUE(r.has_value());
  EXPECT_TRUE(r->ok);
  EXPECT_GE(done, 200 * sim::kMsec);  // write-set out + ack back
}

TEST(GeoReplication, MasterDeathOneAckShortOfQuorumDiscardsEverywhere) {
  // write_quorum=3 over {master, slave0, slave1}: the commit needs the
  // remote voter too. Kill the master while that ack is still on the WAN:
  // the client was never acked, so fail-over confirms the pre-commit
  // version and every replica discards the in-flight write-set — the
  // update vanishes consistently, and a fresh attempt applies once.
  DmvCluster::Config cfg;
  cfg.slaves = 2;
  cfg.node.quorum_commit = true;
  cfg.node.write_quorum = 3;
  GeoFixture f(std::move(cfg), 100 * sim::kMsec);
  auto client = f.cluster->make_client("c");
  std::optional<api::TxnResult> r;
  sim::Time done = -1;
  api::Params p;
  p.set("id", int64_t{7}).set("amt", int64_t{5});
  f.sim.spawn(f.timed(*client, "deposit", p, r, done));
  f.sim.run(20 * sim::kMsec);  // local voter acked; remote ack in flight
  EXPECT_FALSE(r.has_value());
  f.cluster->kill_node(f.cluster->master_id());
  f.sim.run(f.sim.now() + 2 * sim::kSec);  // detection + recovery
  ASSERT_TRUE(done >= 0);
  EXPECT_FALSE(r.has_value());  // errored, not acked
  EXPECT_EQ(f.cluster->scheduler().stats().recoveries, 1u);

  // The one-short commit left no trace on any survivor.
  api::Params chk;
  chk.set("id", int64_t{7});
  auto v = f.request("check", chk);
  ASSERT_TRUE(v.has_value());
  EXPECT_EQ(v->value, 70);

  // A fresh deposit flows through the new master exactly once.
  ASSERT_TRUE(f.request("deposit", p).has_value());
  auto v2 = f.request("check", chk);
  ASSERT_TRUE(v2.has_value());
  EXPECT_EQ(v2->value, 75);
}

TEST(GeoReplication, LaggingReplicaServesReadOnlyAfterCatchUp) {
  // A read tagged at the commit vector and routed to the lagging remote
  // replica must block on the version gate until the write-set crosses
  // the WAN — never serve the stale pre-commit state.
  DmvCluster::Config cfg;
  cfg.slaves = 2;
  cfg.node.quorum_commit = true;
  GeoFixture f(std::move(cfg), 2 * sim::kSec);
  auto client = f.cluster->make_client("c");
  std::optional<api::TxnResult> r;
  sim::Time done = -1;
  api::Params p;
  p.set("id", int64_t{7}).set("amt", int64_t{5});
  f.sim.spawn(f.timed(*client, "deposit", p, r, done));
  f.sim.run(50 * sim::kMsec);
  ASSERT_TRUE(r.has_value());  // quorum-acked via the local voter
  const sim::Time committed_at = done;

  // Take the caught-up local slave out so the read must go remote.
  f.cluster->kill_node(f.cluster->slave_id(0));
  f.sim.run(f.sim.now() + sim::kSec);  // past detection; WAN leg still open
  EXPECT_LT(f.cluster->node(f.cluster->slave_id(1))
                .engine()
                .received_version()[0],
            1u);

  std::optional<api::TxnResult> v;
  sim::Time read_done = -1;
  api::Params chk;
  chk.set("id", int64_t{7});
  auto reader = f.cluster->make_client("r");
  f.sim.spawn(f.timed(*reader, "check", chk, v, read_done));
  f.sim.run();
  ASSERT_TRUE(v.has_value());
  EXPECT_EQ(v->value, 75);  // the committed value, never the stale one
  // The read waited for the replication stream, not the other way around.
  EXPECT_GE(read_done, committed_at + 2 * sim::kSec);
  EXPECT_GE(f.cluster->node(f.cluster->slave_id(1))
                .engine()
                .stats()
                .read_commits,
            1u);
}

TEST(GeoReplication, PartitionedMinorityRegionDoesNotBlockQuorumCommits) {
  DmvCluster::Config cfg;
  cfg.slaves = 2;
  cfg.node.quorum_commit = true;
  GeoFixture f(std::move(cfg), 10 * sim::kMsec);
  f.net.partition_regions(0, f.remote);

  auto client = f.cluster->make_client("c");
  std::optional<api::TxnResult> r;
  sim::Time done = -1;
  api::Params p;
  p.set("id", int64_t{7}).set("amt", int64_t{5});
  f.sim.spawn(f.timed(*client, "deposit", p, r, done));
  f.sim.run(sim::kSec);
  ASSERT_TRUE(r.has_value());  // majority side keeps committing
  EXPECT_TRUE(r->ok);
  EXPECT_LT(done, 100 * sim::kMsec);
  // The dark region saw nothing: its stream is parked, not lost.
  EXPECT_EQ(f.cluster->node(f.cluster->slave_id(1))
                .engine()
                .received_version()[0],
            0u);
  EXPECT_GT(f.net.inflight_bytes(net::LinkClass::Cross), 0u);

  f.net.heal_partition(0, f.remote);
  f.sim.run();
  EXPECT_EQ(f.cluster->node(f.cluster->slave_id(1))
                .engine()
                .received_version()[0],
            1u);
}

TEST(GeoReplication, WriteQuorumSpanningPartitionStallsUntilHeal) {
  // If the configured quorum needs the minority region's voter, a commit
  // issued during the cut must wait for the heal — blocked, not lost.
  DmvCluster::Config cfg;
  cfg.slaves = 2;
  cfg.node.quorum_commit = true;
  cfg.node.write_quorum = 3;
  GeoFixture f(std::move(cfg), 10 * sim::kMsec);
  f.net.partition_regions(0, f.remote);

  auto client = f.cluster->make_client("c");
  std::optional<api::TxnResult> r;
  sim::Time done = -1;
  api::Params p;
  p.set("id", int64_t{7}).set("amt", int64_t{5});
  f.sim.spawn(f.timed(*client, "deposit", p, r, done));
  f.sim.run(100 * sim::kMsec);
  EXPECT_FALSE(r.has_value());  // one ack short until the WAN heals

  f.sim.schedule_at(500 * sim::kMsec,
                    [&] { f.net.heal_partition(0, f.remote); });
  f.sim.run();
  ASSERT_TRUE(r.has_value());
  EXPECT_TRUE(r->ok);
  EXPECT_GE(done, 500 * sim::kMsec);
}

TEST(MemEngine, RacingReaderPastTagAbortsAndCounts) {
  // §2.2: two concurrent read-only transactions hit the same slave. The
  // first is tagged {1} and lazily applies the pending v1 mod, raising the
  // page version past the second reader's tag {0}; the second must abort
  // with version_abort (the scheduler would retry it under a fresh tag),
  // and the dmv_obs abort-rate counter must record it.
  Fixture f;
  obs::Tracer tracer(f.sim);
  tracer.enable();
  struct Restore {
    obs::Tracer* prev;
    ~Restore() { obs::set_tracer(prev); }
  } restore{obs::set_tracer(&tracer)};

  api::Params dep;
  dep.set("id", int64_t{1}).set("amt", int64_t{5});
  ASSERT_TRUE(f.request("deposit", dep).has_value());

  const NodeId me = f.net.add_node("raw-sched");
  const NodeId slave = f.cluster->slave_id(0);
  auto send_read = [&](uint64_t req, uint64_t tag) {
    ExecTxn m;
    m.req_id = req;
    m.reply_to = me;
    m.proc = "check";
    m.params.set("id", int64_t{1});
    m.read_only = true;
    m.tag = {tag};
    f.net.send(me, slave, std::move(m));
  };
  std::map<uint64_t, TxnDone> done;
  f.sim.spawn([](net::Network& net, NodeId me,
                 std::map<uint64_t, TxnDone>& done) -> sim::Task<> {
    for (int i = 0; i < 2; ++i) {
      auto env = co_await net.mailbox(me).receive();
      if (!env) co_return;
      if (const auto* d = std::get_if<TxnDone>(&env->msg))
        done[d->req_id] = *d;
    }
  }(f.net, me, done));
  send_read(1, 1);  // applies the pending v1 mod on first touch
  send_read(2, 0);  // same page, older tag: §2.2 must abort it
  f.sim.run();

  ASSERT_EQ(done.size(), 2u);
  EXPECT_TRUE(done[1].ok);
  EXPECT_EQ(done[1].result.value, 15);
  EXPECT_FALSE(done[2].ok);
  EXPECT_TRUE(done[2].version_abort);
  EXPECT_GE(tracer.counters().total("aborts.version", slave), 1.0);
}

TEST(VersionHelpers, MergeCoversSame) {
  VersionVec a{1, 5, 2}, b{3, 4, 2};
  merge_max(a, b);
  EXPECT_EQ(a, (VersionVec{3, 5, 2}));
  EXPECT_TRUE(covers(a, b));
  EXPECT_FALSE(covers(b, a));
  EXPECT_TRUE(same_version(a, a));
  EXPECT_FALSE(same_version(a, b));
}

// ---- elastic scaling: live fleet resizing without quiescing ----

TEST(Elastic, AddSlaveJoinsAndServesReads) {
  DmvCluster::Config cfg;
  cfg.slaves = 1;
  Fixture f(cfg);
  // Committed state the joiner has never seen: it must arrive via §4.4.
  for (int i = 0; i < 10; ++i) {
    api::Params dep;
    dep.set("id", int64_t(i)).set("amt", int64_t{100});
    ASSERT_TRUE(f.request("deposit", dep).has_value());
  }
  const NodeId added = f.cluster->add_slave();
  f.sim.run(f.sim.now() + 10 * sim::kSec);
  EXPECT_EQ(f.cluster->scheduler().stats().joins_completed, 1u);
  ASSERT_EQ(f.cluster->scheduler().slaves().size(), 2u);
  EXPECT_EQ(f.cluster->live_slave_count(), 2u);
  EXPECT_GT(f.cluster->node(added).engine().stats().pages_installed, 0u);

  // The joiner serves correct reads (force by killing the original slave).
  f.cluster->kill_node(f.cluster->slave_id(0));
  f.sim.run(f.sim.now() + sim::kSec);
  api::Params chk;
  chk.set("id", int64_t{7});
  auto r = f.request("check", chk);
  ASSERT_TRUE(r.has_value());
  EXPECT_EQ(r->value, 170);  // 7*10 + 100
  EXPECT_GT(f.cluster->node(added).engine().stats().read_commits, 0u);
}

TEST(Elastic, AddSchedulerAdoptsLiveTopologyAndServes) {
  DmvCluster::Config cfg;
  cfg.slaves = 2;
  Fixture f(cfg);
  api::Params dep;
  dep.set("id", int64_t{2}).set("amt", int64_t{8});
  ASSERT_TRUE(f.request("deposit", dep).has_value());
  f.cluster->add_scheduler();
  f.sim.run(f.sim.now() + sim::kSec);
  ASSERT_EQ(f.cluster->scheduler_count(), 2u);

  // Kill the original primary: the added standby must take over with the
  // topology it adopted at creation and keep serving.
  f.cluster->kill_scheduler(0);
  f.sim.run(f.sim.now() + sim::kSec);
  EXPECT_TRUE(f.cluster->scheduler(1).is_primary());
  api::Params chk;
  chk.set("id", int64_t{2});
  auto r = f.request("check", chk);
  ASSERT_TRUE(r.has_value());
  EXPECT_EQ(r->value, 28);
}

TEST(Elastic, RetireDrainsInFlightReadsThenKills) {
  DmvCluster::Config cfg;
  cfg.slaves = 2;
  Fixture f(cfg);
  api::Params dep;
  dep.set("id", int64_t{1}).set("amt", int64_t{5});
  ASSERT_TRUE(f.request("deposit", dep).has_value());

  // Fan out reads across both slaves, then retire one while its dispatches
  // are still in flight: the drain must let them finish before the kill.
  std::vector<std::unique_ptr<ClusterClient>> clients;
  int ok = 0;
  for (int i = 0; i < 8; ++i) {
    clients.push_back(f.cluster->make_client("c" + std::to_string(i)));
    f.sim.spawn([](ClusterClient& c, int& ok) -> sim::Task<> {
      api::Params p;
      p.set("id", int64_t{1});
      auto r = co_await c.execute("check", p);
      if (r && r->ok && r->value == 15) ++ok;
    }(*clients.back(), ok));
  }
  const NodeId victim = f.cluster->slave_id(0);
  f.sim.schedule_after(200, [&f, victim] {
    EXPECT_TRUE(f.cluster->retire_node(victim));
  });
  f.sim.run();
  EXPECT_EQ(ok, 8);
  EXPECT_EQ(f.cluster->retires_completed(), 1u);
  EXPECT_FALSE(f.net.alive(victim));
  EXPECT_EQ(f.cluster->scheduler().slaves().size(), 1u);
  // Masters never retire; dead nodes don't either.
  EXPECT_FALSE(f.cluster->retire_node(f.cluster->master_id()));
  EXPECT_FALSE(f.cluster->retire_node(victim));
}

TEST(Elastic, RetireLastRegionalSlaveUnderQuorumCommit) {
  DmvCluster::Config cfg;
  cfg.slaves = 2;
  cfg.regions = 2;  // slave1 lands in region r1
  cfg.node.quorum_commit = true;
  Fixture f(cfg);
  api::Params dep;
  dep.set("id", int64_t{3}).set("amt", int64_t{4});
  ASSERT_TRUE(f.request("deposit", dep).has_value());

  // Retire the only replica of region r1: the voter pool shrinks to the
  // local slave, so quorum commits must not wait on (or count) the
  // retiree, and the drain itself must complete.
  ASSERT_TRUE(f.cluster->retire_node(f.cluster->slave_id(1)));
  f.sim.run(f.sim.now() + 10 * sim::kSec);
  EXPECT_EQ(f.cluster->retires_completed(), 1u);
  EXPECT_EQ(f.cluster->live_slave_count(), 1u);

  api::Params dep2;
  dep2.set("id", int64_t{3}).set("amt", int64_t{1});
  auto r = f.request("deposit", dep2);
  ASSERT_TRUE(r.has_value());
  EXPECT_TRUE(r->ok);
  api::Params chk;
  chk.set("id", int64_t{3});
  auto r2 = f.request("check", chk);
  ASSERT_TRUE(r2.has_value());
  EXPECT_EQ(r2->value, 35);
}

TEST(Elastic, RetireRacingConcurrentDeathIsBenign) {
  DmvCluster::Config cfg;
  cfg.slaves = 2;
  Fixture f(cfg);
  api::Params dep;
  dep.set("id", int64_t{1}).set("amt", int64_t{5});
  ASSERT_TRUE(f.request("deposit", dep).has_value());

  // The node dies mid-drain: the retirement must simply dissolve (the
  // death path already cleans up) instead of double-killing or counting a
  // completed drain.
  const NodeId victim = f.cluster->slave_id(0);
  ASSERT_TRUE(f.cluster->retire_node(victim));
  f.cluster->kill_node(victim);
  f.sim.run(f.sim.now() + sim::kSec);
  EXPECT_EQ(f.cluster->retires_completed(), 0u);
  EXPECT_FALSE(f.cluster->scheduler().is_retiring(victim));
  EXPECT_EQ(f.cluster->scheduler().slaves().size(), 1u);
  api::Params chk;
  chk.set("id", int64_t{1});
  auto r = f.request("check", chk);
  ASSERT_TRUE(r.has_value());
  EXPECT_EQ(r->value, 15);
}

TEST(Elastic, SpareMidRejoinIsNotActivated) {
  // Regression: integrate_spare used to activate any live spare, including
  // one that is mid-§4.4-rejoin (listed as a spare by stale gossip) and
  // therefore not caught up — reads routed to it would serve stale pages.
  DmvCluster::Config cfg;
  cfg.slaves = 2;
  cfg.node.checkpoint_period = 0;  // full page transfer: a wide join window
  Fixture f(cfg);
  for (int i = 0; i < 20; ++i) {
    api::Params dep;
    dep.set("id", int64_t(i)).set("amt", int64_t{100});
    ASSERT_TRUE(f.request("deposit", dep).has_value());
  }
  const NodeId rejoiner = f.cluster->slave_id(1);
  f.cluster->kill_node(rejoiner);
  f.sim.run(f.sim.now() + sim::kSec);
  // Slow the support's page-transfer link so the §4.4 join stays open
  // long enough to race against (otherwise it completes in under 2ms).
  f.net.set_link_delay(f.cluster->slave_id(0), rejoiner, 50 * sim::kMsec);
  f.cluster->restart_and_rejoin(rejoiner);
  f.sim.run(f.sim.now() + 2 * sim::kMsec);  // JoinInfo sent, pages not yet
  ASSERT_TRUE(f.cluster->scheduler().is_joining(rejoiner));

  // Stale gossip (sent before the death, delivered now) lists the
  // rejoiner as a spare. The scheduler must refuse to adopt a node it
  // knows is mid-join: adopting it would expose it to integrate_spare
  // (activating a not-caught-up replica) and permanently wedge the join —
  // answer_or_park_join rejects any joiner already in the topology as a
  // not-yet-buried prior incarnation, and a gossip-planted entry is never
  // buried.
  const NodeId fake = f.net.add_node("stale-sched");
  TopologyGossip tg;
  tg.masters = {f.cluster->master_id()};
  tg.slaves = {f.cluster->slave_id(0)};
  tg.spares = {rejoiner};
  f.net.send(fake, f.cluster->scheduler_ids()[0], std::move(tg));
  f.sim.run(f.sim.now() + sim::kMsec);
  EXPECT_TRUE(f.cluster->scheduler().spares().empty());

  // A slave death now triggers spare integration: the mid-join node must
  // NOT be pulled into the read rotation.
  f.cluster->kill_node(f.cluster->slave_id(0));
  f.sim.run(f.sim.now() + 100 * sim::kMsec);
  if (f.cluster->scheduler().is_joining(rejoiner)) {
    EXPECT_TRUE(f.cluster->scheduler().slaves().empty());
  }

  // The support died mid-transfer; the joiner retries against the master
  // and completes — then serves reads with the full state.
  f.sim.run(f.sim.now() + 10 * sim::kSec);
  ASSERT_FALSE(f.cluster->scheduler().is_joining(rejoiner));
  api::Params chk;
  chk.set("id", int64_t{15});
  auto r = f.request("check", chk);
  ASSERT_TRUE(r.has_value());
  EXPECT_EQ(r->value, 250);
}

TEST(Elastic, JoinSupportSkipsMidJoinSlaves) {
  // Regression: answer_join used to pick the first live slave as the data
  // migration support, even one that is itself mid-join — the new joiner
  // would seed from a peer that hasn't caught up.
  DmvCluster::Config cfg;
  cfg.slaves = 2;
  cfg.node.checkpoint_period = 0;
  Fixture f(cfg);
  for (int i = 0; i < 20; ++i) {
    api::Params dep;
    dep.set("id", int64_t(i)).set("amt", int64_t{100});
    ASSERT_TRUE(f.request("deposit", dep).has_value());
  }
  const NodeId mid_join = f.cluster->slave_id(0);
  f.cluster->kill_node(mid_join);
  f.sim.run(f.sim.now() + sim::kSec);
  // Hold the first join open: its support (slave1) ships pages slowly.
  f.net.set_link_delay(f.cluster->slave_id(1), mid_join, 50 * sim::kMsec);
  f.cluster->restart_and_rejoin(mid_join);
  f.sim.run(f.sim.now() + 2 * sim::kMsec);
  ASSERT_TRUE(f.cluster->scheduler().is_joining(mid_join));

  // A second joiner asks while the first is still migrating: the answer
  // must name a caught-up support (slave1), never the mid-join peer.
  const NodeId me = f.net.add_node("raw-joiner");
  std::optional<JoinInfo> info;
  f.sim.spawn([](net::Network& net, NodeId me,
                 std::optional<JoinInfo>& info) -> sim::Task<> {
    auto env = co_await net.mailbox(me).receive();
    if (!env) co_return;
    if (const auto* ji = std::get_if<JoinInfo>(&env->msg)) info = *ji;
  }(f.net, me, info));
  f.net.send(me, f.cluster->scheduler_ids()[0], JoinRequest{me});
  f.sim.run(f.sim.now() + sim::kMsec);
  ASSERT_TRUE(info.has_value());
  EXPECT_NE(info->support, mid_join);
  EXPECT_EQ(info->support, f.cluster->slave_id(1));
}

}  // namespace
}  // namespace dmv::core
