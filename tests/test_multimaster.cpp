// Multi-master conflict-class battery (§2.1): per-class routing and
// accounting, the merged-snapshot-tag invariant behind cross-class reads,
// independent per-class fail-over, cross-class adoption when a class loses
// every promotable replica, zipfian class pinning (the hot-class stress),
// and the planted wrong-class-route bug caught by dmv_check as a named
// violation. Complements the ConflictClasses unit tests in test_core.cpp,
// which cover single mechanisms; here each test spans scheduler + engines.
#include <gtest/gtest.h>

#include <array>

#include "check/checker.hpp"
#include "core/cluster.hpp"
#include "harness/experiment.hpp"
#include "workload/sharding.hpp"

namespace dmv {
namespace {

using storage::Key;
using storage::Row;
using storage::Value;

inline Key K(Value a) { return Key{std::move(a)}; }

// Three single-table conflict classes: tables a/b/c, one bump proc per
// class plus a read crossing all three (the merged-tag consumer).
void tri_schema(storage::Database& db) {
  for (const char* name : {"a", "b", "c"})
    db.add_table(name,
                 storage::Schema({storage::int_col("id"),
                                  storage::int_col("val")}),
                 storage::IndexDef{"pk", {0}, true});
}

void tri_loader(storage::Database& db) {
  for (storage::TableId t = 0; t < 3; ++t)
    for (int64_t i = 0; i < 10; ++i)
      db.table(t).insert_row(Row{i, i * 100});
}

api::ProcRegistry tri_registry() {
  api::ProcRegistry reg;
  for (storage::TableId t = 0; t < 3; ++t) {
    api::ProcInfo bump;
    bump.read_only = false;
    bump.tables = {t};
    bump.fn = [t](api::Connection& c, const api::Params& p)
        -> sim::Task<api::TxnResult> {
      Key k = K(p.i("id"));
      const int64_t amt = p.i("amt");
      const bool found = co_await c.update(t, k, [amt](Row& r) {
        r[1] = std::get<int64_t>(r[1]) + amt;
      });
      api::TxnResult res;
      res.ok = found;
      co_return res;
    };
    reg.register_proc(std::string("bump") + char('0' + t), bump);
  }

  api::ProcInfo all;
  all.read_only = true;
  all.tables = {0, 1, 2};
  all.fn = [](api::Connection& c, const api::Params& p)
      -> sim::Task<api::TxnResult> {
    Key k = K(p.i("id"));
    api::TxnResult res;
    res.ok = true;
    for (storage::TableId t = 0; t < 3; ++t) {
      auto row = co_await c.get(t, k);
      if (!row) {
        res.ok = false;
        co_return res;
      }
      res.value += std::get<int64_t>((*row)[1]);
    }
    co_return res;
  };
  reg.register_proc("read_all", all);
  return reg;
}

struct TriFixture {
  sim::Simulation sim;
  net::Network net{sim};
  api::ProcRegistry reg = tri_registry();
  std::unique_ptr<core::DmvCluster> cluster;

  explicit TriFixture(core::DmvCluster::Config cfg = base_config()) {
    cfg.conflict_classes = {{0}, {1}, {2}};
    cfg.schema = tri_schema;
    cfg.loader = tri_loader;
    cluster = std::make_unique<core::DmvCluster>(net, reg, std::move(cfg));
    cluster->start();
  }

  static core::DmvCluster::Config base_config() {
    core::DmvCluster::Config cfg;
    cfg.slaves = 2;
    cfg.spares = 1;
    return cfg;
  }

  std::optional<api::TxnResult> request(const std::string& proc,
                                        api::Params params) {
    auto client = cluster->make_client("c");
    std::optional<api::TxnResult> out;
    sim.spawn([](core::ClusterClient& c, const std::string proc,
                 api::Params p,
                 std::optional<api::TxnResult>& out) -> sim::Task<> {
      out = co_await c.execute(proc, std::move(p));
    }(*client, proc, std::move(params), out));
    sim.run();
    return out;
  }

  bool bump(storage::TableId t, int64_t id, int64_t amt) {
    api::Params p;
    p.set("id", id).set("amt", amt);
    auto r = request(std::string("bump") + char('0' + t), std::move(p));
    return r.has_value() && r->ok;
  }
};

TEST(MultiMaster, PerClassRoutingAndAccounting) {
  TriFixture f;
  ASSERT_EQ(f.cluster->master_count(), 3u);
  ASSERT_TRUE(f.bump(0, 1, 1));
  ASSERT_TRUE(f.bump(0, 2, 1));
  ASSERT_TRUE(f.bump(1, 1, 1));
  ASSERT_TRUE(f.bump(2, 1, 1));
  ASSERT_TRUE(f.bump(2, 2, 1));
  ASSERT_TRUE(f.bump(2, 3, 1));

  core::Scheduler& s = f.cluster->scheduler();
  const uint64_t want_routed[3] = {2, 1, 3};
  uint64_t sum = 0;
  for (size_t c = 0; c < 3; ++c) {
    EXPECT_EQ(s.class_state(c).updates_routed, want_routed[c]) << "class " << c;
    EXPECT_EQ(s.class_state(c).commits, want_routed[c]) << "class " << c;
    // The class's own master (and only it) executed those commits.
    EXPECT_EQ(f.cluster->master(c).engine().stats().update_commits,
              want_routed[c])
        << "class " << c;
    sum += s.class_state(c).updates_routed;
  }
  EXPECT_EQ(s.stats().updates_routed, sum);
}

TEST(MultiMaster, MergedSnapshotTagCoversCrossClassReads) {
  TriFixture f;
  for (int round = 0; round < 4; ++round)
    for (storage::TableId t = 0; t < 3; ++t)
      ASSERT_TRUE(f.bump(t, 1, 10 * (t + 1)));

  core::Scheduler& s = f.cluster->scheduler();
  // The maintained read tag must equal the recomputed elementwise merge of
  // every class vector — the invariant cross-class read tagging rests on.
  EXPECT_EQ(s.merged_snapshot_tag(), s.version());
  // Each class vector is authoritative for its own table and zero
  // elsewhere (class-projected, not a copy of the global vector).
  for (size_t c = 0; c < 3; ++c)
    for (storage::TableId t = 0; t < 3; ++t) {
      if (t == storage::TableId(c))
        EXPECT_EQ(s.class_state(c).version[t], s.version()[t]);
      else
        EXPECT_EQ(s.class_state(c).version[t], 0u) << c << "/" << t;
    }

  // A reader spanning all three classes sees every class's writes under
  // one tag: 3 * 100 base + 4 rounds of (10 + 20 + 30).
  api::Params p;
  p.set("id", int64_t{1});
  auto r = f.request("read_all", std::move(p));
  ASSERT_TRUE(r.has_value());
  EXPECT_TRUE(r->ok);
  EXPECT_EQ(r->value, 300 + 4 * 60);
}

TEST(MultiMaster, ClassesFailOverIndependently) {
  TriFixture f;
  for (storage::TableId t = 0; t < 3; ++t) ASSERT_TRUE(f.bump(t, 1, 1));

  // Kill class 0's master, then immediately push a class-2 update. It must
  // commit while class 0's recovery is still in flight — per-class held
  // queues mean one class's fail-over never parks another class's updates.
  f.cluster->kill_node(f.cluster->master_id(0));
  auto client = f.cluster->make_client("c2");
  std::optional<api::TxnResult> out;
  sim::Time done_at = -1;
  f.sim.spawn([](core::ClusterClient& c, sim::Simulation& sim,
                 std::optional<api::TxnResult>& out,
                 sim::Time& done) -> sim::Task<> {
    api::Params p;
    p.set("id", int64_t{1}).set("amt", int64_t{5});
    out = co_await c.execute("bump2", std::move(p));
    done = sim.now();
  }(*client, f.sim, out, done_at));
  f.sim.run();

  ASSERT_TRUE(out.has_value());
  EXPECT_TRUE(out->ok);

  core::Scheduler& s = f.cluster->scheduler();
  EXPECT_EQ(s.class_state(0).recoveries, 1u);
  EXPECT_EQ(s.class_state(1).recoveries, 0u);
  EXPECT_EQ(s.class_state(2).recoveries, 0u);
  EXPECT_EQ(s.stats().recoveries, 1u);
  ASSERT_GE(s.class_state(0).recovery_end, s.class_state(0).recovery_start);
  // The class-2 commit landed before class 0's recovery finished.
  EXPECT_LT(done_at, s.class_state(0).recovery_end);

  // Classes 1 and 2 kept their masters; class 0 got a new one.
  EXPECT_EQ(s.masters()[1], f.cluster->master_id(1));
  EXPECT_EQ(s.masters()[2], f.cluster->master_id(2));
  EXPECT_NE(s.masters()[0], f.cluster->master_id(0));
  EXPECT_NE(s.masters()[0], net::kNoNode);

  // And the failed class accepts updates again after its recovery.
  EXPECT_TRUE(f.bump(0, 1, 1));
  EXPECT_EQ(s.class_state(0).commits, 2u);
}

TEST(MultiMaster, MasterAdoptsClassWithNoSurvivingReplica) {
  core::DmvCluster::Config cfg;
  cfg.slaves = 1;
  cfg.spares = 0;
  TriFixture f(cfg);
  for (storage::TableId t = 0; t < 3; ++t) ASSERT_TRUE(f.bump(t, 1, 1));

  // Lose the only slave, then class 2's master: no slave or spare is left
  // to promote, so a surviving other-class master must adopt class 2
  // instead of leaving it headless.
  f.cluster->kill_node(f.cluster->slave_id(0));
  f.sim.run();
  f.cluster->kill_node(f.cluster->master_id(2));
  f.sim.run();

  core::Scheduler& s = f.cluster->scheduler();
  const core::NodeId adopter = s.masters()[2];
  EXPECT_TRUE(adopter == f.cluster->master_id(0) ||
              adopter == f.cluster->master_id(1))
      << "class 2 not adopted by a surviving master";
  EXPECT_EQ(s.class_state(2).recoveries, 1u);

  // The adopted class commits again, on the adopter.
  ASSERT_TRUE(f.bump(2, 1, 7));
  EXPECT_EQ(s.class_state(2).commits, 2u);
  EXPECT_EQ(s.masters()[2], adopter);
  // ...without disturbing the adopter's own class.
  ASSERT_TRUE(f.bump(adopter == f.cluster->master_id(0) ? 0 : 1, 1, 7));
}

TEST(MultiMaster, ZipfShardAssignment) {
  // theta 0 degenerates to round-robin by key.
  const util::Zipf uniform(4, 0.0);
  for (uint64_t k = 0; k < 50; ++k)
    EXPECT_EQ(util::zipf_pick(k, uniform), size_t(k % 4));

  // Skewed assignment: deterministic, in range, and monotonically favoring
  // low shards with a clear hot/cold split.
  const util::Zipf skewed(4, 1.1);
  std::array<size_t, 4> count{};
  for (uint64_t k = 0; k < 20000; ++k) {
    const size_t s = util::zipf_pick(k, skewed);
    ASSERT_LT(s, 4u);
    EXPECT_EQ(s, util::zipf_pick(k, util::Zipf(4, 1.1)));  // deterministic
    ++count[s];
  }
  for (size_t s = 0; s + 1 < 4; ++s)
    EXPECT_GT(count[s], count[s + 1]) << "shard " << s;
  EXPECT_GT(count[0], 2 * count[3]);
}

TEST(MultiMaster, HotClassDoesNotStallColdClasses) {
  // Zipfian client pinning makes class 0 hot; the cold classes' per-client
  // commit rate must stay in the same ballpark as the hot class's — a hot
  // conflict class degrades alone instead of dragging the others down.
  harness::DmvExperiment::Config cfg;
  cfg.workload.scale.items = 100;
  cfg.workload.clients = 60;
  cfg.workload.think_mean = 200 * sim::kMsec;
  cfg.workload.mix = tpcw::Mix::Ordering;
  cfg.workload.classes = 3;
  cfg.workload.class_skew = 1.5;  // pins a strict client majority (34/60)
                                  // to class 0 at this population
  cfg.slaves = 2;
  harness::DmvExperiment exp(cfg);
  exp.start();
  exp.run_until(15 * sim::kSec);
  exp.stop();
  EXPECT_EQ(exp.series().errors(), 0u);

  // Clients are pinned by zipf_pick(client_index, ...), so the per-class
  // populations are reproducible here.
  const util::Zipf pin(3, cfg.workload.class_skew);
  std::array<size_t, 3> clients{};
  for (size_t i = 0; i < cfg.workload.clients; ++i)
    ++clients[util::zipf_pick(i, pin)];

  core::Scheduler& s = exp.cluster().scheduler();
  std::array<double, 3> rate{};
  uint64_t total_routed = 0;
  for (size_t c = 0; c < 3; ++c) {
    ASSERT_GT(clients[c], 0u);
    ASSERT_GT(s.class_state(c).commits, 0u) << "class " << c << " starved";
    rate[c] = double(s.class_state(c).commits) / double(clients[c]);
    total_routed += s.class_state(c).updates_routed;
  }
  // The skew actually landed: the hot class carries the majority of the
  // routed updates.
  EXPECT_GT(2 * s.class_state(0).updates_routed, total_routed);
  // Cold classes are not stalled behind the hot one: their per-client
  // commit rate is at least comparable to the hot class's.
  EXPECT_GE(rate[1], 0.6 * rate[0]);
  EXPECT_GE(rate[2], 0.6 * rate[0]);
}

TEST(MultiMaster, WrongClassRouteMutationCaught) {
  // The planted misrouting bug (scheduler sends every other update to the
  // next class's master, engines adopt instead of refusing) must surface
  // through dmv_check as one of its expected named violations — and the
  // same configuration with the bug unplanted must pass.
  const check::Mutation* mut = nullptr;
  for (const check::Mutation& m : check::mutation_list())
    if (m.name == "wrong-class-route") mut = &m;
  ASSERT_NE(mut, nullptr) << "wrong-class-route missing from mutation_list";

  uint64_t catch_seed = 0;
  std::string caught_violation;
  for (int seed = 1; seed <= mut->seeds && catch_seed == 0; ++seed) {
    const check::CheckReport rep =
        check::run_check(mut->config(uint64_t(seed)), mut->plan);
    if (rep.passed) continue;
    for (const std::string& v : rep.violations)
      for (const std::string& want : mut->expect)
        if (v.find(want) != std::string::npos && catch_seed == 0) {
          catch_seed = uint64_t(seed);
          caught_violation = v;
        }
  }
  ASSERT_NE(catch_seed, 0u) << "mutation never caught with a named violation";
  SCOPED_TRACE("caught at seed " + std::to_string(catch_seed) + ": " +
               caught_violation);

  check::CheckConfig clean = mut->config(catch_seed);
  clean.cluster.bug = check::PlantedBug::None;
  const check::CheckReport rep = check::run_check(clean, mut->plan);
  EXPECT_TRUE(rep.passed) << rep.summary();
}

}  // namespace
}  // namespace dmv
