// The fault machinery (FaultPlan DSL, FaultExec, structural invariants)
// driven end to end through check::run_check, the one fault harness.
#include <gtest/gtest.h>

#include "chaos/invariants.hpp"
#include "check/checker.hpp"
#include "check/oracle.hpp"

namespace dmv::chaos {
namespace {

using check::CheckConfig;
using check::CheckReport;

using check::chaos_config;

// ---- FaultPlan DSL ----

TEST(FaultPlan, ParsesAndRoundTrips) {
  const std::string s =
      "kill:master@t:30000;restart:slave0@t:50000;"
      "kill:slave0@p:failover.discard#2;drop:sched0~master@t:10;"
      "heal:sched0~master@t:20;slow:slave0~spare0:4000@p:join.pages";
  auto plan = FaultPlan::parse(s);
  ASSERT_TRUE(plan.has_value());
  ASSERT_EQ(plan->faults.size(), 6u);
  EXPECT_EQ(plan->faults[0].action.kind, ActionKind::Kill);
  EXPECT_EQ(plan->faults[0].action.node, "master");
  EXPECT_FALSE(plan->faults[0].trigger.at_point);
  EXPECT_EQ(plan->faults[0].trigger.at, 30000);
  EXPECT_EQ(plan->faults[1].action.kind, ActionKind::Restart);
  EXPECT_TRUE(plan->faults[2].trigger.at_point);
  EXPECT_EQ(plan->faults[2].trigger.point, "failover.discard");
  EXPECT_EQ(plan->faults[2].trigger.occurrence, 2);
  EXPECT_EQ(plan->faults[3].action.a, "sched0");
  EXPECT_EQ(plan->faults[3].action.b, "master");
  EXPECT_EQ(plan->faults[5].action.kind, ActionKind::Slow);
  EXPECT_EQ(plan->faults[5].action.extra, 4000);
  EXPECT_EQ(plan->faults[5].trigger.occurrence, 1);  // default
  EXPECT_EQ(plan->str(), s);  // exact round-trip (replayable strings)
}

TEST(FaultPlan, PersistenceVerbsParseAndRoundTrip) {
  const std::string s =
      "killbackend:0@t:5000;restartbackend:1@t:9000;wipe-tier@t:30000;"
      "wipe-tier@p:failover.promote#2";
  auto plan = FaultPlan::parse(s);
  ASSERT_TRUE(plan.has_value());
  ASSERT_EQ(plan->faults.size(), 4u);
  EXPECT_EQ(plan->faults[0].action.kind, ActionKind::KillBackend);
  EXPECT_EQ(plan->faults[0].action.backend, 0);
  EXPECT_EQ(plan->faults[1].action.kind, ActionKind::RestartBackend);
  EXPECT_EQ(plan->faults[1].action.backend, 1);
  EXPECT_EQ(plan->faults[2].action.kind, ActionKind::WipeTier);
  EXPECT_TRUE(plan->faults[3].trigger.at_point);
  EXPECT_EQ(plan->str(), s);
  std::string err;
  EXPECT_FALSE(FaultPlan::parse("killbackend:x@t:1", &err));  // not an int
  EXPECT_FALSE(FaultPlan::parse("killbackend:-1@t:1", &err));
  EXPECT_FALSE(FaultPlan::parse("wipe-tier:0@t:1", &err));  // no operand
}

TEST(FaultPlan, ElasticVerbsParseAndRoundTrip) {
  const std::string s =
      "addslave@t:5000;retire:slave0@t:9000;addslave@p:crowd.arrive;"
      "retire:slave2@p:elastic.add_slave#2";
  auto plan = FaultPlan::parse(s);
  ASSERT_TRUE(plan.has_value());
  ASSERT_EQ(plan->faults.size(), 4u);
  EXPECT_EQ(plan->faults[0].action.kind, ActionKind::AddSlave);
  EXPECT_EQ(plan->faults[1].action.kind, ActionKind::Retire);
  EXPECT_EQ(plan->faults[1].action.node, "slave0");
  EXPECT_TRUE(plan->faults[2].trigger.at_point);
  EXPECT_EQ(plan->faults[3].trigger.occurrence, 2);
  EXPECT_EQ(plan->str(), s);
  std::string err;
  EXPECT_FALSE(FaultPlan::parse("addslave:x@t:1", &err));  // no operand
  EXPECT_FALSE(FaultPlan::parse("retire:@t:1", &err));     // empty node
}

TEST(FaultPlan, EmptyPlanIsValid) {
  auto plan = FaultPlan::parse("");
  ASSERT_TRUE(plan.has_value());
  EXPECT_TRUE(plan->empty());
  EXPECT_EQ(plan->str(), "");
}

TEST(FaultPlan, RejectsMalformedInput) {
  std::string err;
  EXPECT_FALSE(FaultPlan::parse("kill:master", &err));  // no trigger
  EXPECT_FALSE(err.empty());
  EXPECT_FALSE(FaultPlan::parse("explode:master@t:1", &err));
  EXPECT_FALSE(FaultPlan::parse("kill:@t:1", &err));      // empty node
  EXPECT_FALSE(FaultPlan::parse("kill:m@t:-5", &err));    // negative time
  EXPECT_FALSE(FaultPlan::parse("kill:m@x:5", &err));     // bad trigger
  EXPECT_FALSE(FaultPlan::parse("kill:m@p:pt#0", &err));  // occurrence < 1
  EXPECT_FALSE(FaultPlan::parse("drop:a@t:1", &err));     // missing '~b'
  EXPECT_FALSE(FaultPlan::parse("slow:a~b@t:1", &err));   // missing usec
  EXPECT_FALSE(FaultPlan::parse("kill:master@t:1;;", &err));  // empty fault
}

// ---- harness ----

TEST(ChaosHarness, BaselinePassesAllInvariants) {
  CheckConfig cfg = chaos_config();
  cfg.clients = 3;
  cfg.ops_per_client = 15;
  const CheckReport rep = check::run_check(cfg, "");
  for (const auto& v : rep.violations) ADD_FAILURE() << v;
  EXPECT_TRUE(rep.passed);
  EXPECT_EQ(rep.client_errors, 0u);
  EXPECT_GT(rep.ops_ok, 0u);
  EXPECT_EQ(rep.recoveries, 0u);
}

TEST(ChaosHarness, MasterKillRecoversAndReportsPoints) {
  const CheckReport rep =
      check::run_check(chaos_config(), "kill:master@t:30000");
  for (const auto& v : rep.violations) ADD_FAILURE() << v;
  EXPECT_TRUE(rep.passed);
  EXPECT_GE(rep.recoveries, 1u);
  EXPECT_EQ(rep.faults_fired, 1u);
  // The §4.2 phases fired as observable protocol points.
  EXPECT_GE(rep.points_fired.count("failover.discard"), 1u);
  EXPECT_GE(rep.points_fired.count("failover.promote"), 1u);
}

TEST(ChaosHarness, ElasticResizeKeepsInvariants) {
  // Scale out mid-workload (live §4.4 join) and drain an original slave
  // back out: the oracle and every structural invariant — replica
  // convergence, live-master durability, span balance — must hold across
  // both resizes.
  const CheckReport rep = check::run_check(
      chaos_config(), "addslave@t:20000;retire:slave0@t:40000");
  for (const auto& v : rep.violations) ADD_FAILURE() << v;
  EXPECT_TRUE(rep.passed);
  EXPECT_EQ(rep.faults_fired, 2u);
  EXPECT_GE(rep.joins, 1u);
  EXPECT_EQ(rep.client_errors, 0u);
}

TEST(ChaosHarness, TwoClassBaselinePassesAllInvariants) {
  CheckConfig cfg = chaos_config();
  cfg.classes = 2;
  cfg.clients = 3;
  cfg.ops_per_client = 15;
  const CheckReport rep = check::run_check(cfg, "");
  for (const auto& v : rep.violations) ADD_FAILURE() << v;
  EXPECT_TRUE(rep.passed);
  EXPECT_EQ(rep.client_errors, 0u);
}

TEST(ChaosHarness, TwoClassClassOneMasterKillKeepsInvariants) {
  // Regression for the masters()[0] blind spot: the durability check once
  // inspected only class 0's master, so a class-1 master kill (and any
  // damage around its recovery) was checked against nothing. Every live
  // master is now compared with the oracle on the tables it masters.
  CheckConfig cfg = chaos_config();
  cfg.classes = 2;
  cfg.seed = 5;
  const CheckReport rep = check::run_check(cfg, "kill:master1@t:30000");
  for (const auto& v : rep.violations) ADD_FAILURE() << v;
  EXPECT_TRUE(rep.passed);
  EXPECT_GE(rep.recoveries, 1u);
  EXPECT_EQ(rep.faults_fired, 1u);
}

TEST(ChaosInvariants, ClassOneCorruptionIsCaught) {
  // Teeth: damage to the SECOND class's table on its own master must be
  // reported — a check that only looked at masters()[0] missed it.
  sim::Simulation sim;
  net::Network net(sim);
  api::ProcRegistry reg;  // no traffic needed
  core::DmvCluster::Config cc;
  cc.slaves = 1;
  cc.spares = 0;
  cc.schedulers = 1;
  cc.conflict_classes = {{0}, {1}};
  cc.schema = [](storage::Database& db) {
    for (const char* name : {"acct_a", "acct_b"})
      db.add_table(name,
                   storage::Schema({storage::int_col("id"),
                                    storage::int_col("balance")}),
                   storage::IndexDef{"pk", {0}, true});
  };
  constexpr int64_t kRows = 4;
  cc.loader = [](storage::Database& db) {
    for (storage::TableId t : {storage::TableId(0), storage::TableId(1)})
      for (int64_t i = 0; i < kRows; ++i)
        db.table(t).insert_row(storage::Row{i, i * 10});
  };
  core::DmvCluster cluster(net, reg, std::move(cc));
  cluster.start();
  sim.run();

  check::OracleConfig oc;
  oc.tables = 2;
  oc.initial.resize(2);
  for (auto& table : oc.initial)
    for (int64_t i = 0; i < kRows; ++i) table[i] = i * 10;
  check::Oracle oracle(std::move(oc));
  const std::vector<check::Event> no_traffic;  // the model is the load
  Violations replay;
  oracle.check(no_traffic, &replay);
  ASSERT_TRUE(replay.ok());

  Violations clean;
  check::check_live_masters(cluster, oracle, &clean);
  for (const auto& v : clean.items) ADD_FAILURE() << v;
  EXPECT_TRUE(clean.ok());

  // Corrupt a balance in table 1 on class 1's master.
  storage::Table& t1 =
      cluster.master(1).engine().db().table(storage::TableId(1));
  auto rid = t1.pk_find(storage::Key{int64_t{2}});
  ASSERT_TRUE(rid.has_value());
  t1.update_row(*rid, storage::Row{int64_t{2}, int64_t{999}});

  Violations dirty;
  check::check_live_masters(cluster, oracle, &dirty);
  ASSERT_FALSE(dirty.ok());
  bool mentions_table1 = false;
  for (const auto& v : dirty.items)
    if (v.find("table 1") != std::string::npos) mentions_table1 = true;
  EXPECT_TRUE(mentions_table1)
      << "corruption in class 1 not attributed to table 1";
}

TEST(ChaosHarness, PointTriggeredFaultFires) {
  const CheckReport rep = check::run_check(
      chaos_config(), "kill:master@t:30000;kill:slave0@p:failover.discard#1");
  for (const auto& v : rep.violations) ADD_FAILURE() << v;
  EXPECT_TRUE(rep.passed);
  EXPECT_EQ(rep.faults_fired, 2u);
  EXPECT_EQ(rep.faults_unfired, 0u);
}

TEST(ChaosHarness, CatastrophicLossStillSatisfiesInvariants) {
  // Kill everything that can serve requests: clients must fail cleanly
  // (errors, not hangs) and no invariant may trip.
  CheckConfig cfg = chaos_config();
  cfg.cluster.slaves = 2;
  cfg.cluster.spares = 0;
  const CheckReport rep = check::run_check(
      cfg,
      "kill:slave0@t:20000;kill:slave1@t:20000;kill:master@t:20000;"
      "kill:sched0@t:25000;kill:sched1@t:25000");
  for (const auto& v : rep.violations) ADD_FAILURE() << v;
  EXPECT_TRUE(rep.passed);
  EXPECT_GT(rep.client_errors, 0u);
}

TEST(ChaosHarness, UnknownNodeIsAPlanError) {
  CheckConfig cfg = chaos_config();
  cfg.clients = 1;
  cfg.ops_per_client = 3;
  const CheckReport rep = check::run_check(cfg, "kill:bogus@t:1000");
  EXPECT_FALSE(rep.passed);
  ASSERT_EQ(rep.violations.size(), 1u);
  EXPECT_NE(rep.violations[0].find("unknown node"), std::string::npos);
}

TEST(ChaosHarness, BatchedPipelineKeepsInvariantsThroughMasterKill) {
  // Coalescing windows open: write-sets sit in master-side batch windows
  // and acks stand for prefixes while the master dies. Recovery must
  // flush delayed acks (DiscardAbove), prune per-master ack state, and
  // still satisfy every invariant — no lost acked update, consistent
  // tagged reads, monotone version vectors.
  CheckConfig cfg = chaos_config();
  check::open_batch_windows(cfg.cluster.node);
  const CheckReport r = check::run_check(cfg, "kill:master@t:30000");
  for (const auto& v : r.violations) ADD_FAILURE() << v;
  EXPECT_TRUE(r.passed) << r.summary();
  EXPECT_GE(r.recoveries, 1u);
}

TEST(ChaosHarness, BackendKillRestartKeepsDurability) {
  // Fail-stop a backend mid-workload and bring it back: the restarted
  // applier must replay (or snapshot+suffix attach) to the tail, and its
  // bootstrap image must equal the oracle's acked prefix.
  CheckConfig cfg = chaos_config();
  cfg.cluster.enable_persistence = true;
  const CheckReport rep = check::run_check(
      cfg, "killbackend:0@t:20000;restartbackend:0@t:60000");
  for (const auto& v : rep.violations) ADD_FAILURE() << v;
  EXPECT_TRUE(rep.passed);
  EXPECT_EQ(rep.faults_fired, 2u);
}

TEST(ChaosHarness, SchedulerKillAtPersistPointKeepsAckedDurability) {
  // Regression: kill a scheduler exactly at the persistence protocol
  // point (the §4.6 log append for a committed txn). The client resubmits
  // through the surviving scheduler; the re-acked commit must reach the
  // update log exactly once, and every acked update must be on disk at
  // quiesce.
  CheckConfig cfg = chaos_config();
  cfg.cluster.enable_persistence = true;
  const CheckReport rep =
      check::run_check(cfg, "kill:sched0@p:persist.append#3");
  for (const auto& v : rep.violations) ADD_FAILURE() << v;
  EXPECT_TRUE(rep.passed);
  EXPECT_EQ(rep.faults_fired, 1u);
}

TEST(ChaosHarness, WipeTierBackendsStillHoldAckedPrefix) {
  // Destroy the whole mem tier mid-workload: remaining client ops fail
  // cleanly, and the backends alone must still hold every acked update
  // (the paper's disaster-recovery guarantee).
  CheckConfig cfg = chaos_config();
  cfg.cluster.enable_persistence = true;
  const CheckReport rep = check::run_check(cfg, "wipe-tier@t:30000");
  for (const auto& v : rep.violations) ADD_FAILURE() << v;
  EXPECT_TRUE(rep.passed);
  EXPECT_GT(rep.client_errors, 0u);
}

TEST(ChaosHarness, BackendFaultWithoutTierIsAPlanError) {
  CheckConfig cfg = chaos_config();
  cfg.clients = 1;
  cfg.ops_per_client = 3;
  const CheckReport rep = check::run_check(cfg, "killbackend:0@t:1000");
  EXPECT_FALSE(rep.passed);
  ASSERT_EQ(rep.violations.size(), 1u);
  EXPECT_NE(rep.violations[0].find("no persistence tier"),
            std::string::npos);
}

TEST(ChaosHarness, DeterministicAcrossReplays) {
  CheckConfig cfg = chaos_config();
  cfg.seed = 42;
  const std::string plan = "kill:master@t:30000";
  const CheckReport a = check::run_check(cfg, plan);
  const CheckReport b = check::run_check(cfg, plan);
  EXPECT_EQ(a.passed, b.passed);
  EXPECT_EQ(a.end_time, b.end_time);
  EXPECT_EQ(a.ops_ok, b.ops_ok);
  EXPECT_EQ(a.client_errors, b.client_errors);
  EXPECT_EQ(a.update_commits, b.update_commits);
  EXPECT_EQ(a.points_fired, b.points_fired);
}

}  // namespace
}  // namespace dmv::chaos
