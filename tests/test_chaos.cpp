#include <gtest/gtest.h>

#include "chaos/harness.hpp"
#include "chaos/invariants.hpp"

namespace dmv::chaos {
namespace {

// ---- WorkloadLedger read-interval checks ----

TEST(WorkloadLedger, SamplePointsMustBeMonotone) {
  // The interval check brackets a read between acked-at-send and attempted.
  // Those two sample points must themselves be ordered: acked can only have
  // grown since the send snapshot, and acks can never outrun attempts. A
  // harness bug that samples them out of order would otherwise just widen
  // the interval and absorb real violations silently.
  WorkloadLedger lg;
  lg.init(2);
  lg.on_attempt(0);
  lg.on_ack(0);

  Violations ok;
  check_read_value(lg, 0, 0 * kBalanceBase + 1, /*acked_at_send=*/1, &ok);
  EXPECT_TRUE(ok.ok()) << ok.items.front();

  // acked-at-send above the current acked count: the lower bound was
  // sampled "in the future" relative to reply time.
  Violations bad_order;
  check_read_value(lg, 0, 0 * kBalanceBase + 1, /*acked_at_send=*/2,
                   &bad_order);
  ASSERT_FALSE(bad_order.ok());
  EXPECT_NE(bad_order.items[0].find("ledger sample order"),
            std::string::npos);

  // acked overtaking attempted is equally impossible.
  lg.on_ack(1);  // ack without a matching attempt
  Violations bad_ack;
  check_read_value(lg, 1, 1 * kBalanceBase, /*acked_at_send=*/0, &bad_ack);
  ASSERT_FALSE(bad_ack.ok());
  EXPECT_NE(bad_ack.items[0].find("ledger sample order"),
            std::string::npos);
}

TEST(WorkloadLedger, GlobalSumSampleOrderChecked) {
  WorkloadLedger lg;
  lg.init(2);
  lg.on_attempt(0);
  lg.on_ack(0);
  const int64_t base = kBalanceBase * lg.rows * (lg.rows - 1) / 2;

  Violations ok;
  check_sum_value(lg, 2, base + 1, /*global_acked_at_send=*/1, &ok);
  EXPECT_TRUE(ok.ok()) << ok.items.front();

  Violations bad;
  check_sum_value(lg, 2, base + 1, /*global_acked_at_send=*/2, &bad);
  ASSERT_FALSE(bad.ok());
  EXPECT_NE(bad.items[0].find("ledger sample order"), std::string::npos);
}

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
  ChaosConfig cfg;
  cfg.clients = 3;
  cfg.ops_per_client = 15;
  const ChaosReport rep = run_chaos(cfg, "");
  for (const auto& v : rep.violations) ADD_FAILURE() << v;
  EXPECT_TRUE(rep.passed);
  EXPECT_EQ(rep.client_errors, 0u);
  EXPECT_GT(rep.ops_ok, 0u);
  EXPECT_EQ(rep.recoveries, 0u);
}

TEST(ChaosHarness, MasterKillRecoversAndReportsPoints) {
  ChaosConfig cfg;
  const ChaosReport rep = run_chaos(cfg, "kill:master@t:30000");
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
  // back out: every chaos invariant — replica convergence, ledger
  // durability, span balance — must hold across both resizes.
  ChaosConfig cfg;
  const ChaosReport rep =
      run_chaos(cfg, "addslave@t:20000;retire:slave0@t:40000");
  for (const auto& v : rep.violations) ADD_FAILURE() << v;
  EXPECT_TRUE(rep.passed);
  EXPECT_EQ(rep.faults_fired, 2u);
  EXPECT_GE(rep.joins, 1u);
  EXPECT_EQ(rep.client_errors, 0u);
}

TEST(ChaosHarness, TwoClassBaselinePassesAllInvariants) {
  ChaosConfig cfg;
  cfg.classes = 2;
  cfg.clients = 3;
  cfg.ops_per_client = 15;
  const ChaosReport rep = run_chaos(cfg, "");
  for (const auto& v : rep.violations) ADD_FAILURE() << v;
  EXPECT_TRUE(rep.passed);
  EXPECT_EQ(rep.client_errors, 0u);
}

TEST(ChaosHarness, TwoClassClassOneMasterKillKeepsInvariants) {
  // Regression for the masters()[0] blind spot: before the fix, the
  // durability invariant only ever inspected class 0's master, so a
  // class-1 master kill (and any damage around its recovery) was checked
  // against nothing. With per-class checking, this schedule must both
  // recover and hold every table's ledger intervals.
  ChaosConfig cfg;
  cfg.classes = 2;
  cfg.seed = 5;
  const ChaosReport rep = run_chaos(cfg, "kill:master1@t:30000");
  for (const auto& v : rep.violations) ADD_FAILURE() << v;
  EXPECT_TRUE(rep.passed);
  EXPECT_GE(rep.recoveries, 1u);
  EXPECT_EQ(rep.faults_fired, 1u);
}

TEST(ChaosInvariants, ClassOneCorruptionIsCaught) {
  // Teeth: damage to the SECOND class's table on its own master must be
  // reported — under the old masters()[0]-only durability check this
  // corruption was invisible.
  sim::Simulation sim;
  net::Network net(sim);
  api::ProcRegistry reg;  // no traffic needed
  core::DmvCluster::Config cc;
  cc.slaves = 1;
  cc.spares = 0;
  cc.schedulers = 1;
  cc.conflict_classes = {{0}, {1}};
  cc.schema = [](storage::Database& db) {
    for (const char* name : {"acct", "acct2"})
      db.add_table(name,
                   storage::Schema({storage::int_col("id"),
                                    storage::int_col("balance")}),
                   storage::IndexDef{"pk", {0}, true});
  };
  constexpr int64_t kRows = 4;
  cc.loader = [](storage::Database& db) {
    for (storage::TableId t : {storage::TableId(0), storage::TableId(1)})
      for (int64_t i = 0; i < kRows; ++i)
        db.table(t).insert_row(storage::Row{i, i * kBalanceBase});
  };
  core::DmvCluster cluster(net, reg, std::move(cc));
  cluster.start();
  sim.run();

  ClusterProbe probe;
  probe.cluster = &cluster;
  probe.net = &net;
  for (size_t c = 0; c < cluster.master_count(); ++c)
    probe.engine_ids.push_back(cluster.master_id(c));
  for (size_t i = 0; i < cluster.slave_count(); ++i)
    probe.engine_ids.push_back(cluster.slave_id(i));
  probe.scheduler_count = cluster.scheduler_ids().size();

  WorkloadLedger lg0, lg1;
  lg0.init(kRows);
  lg1.init(kRows);

  Violations clean;
  check_end_invariants(probe, {&lg0, &lg1}, &clean);
  for (const auto& v : clean.items) ADD_FAILURE() << v;
  EXPECT_TRUE(clean.ok());

  // Corrupt a balance in table 1 on class 1's master: outside [0, 0].
  storage::Table& t1 =
      cluster.master(1).engine().db().table(storage::TableId(1));
  auto rid = t1.pk_find(storage::Key{int64_t{2}});
  ASSERT_TRUE(rid.has_value());
  t1.update_row(*rid, storage::Row{int64_t{2}, int64_t{999}});

  Violations dirty;
  check_end_invariants(probe, {&lg0, &lg1}, &dirty);
  ASSERT_FALSE(dirty.ok());
  bool mentions_table1 = false;
  for (const auto& v : dirty.items)
    if (v.find("table 1") != std::string::npos) mentions_table1 = true;
  EXPECT_TRUE(mentions_table1)
      << "corruption in class 1 not attributed to table 1";
}

TEST(ChaosHarness, PointTriggeredFaultFires) {
  ChaosConfig cfg;
  const ChaosReport rep = run_chaos(
      cfg, "kill:master@t:30000;kill:slave0@p:failover.discard#1");
  for (const auto& v : rep.violations) ADD_FAILURE() << v;
  EXPECT_TRUE(rep.passed);
  EXPECT_EQ(rep.faults_fired, 2u);
  EXPECT_EQ(rep.faults_unfired, 0u);
}

TEST(ChaosHarness, CatastrophicLossStillSatisfiesInvariants) {
  // Kill everything that can serve requests: clients must fail cleanly
  // (errors, not hangs) and no invariant may trip.
  ChaosConfig cfg;
  cfg.cluster.slaves = 2;
  cfg.cluster.spares = 0;
  const ChaosReport rep = run_chaos(
      cfg,
      "kill:slave0@t:20000;kill:slave1@t:20000;kill:master@t:20000;"
      "kill:sched0@t:25000;kill:sched1@t:25000");
  for (const auto& v : rep.violations) ADD_FAILURE() << v;
  EXPECT_TRUE(rep.passed);
  EXPECT_GT(rep.client_errors, 0u);
}

TEST(ChaosHarness, UnknownNodeIsAPlanError) {
  ChaosConfig cfg;
  cfg.clients = 1;
  cfg.ops_per_client = 3;
  const ChaosReport rep = run_chaos(cfg, "kill:bogus@t:1000");
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
  chaos::ChaosConfig cfg;
  chaos::open_batch_windows(cfg.cluster.node);
  auto r = chaos::run_chaos(cfg, "kill:master@t:30000");
  EXPECT_TRUE(r.passed) << r.summary();
  EXPECT_GE(r.recoveries, 1u);
}

TEST(ChaosHarness, BackendKillRestartKeepsDurability) {
  // Fail-stop a backend mid-workload and bring it back: the restarted
  // applier must replay (or snapshot+suffix attach) to the tail, and the
  // end invariants require its rows inside the acked ledger intervals.
  ChaosConfig cfg;
  cfg.cluster.enable_persistence = true;
  const ChaosReport rep =
      run_chaos(cfg, "killbackend:0@t:20000;restartbackend:0@t:60000");
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
  ChaosConfig cfg;
  cfg.cluster.enable_persistence = true;
  const ChaosReport rep = run_chaos(cfg, "kill:sched0@p:persist.append#3");
  for (const auto& v : rep.violations) ADD_FAILURE() << v;
  EXPECT_TRUE(rep.passed);
  EXPECT_EQ(rep.faults_fired, 1u);
}

TEST(ChaosHarness, WipeTierBackendsStillHoldAckedPrefix) {
  // Destroy the whole mem tier mid-workload: remaining client ops fail
  // cleanly, and the backends alone must still hold every acked update
  // (the paper's disaster-recovery guarantee).
  ChaosConfig cfg;
  cfg.cluster.enable_persistence = true;
  const ChaosReport rep = run_chaos(cfg, "wipe-tier@t:30000");
  for (const auto& v : rep.violations) ADD_FAILURE() << v;
  EXPECT_TRUE(rep.passed);
  EXPECT_GT(rep.client_errors, 0u);
}

TEST(ChaosHarness, BackendFaultWithoutTierIsAPlanError) {
  ChaosConfig cfg;
  cfg.clients = 1;
  cfg.ops_per_client = 3;
  const ChaosReport rep = run_chaos(cfg, "killbackend:0@t:1000");
  EXPECT_FALSE(rep.passed);
  ASSERT_EQ(rep.violations.size(), 1u);
  EXPECT_NE(rep.violations[0].find("no persistence tier"),
            std::string::npos);
}

TEST(ChaosHarness, DeterministicAcrossReplays) {
  ChaosConfig cfg;
  cfg.seed = 42;
  const std::string plan = "kill:master@t:30000";
  const ChaosReport a = run_chaos(cfg, plan);
  const ChaosReport b = run_chaos(cfg, plan);
  EXPECT_EQ(a.passed, b.passed);
  EXPECT_EQ(a.end_time, b.end_time);
  EXPECT_EQ(a.ops_ok, b.ops_ok);
  EXPECT_EQ(a.client_errors, b.client_errors);
  EXPECT_EQ(a.update_commits, b.update_commits);
  EXPECT_EQ(a.points_fired, b.points_fired);
}

}  // namespace
}  // namespace dmv::chaos
