// dmv_check: the FaultPlan DSL, oracle unit tests, recorder session-order
// checks, end-to-end checker runs (fault execution and the structural
// invariants included), and the mutation/shrink machinery.
#include <gtest/gtest.h>

#include <map>
#include <set>

#include "check/checker.hpp"
#include "check/fault_plan.hpp"
#include "check/history.hpp"
#include "check/oracle.hpp"
#include "sim/simulation.hpp"
#include "test_main.hpp"

namespace dmv {
namespace {

using check::ActionKind;
using check::chaos_config;
using check::CheckConfig;
using check::CheckReport;
using check::CommitEvent;
using check::DiscardEvent;
using check::Event;
using check::FaultPlan;
using check::Oracle;
using check::OracleConfig;
using check::ReadEvent;
using check::Recorder;
using check::StateView;
using check::Violations;

// ---- FaultPlan DSL ----

TEST(FaultPlan, ParsesAndRoundTrips) {
  const std::string s =
      "kill:master@t:30000;restart:slave0@t:50000;"
      "kill:slave0@p:failover.discard#2;"
      "slow:slave0~spare0:4000@p:join.pages";
  auto plan = FaultPlan::parse(s);
  ASSERT_TRUE(plan.has_value());
  ASSERT_EQ(plan->faults.size(), 4u);
  EXPECT_EQ(plan->faults[0].action.kind, ActionKind::Kill);
  EXPECT_EQ(plan->faults[0].action.node, "master");
  EXPECT_FALSE(plan->faults[0].trigger.at_point);
  EXPECT_EQ(plan->faults[0].trigger.at, 30000);
  EXPECT_EQ(plan->faults[1].action.kind, ActionKind::Restart);
  EXPECT_TRUE(plan->faults[2].trigger.at_point);
  EXPECT_EQ(plan->faults[2].trigger.point, "failover.discard");
  EXPECT_EQ(plan->faults[2].trigger.occurrence, 2);
  EXPECT_EQ(plan->faults[3].action.kind, ActionKind::Slow);
  EXPECT_EQ(plan->faults[3].action.a, "slave0");
  EXPECT_EQ(plan->faults[3].action.b, "spare0");
  EXPECT_EQ(plan->faults[3].action.extra, 4000);
  EXPECT_EQ(plan->faults[3].trigger.occurrence, 1);  // default
  EXPECT_EQ(plan->str(), s);  // exact round-trip (replayable strings)
  // Links never lose messages: there is no verb that drops a link.
  EXPECT_FALSE(FaultPlan::parse("drop:a~b@t:1"));
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
  EXPECT_FALSE(FaultPlan::parse("slow:a:5@t:1", &err));   // missing '~b'
  EXPECT_FALSE(FaultPlan::parse("slow:a~b@t:1", &err));   // missing usec
  EXPECT_FALSE(FaultPlan::parse("kill:master@t:1;;", &err));  // empty fault
}

// ---- oracle unit tests -------------------------------------------------
//
// One table, rows keyed by int64, the checked cell is row[1]. The expect
// fn understands a single proc, "get": re-read params["k"] from the model.

OracleConfig one_table(std::map<int64_t, int64_t> initial) {
  OracleConfig cfg;
  cfg.tables = 1;
  cfg.initial = {std::move(initial)};
  cfg.expect = [](const StateView& view, const std::string& proc,
                  const api::Params& p) -> std::vector<int64_t> {
    EXPECT_EQ(proc, "get");
    auto v = view.get(0, p.i("k"));
    return {v.value_or(-1)};
  };
  return cfg;
}

CommitEvent commit(uint64_t version, int64_t key, int64_t value,
                   uint32_t origin = 9, uint64_t origin_req = 1) {
  CommitEvent c;
  c.node = 0;
  c.origin = origin;
  c.origin_req = origin_req;
  txn::OpRecord op;
  op.kind = txn::OpRecord::Kind::Update;
  op.table = 0;
  op.pk = {key};
  op.row = {key, value};
  c.ops = {op};
  c.db_version = {version};
  return c;
}

ReadEvent read_at(uint64_t version, int64_t key, int64_t observed) {
  ReadEvent r;
  r.scheduler = 5;
  r.node = 2;
  r.proc = "get";
  r.params.set("k", key);
  r.tag = {version};
  r.result.values = {observed};
  return r;
}

TEST(Oracle, CleanHistoryPasses) {
  Oracle o(one_table({{1, 100}}));
  Violations v;
  o.check({commit(1, 1, 110), read_at(1, 1, 110), read_at(0, 1, 100)}, &v);
  EXPECT_TRUE(v.ok()) << v.items.front();
  EXPECT_EQ(o.reads_checked(), 2u);
  EXPECT_EQ(o.commits_applied(), 1u);
}

TEST(Oracle, StaleReadIsSnapshotMismatch) {
  Oracle o(one_table({{1, 100}}));
  Violations v;
  // Read tagged at version 1 but observing the version-0 value.
  o.check({commit(1, 1, 110), read_at(1, 1, 100)}, &v);
  ASSERT_EQ(v.items.size(), 1u);
  EXPECT_NE(v.items[0].find("snapshot-mismatch"), std::string::npos);
}

TEST(Oracle, SkippedVersionIsGap) {
  Oracle o(one_table({{1, 100}}));
  Violations v;
  o.check({commit(2, 1, 120)}, &v);  // head is 0, stamp jumps to 2
  ASSERT_EQ(v.items.size(), 1u);
  EXPECT_NE(v.items[0].find("version-gap"), std::string::npos);
}

TEST(Oracle, DuplicateCommitIsAtMostOnceViolation) {
  Oracle o(one_table({{1, 100}}));
  Violations v;
  o.check({commit(1, 1, 110, 9, 7), commit(2, 1, 120, 9, 7)}, &v);
  ASSERT_EQ(v.items.size(), 1u);
  EXPECT_NE(v.items[0].find("at-most-once"), std::string::npos);
}

TEST(Oracle, DiscardPrunesAndAllowsResubmission) {
  Oracle o(one_table({{1, 100}}));
  Violations v;
  DiscardEvent d;
  d.scheduler = 5;
  d.confirmed = {0};
  d.tables = {0};
  // v1 commits, fail-over discards it, the client resubmits and the new
  // master re-commits the same (origin, req) at v1: all legal. Reads
  // before the discard see the first value, after it the second.
  o.check({commit(1, 1, 110, 9, 7), read_at(1, 1, 110), Event(d),
           commit(1, 1, 111, 9, 7), read_at(1, 1, 111),
           read_at(0, 1, 100)},
          &v);
  EXPECT_TRUE(v.ok()) << v.items.front();
}

TEST(Oracle, ReadBeforeDiscardCheckedAgainstPreTruncationState) {
  Oracle o(one_table({{1, 100}}));
  Violations v;
  DiscardEvent d;
  d.scheduler = 5;
  d.confirmed = {0};
  d.tables = {0};
  // The same read AFTER the discard must fail: v1 no longer exists, the
  // model at tag 1 holds the initial value again.
  o.check({commit(1, 1, 110), Event(d), read_at(1, 1, 110)}, &v);
  ASSERT_EQ(v.items.size(), 1u);
  EXPECT_NE(v.items[0].find("snapshot-mismatch"), std::string::npos);
}

// ---- recorder: online session-order (tag-coverage) check ---------------

TEST(Recorder, ReadBelowAckedFloorIsTagCoverageViolation) {
  sim::Simulation sim;
  Recorder rec(sim);
  rec.update_ack(5, {2, 0});
  rec.read_tag(5, {2, 0});  // covers: ok
  EXPECT_TRUE(rec.online().ok());
  rec.read_tag(5, {1, 0});  // below the acked floor
  ASSERT_EQ(rec.online().items.size(), 1u);
  EXPECT_NE(rec.online().items[0].find("tag-coverage"), std::string::npos);
  // Another scheduler has its own floor.
  rec.read_tag(6, {0, 0});
  EXPECT_EQ(rec.online().items.size(), 1u);
}

TEST(Recorder, DiscardClampsAckedFloors) {
  sim::Simulation sim;
  Recorder rec(sim);
  rec.update_ack(5, {3, 1});
  rec.discard(5, {1, 1}, {0});  // fail-over truncated table 0 to 1
  rec.read_tag(5, {1, 1});      // legal again: the acked 3 was discarded
  EXPECT_TRUE(rec.online().ok());
}

// ---- end-to-end checker runs -------------------------------------------

CheckConfig quick_cfg(uint64_t seed) {
  CheckConfig cfg;
  cfg.clients = 2;
  cfg.ops_per_client = 8;
  cfg.seed = seed;
  return cfg;
}

TEST(RunCheck, FaultFreeSeedsPass) {
  for (uint64_t s = 0; s < 3; ++s) {
    CheckReport rep = check::run_check(quick_cfg(test::base_seed + s), "");
    EXPECT_TRUE(rep.passed) << rep.summary() << "\n"
                            << (rep.violations.empty()
                                    ? ""
                                    : rep.violations.front());
    EXPECT_GT(rep.commits_recorded, 0u);
    EXPECT_GT(rep.reads_checked, 0u);
    EXPECT_EQ(rep.client_errors, 0u);
  }
}

TEST(RunCheck, SurvivesReplicaAndMasterKill) {
  // Also the regression for the masters()[0] blind spot: the durability
  // check once inspected only class 0's master, so a class-1 master kill
  // (and any damage around its recovery) was checked against nothing.
  // Every live master is now compared with the oracle on the tables it
  // masters.
  CheckReport rep = check::run_check(
      quick_cfg(test::base_seed),
      "kill:slave0@t:5000;kill:master1@t:9000;restart:slave0@t:30000");
  EXPECT_TRUE(rep.passed) << rep.summary() << "\n"
                          << (rep.violations.empty()
                                  ? ""
                                  : rep.violations.front());
  EXPECT_EQ(rep.faults_fired, 3u);
  EXPECT_EQ(rep.faults_unfired, 0u);
  EXPECT_GE(rep.recoveries, 1u);
  // The §4.2 phases fired as observable protocol points.
  EXPECT_GE(rep.points_fired.count("failover.discard"), 1u);
  EXPECT_GE(rep.points_fired.count("failover.promote"), 1u);
}

TEST(RunCheck, DeterministicInSeedAndPlan) {
  const std::string plan = "kill:slave1@t:7000;kill:master0@t:9000";
  CheckReport a = check::run_check(quick_cfg(test::base_seed + 1), plan);
  CheckReport b = check::run_check(quick_cfg(test::base_seed + 1), plan);
  EXPECT_EQ(a.summary(), b.summary());
  EXPECT_EQ(a.violations, b.violations);
  EXPECT_EQ(a.update_commits, b.update_commits);
  EXPECT_FALSE(a.points_fired.empty());  // the master kill's recovery
  EXPECT_EQ(a.points_fired, b.points_fired);
}

TEST(RunCheck, TwentySixClassesRun) {
  // Class 23's per-class pair proc is pair_x: the cross-class pair proc
  // must not share that name (it once aborted registration at 24 classes).
  for (int classes : {24, 26}) {
    CheckConfig cfg = quick_cfg(test::base_seed);
    cfg.classes = classes;
    CheckReport rep =
        check::run_check(cfg, check::random_fault_plan(cfg, 3, 1));
    EXPECT_TRUE(rep.passed) << classes << " classes: " << rep.summary()
                            << "\n"
                            << (rep.violations.empty()
                                    ? ""
                                    : rep.violations.front());
  }
}

TEST(RunCheck, SweepFlagsRenderOneReproLine) {
  const CheckConfig dflt;
  EXPECT_EQ(check::sweep_flags(dflt, dflt), "");
  CheckConfig cfg;
  cfg.clients = 4;
  cfg.ops_per_client = 25;
  check::open_batch_windows(cfg.cluster.node);
  EXPECT_EQ(check::sweep_flags(cfg, dflt), " --clients 4 --ops 25 --batched");
  // --geo opens the batch windows itself: no redundant --batched.
  cfg = dflt;
  cfg.cluster.regions = 2;
  cfg.cluster.node.quorum_commit = true;
  check::open_batch_windows(cfg.cluster.node);
  EXPECT_EQ(check::sweep_flags(cfg, dflt), " --geo");
  // --multimaster implies --geo's settings and three classes.
  cfg.multimaster = true;
  cfg.classes = 3;
  EXPECT_EQ(check::sweep_flags(cfg, dflt), " --multimaster");
  cfg.classes = 4;
  EXPECT_EQ(check::sweep_flags(cfg, dflt), " --multimaster --classes 4");
  // check_sweep --chaos renders against its own base.
  cfg = chaos_config();
  cfg.max_read_stall = 20000;
  check::open_batch_windows(cfg.cluster.node);
  EXPECT_EQ(check::sweep_flags(cfg, chaos_config()),
            " --max-read-stall 20000 --batched");
}

TEST(RunCheck, RandomFaultPlansParse) {
  for (uint64_t s = 1; s <= 8; ++s) {
    const std::string plan =
        check::random_fault_plan(quick_cfg(1), s, 1 + int(s % 2));
    std::string err;
    ASSERT_TRUE(FaultPlan::parse(plan, &err).has_value())
        << plan << ": " << err;
  }
}

TEST(RunCheck, DisasterDrillRoundTrips) {
  // The §4.6 drill: destroy the whole mem tier mid-workload, then have
  // the oracle verify that a tier image bootstrapped from each
  // recoverable backend (rows + log suffix) equals the sequential prefix
  // at the acked frontier exactly. The wipe lands while the 2 x 8 client
  // ops are still running: some complete before it, the rest fail on the
  // dead tier.
  CheckConfig cfg = quick_cfg(test::base_seed);
  cfg.cluster.enable_persistence = true;
  CheckReport rep = check::run_check(
      cfg, "killbackend:0@t:6000;wipe-tier@t:15000");
  EXPECT_TRUE(rep.passed) << rep.summary() << "\n"
                          << (rep.violations.empty()
                                  ? ""
                                  : rep.violations.front());
  EXPECT_EQ(rep.faults_unfired, 0u);
  EXPECT_GT(rep.ops_ok, 0u) << rep.summary();
  EXPECT_GT(rep.client_errors, 0u) << rep.summary();
}

TEST(RunCheck, RandomDisasterPlansParseAndWipe) {
  CheckConfig cfg = quick_cfg(1);
  cfg.cluster.enable_persistence = true;
  for (uint64_t s = 1; s <= 8; ++s) {
    const std::string plan = check::random_disaster_plan(cfg, s);
    std::string err;
    ASSERT_TRUE(FaultPlan::parse(plan, &err).has_value())
        << plan << ": " << err;
    EXPECT_NE(plan.find("wipe-tier@t:"), std::string::npos) << plan;
  }
}

TEST(RunCheck, ElasticResizeRoundTrips) {
  // Fleet resize mid-workload: a fresh slave joins via §4.4 under live
  // traffic and an original one drains out; the oracle must stay clean.
  CheckReport rep = check::run_check(
      quick_cfg(test::base_seed), "addslave@t:5000;retire:slave0@t:12000");
  EXPECT_TRUE(rep.passed) << rep.summary() << "\n"
                          << (rep.violations.empty()
                                  ? ""
                                  : rep.violations.front());
  EXPECT_EQ(rep.faults_fired, 2u);
  EXPECT_EQ(rep.faults_unfired, 0u);
  EXPECT_GE(rep.joins, 1u);
  EXPECT_EQ(rep.client_errors, 0u);
}

TEST(RunCheck, RandomElasticPlansParseAndAreDeterministic) {
  const CheckConfig cfg = quick_cfg(1);
  for (uint64_t s = 1; s <= 8; ++s) {
    const std::string plan =
        check::random_elastic_fault_plan(cfg, s, 1 + int(s % 2));
    std::string err;
    ASSERT_TRUE(FaultPlan::parse(plan, &err).has_value())
        << plan << ": " << err;
    EXPECT_NE(plan.find("addslave@t:"), std::string::npos) << plan;
    EXPECT_EQ(plan,
              check::random_elastic_fault_plan(cfg, s, 1 + int(s % 2)));
  }
}

// ---- fault execution and structural invariants -------------------------

TEST(RunCheck, BaselinePassesAllInvariants) {
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

TEST(LiveMasters, ClassOneCorruptionIsCaught) {
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

TEST(RunCheck, PointTriggeredFaultFires) {
  const CheckReport rep = check::run_check(
      chaos_config(), "kill:master@t:30000;kill:slave0@p:failover.discard#1");
  for (const auto& v : rep.violations) ADD_FAILURE() << v;
  EXPECT_TRUE(rep.passed);
  EXPECT_EQ(rep.faults_fired, 2u);
  EXPECT_EQ(rep.faults_unfired, 0u);
}

TEST(RunCheck, CatastrophicLossStillSatisfiesInvariants) {
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

TEST(RunCheck, UnknownNodeIsAPlanError) {
  CheckConfig cfg = chaos_config();
  cfg.clients = 1;
  cfg.ops_per_client = 3;
  const CheckReport rep = check::run_check(cfg, "kill:bogus@t:1000");
  EXPECT_FALSE(rep.passed);
  ASSERT_EQ(rep.violations.size(), 1u);
  EXPECT_NE(rep.violations[0].find("unknown node"), std::string::npos);
}

TEST(RunCheck, BatchedPipelineKeepsInvariantsThroughMasterKill) {
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

TEST(RunCheck, BackendKillRestartKeepsDurability) {
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

TEST(RunCheck, SchedulerKillAtPersistPointKeepsAckedDurability) {
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

TEST(RunCheck, WipeTierBackendsStillHoldAckedPrefix) {
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

TEST(RunCheck, BackendFaultWithoutTierIsAPlanError) {
  CheckConfig cfg = chaos_config();
  cfg.clients = 1;
  cfg.ops_per_client = 3;
  const CheckReport rep = check::run_check(cfg, "killbackend:0@t:1000");
  EXPECT_FALSE(rep.passed);
  ASSERT_EQ(rep.violations.size(), 1u);
  EXPECT_NE(rep.violations[0].find("no persistence tier"),
            std::string::npos);
}

// ---- mutation + shrink machinery ---------------------------------------

TEST(Mutation, EveryPlantedBugHasOneSmokeEntry) {
  std::map<check::PlantedBug, int> entries;
  std::set<std::string> names;
  for (const auto& m : check::mutation_list()) {
    ++entries[m.bug];
    EXPECT_TRUE(names.insert(m.name).second) << "duplicate name " << m.name;
  }
  EXPECT_EQ(entries.count(check::PlantedBug::None), 0u);
  for (int b = 1; b < int(check::PlantedBug::Count); ++b)
    EXPECT_EQ(entries[check::PlantedBug(b)], 1) << "PlantedBug " << b;
}

TEST(Mutation, SkipAckMergeCaughtByTagCoverage) {
  const check::Mutation* mut = nullptr;
  for (const auto& m : check::mutation_list())
    if (m.name == "skip-ack-merge") mut = &m;
  ASSERT_NE(mut, nullptr);
  bool caught = false;
  for (int s = 1; s <= mut->seeds && !caught; ++s) {
    CheckReport rep = check::run_check(mut->config(uint64_t(s)), mut->plan);
    for (const auto& v : rep.violations)
      for (const auto& e : mut->expect)
        if (v.find(e) != std::string::npos) caught = true;
  }
  EXPECT_TRUE(caught);
}

TEST(Mutation, SkipRecoverySuffixCaughtByRecoveryMismatch) {
  const check::Mutation* mut = nullptr;
  for (const auto& m : check::mutation_list())
    if (m.name == "skip-recovery-suffix") mut = &m;
  ASSERT_NE(mut, nullptr);
  bool caught = false;
  for (int s = 1; s <= mut->seeds && !caught; ++s) {
    CheckReport rep = check::run_check(mut->config(uint64_t(s)), mut->plan);
    for (const auto& v : rep.violations)
      if (v.find("recovery-mismatch") != std::string::npos) caught = true;
  }
  EXPECT_TRUE(caught);
}

TEST(Mutation, RouteToJoinerCaught) {
  // The planted elastic bug: answer_join routes reads to the joiner
  // before data migration caught it up. The checker must see it as a
  // stale snapshot (or a read wedged on an unreachable version).
  const check::Mutation* mut = nullptr;
  for (const auto& m : check::mutation_list())
    if (m.name == "route-to-joiner") mut = &m;
  ASSERT_NE(mut, nullptr);
  bool caught = false;
  for (int s = 1; s <= mut->seeds && !caught; ++s) {
    CheckReport rep = check::run_check(mut->config(uint64_t(s)), mut->plan);
    for (const auto& v : rep.violations)
      for (const auto& e : mut->expect)
        if (v.find(e) != std::string::npos) caught = true;
  }
  EXPECT_TRUE(caught);
}

TEST(Mutation, MarkAfterAckCaughtByAtMostOnce) {
  // The planted bug: a resubmission arriving while its original waits for
  // replica acks finds no committed mark and executes again.
  const check::Mutation* mut = nullptr;
  for (const auto& m : check::mutation_list())
    if (m.name == "mark-after-ack") mut = &m;
  ASSERT_NE(mut, nullptr);
  bool caught = false;
  for (int s = 1; s <= mut->seeds && !caught; ++s) {
    CheckReport rep = check::run_check(mut->config(uint64_t(s)), mut->plan);
    for (const auto& v : rep.violations)
      if (v.find("at-most-once") != std::string::npos) caught = true;
  }
  EXPECT_TRUE(caught);
}

TEST(Shrink, DropsIrrelevantFaults) {
  // Only the slave0 kill "matters"; the spare kill must be shrunk away.
  auto violations_of = [](const std::string& plan) {
    std::vector<std::string> v;
    if (plan.find("kill:slave0") != std::string::npos)
      v.push_back("divergence: x");
    return v;
  };
  const std::string shrunk = check::shrink_plan(
      "kill:slave0@t:5000;kill:spare0@t:6000;restart:spare0@t:9000",
      "divergence", violations_of);
  EXPECT_NE(shrunk.find("kill:slave0"), std::string::npos);
  EXPECT_EQ(shrunk.find("spare0"), std::string::npos);
}

TEST(Shrink, KeepsViolationKindAndRejectsPlanErrors) {
  // Dropping the kill changes the failure's kind; dropping the addslave
  // turns the retire into a plan error. Neither candidate may be kept.
  auto violations_of = [](const std::string& plan) {
    std::vector<std::string> v;
    const bool kill = plan.find("kill:master0") != std::string::npos;
    const bool add = plan.find("addslave") != std::string::npos;
    if (!add) v.push_back("plan error: unknown node in 'retire:slave2'");
    v.push_back(kill ? "recovery-mismatch: x" : "divergence: y");
    return v;
  };
  const std::string shrunk = check::shrink_plan(
      "addslave@t:100;retire:slave2@t:200;kill:master0@t:300",
      "recovery-mismatch", violations_of);
  EXPECT_EQ(shrunk, "addslave@t:100;kill:master0@t:300");
}

TEST(Shrink, DropsPartitionTogetherWithItsHeal) {
  // Any plan with the kill fails the same way. The partition goes and its
  // heal with it: no candidate tried may hold the cut without its heal.
  std::vector<std::string> tried;
  auto violations_of = [&](const std::string& plan) {
    tried.push_back(plan);
    std::vector<std::string> v;
    if (plan.find("kill:master0") != std::string::npos)
      v.push_back("recovery-mismatch: x");
    return v;
  };
  const std::string shrunk = check::shrink_plan(
      "partition:local>r1@t:10;heal-partition:local>r1@t:20;"
      "kill:master0@t:30",
      "recovery-mismatch", violations_of);
  EXPECT_EQ(shrunk, "kill:master0@t:30");
  for (const auto& p : tried) {
    auto plan = FaultPlan::parse(p);
    ASSERT_TRUE(plan.has_value()) << p;
    size_t cuts = 0, heals = 0;
    for (const auto& f : plan->faults) {
      cuts += f.action.kind == ActionKind::Partition;
      heals += f.action.kind == ActionKind::HealPartition;
    }
    EXPECT_EQ(cuts, heals) << "a cut tried without its heal: " << p;
  }
}

// Two sweep failures whose shrunk repro lines used to report another
// failure: multimaster seed 434 shrank to a lone unhealed partition (a
// wedged read and divergence), elastic seed 3348 to a retire of a slave
// the dropped addslave would have created (a plan error). Shrunk now, each
// plan still fails with the original recovery-mismatch.
CheckReport run_at(CheckConfig cfg, uint64_t seed, const std::string& plan) {
  cfg.seed = seed;
  return check::run_check(cfg, plan);
}

void expect_shrink_keeps_kind(const CheckConfig& cfg, uint64_t seed,
                              const std::string& plan) {
  const CheckReport rep = run_at(cfg, seed, plan);
  ASSERT_FALSE(rep.passed);
  ASSERT_EQ(check::violation_kind(rep.violations.front()),
            "recovery-mismatch");
  const std::string shrunk = check::shrink_plan(
      plan, "recovery-mismatch",
      [&](const std::string& cand) { return run_at(cfg, seed, cand).violations; });
  const CheckReport again = run_at(cfg, seed, shrunk);
  ASSERT_FALSE(again.passed) << shrunk;
  EXPECT_EQ(check::violation_kind(again.violations.front()),
            "recovery-mismatch")
      << shrunk << ": " << again.violations.front();
  for (const auto& v : again.violations)
    EXPECT_NE(check::violation_kind(v), "plan error") << shrunk;
}

TEST(Shrink, MultimasterSeed434KeepsRecoveryMismatch) {
  CheckConfig cfg;
  check::make_multimaster(cfg);
  expect_shrink_keeps_kind(
      cfg, 434,
      "addslave@t:15048;partition:local>r1@t:4497;"
      "heal-partition:local>r1@t:30180;kill:master0@t:26791;"
      "kill:spare0@t:3294;restart:spare0@t:45709;heal-partition@t:250000");
}

TEST(Shrink, ElasticSeed3348KeepsRecoveryMismatch) {
  expect_shrink_keeps_kind(
      CheckConfig{}, 3348,
      "addslave@t:14287;addslave@t:31766;retire:slave2@t:26937;"
      "kill:master0@t:33574");
}

}  // namespace
}  // namespace dmv
