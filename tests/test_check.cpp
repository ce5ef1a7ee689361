// dmv_check: oracle unit tests, recorder session-order checks, end-to-end
// checker runs, and the mutation/shrink machinery.
#include <gtest/gtest.h>

#include "chaos/fault_plan.hpp"
#include "check/checker.hpp"
#include "check/history.hpp"
#include "check/oracle.hpp"
#include "sim/simulation.hpp"
#include "test_main.hpp"

namespace dmv {
namespace {

using check::CheckConfig;
using check::CheckReport;
using check::CommitEvent;
using check::DiscardEvent;
using check::Event;
using check::Oracle;
using check::OracleConfig;
using check::ReadEvent;
using check::Recorder;
using check::StateView;

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
  chaos::Violations v;
  o.check({commit(1, 1, 110), read_at(1, 1, 110), read_at(0, 1, 100)}, &v);
  EXPECT_TRUE(v.ok()) << v.items.front();
  EXPECT_EQ(o.reads_checked(), 2u);
  EXPECT_EQ(o.commits_applied(), 1u);
}

TEST(Oracle, StaleReadIsSnapshotMismatch) {
  Oracle o(one_table({{1, 100}}));
  chaos::Violations v;
  // Read tagged at version 1 but observing the version-0 value.
  o.check({commit(1, 1, 110), read_at(1, 1, 100)}, &v);
  ASSERT_EQ(v.items.size(), 1u);
  EXPECT_NE(v.items[0].find("snapshot-mismatch"), std::string::npos);
}

TEST(Oracle, SkippedVersionIsGap) {
  Oracle o(one_table({{1, 100}}));
  chaos::Violations v;
  o.check({commit(2, 1, 120)}, &v);  // head is 0, stamp jumps to 2
  ASSERT_EQ(v.items.size(), 1u);
  EXPECT_NE(v.items[0].find("version-gap"), std::string::npos);
}

TEST(Oracle, DuplicateCommitIsAtMostOnceViolation) {
  Oracle o(one_table({{1, 100}}));
  chaos::Violations v;
  o.check({commit(1, 1, 110, 9, 7), commit(2, 1, 120, 9, 7)}, &v);
  ASSERT_EQ(v.items.size(), 1u);
  EXPECT_NE(v.items[0].find("at-most-once"), std::string::npos);
}

TEST(Oracle, DiscardPrunesAndAllowsResubmission) {
  Oracle o(one_table({{1, 100}}));
  chaos::Violations v;
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
  chaos::Violations v;
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
  }
}

TEST(RunCheck, SurvivesReplicaAndMasterKill) {
  CheckReport rep = check::run_check(
      quick_cfg(test::base_seed),
      "kill:slave0@t:5000;kill:master1@t:9000;restart:slave0@t:30000");
  EXPECT_TRUE(rep.passed) << rep.summary() << "\n"
                          << (rep.violations.empty()
                                  ? ""
                                  : rep.violations.front());
  EXPECT_EQ(rep.faults_unfired, 0u);
  EXPECT_GE(rep.recoveries, 1u);
}

TEST(RunCheck, DeterministicInSeedAndPlan) {
  const std::string plan = "kill:slave1@t:7000";
  CheckReport a = check::run_check(quick_cfg(test::base_seed + 1), plan);
  CheckReport b = check::run_check(quick_cfg(test::base_seed + 1), plan);
  EXPECT_EQ(a.summary(), b.summary());
  EXPECT_EQ(a.violations, b.violations);
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
}

TEST(RunCheck, RandomFaultPlansParse) {
  for (uint64_t s = 1; s <= 8; ++s) {
    const std::string plan =
        check::random_fault_plan(quick_cfg(1), s, 1 + int(s % 2));
    std::string err;
    ASSERT_TRUE(chaos::FaultPlan::parse(plan, &err).has_value())
        << plan << ": " << err;
  }
}

TEST(RunCheck, DisasterDrillRoundTrips) {
  // The §4.6 drill: destroy the whole mem tier mid-workload, then have
  // the oracle verify that a tier image bootstrapped from each
  // recoverable backend (rows + log suffix) equals the sequential prefix
  // at the acked frontier exactly.
  CheckConfig cfg = quick_cfg(test::base_seed);
  cfg.cluster.enable_persistence = true;
  CheckReport rep = check::run_check(
      cfg, "killbackend:0@t:6000;wipe-tier@t:30000");
  EXPECT_TRUE(rep.passed) << rep.summary() << "\n"
                          << (rep.violations.empty()
                                  ? ""
                                  : rep.violations.front());
  EXPECT_EQ(rep.faults_unfired, 0u);
}

TEST(RunCheck, RandomDisasterPlansParseAndWipe) {
  CheckConfig cfg = quick_cfg(1);
  cfg.cluster.enable_persistence = true;
  for (uint64_t s = 1; s <= 8; ++s) {
    const std::string plan = check::random_disaster_plan(cfg, s);
    std::string err;
    ASSERT_TRUE(chaos::FaultPlan::parse(plan, &err).has_value())
        << plan << ": " << err;
    EXPECT_NE(plan.find("wipe-tier@t:"), std::string::npos) << plan;
  }
}

TEST(RunCheck, ElasticResizeRoundTrips) {
  // Fleet resize mid-workload: a fresh slave joins via §4.4 under live
  // traffic and an original one drains out; the oracle must stay clean.
  CheckConfig cfg = quick_cfg(test::base_seed);
  cfg.elastic = true;
  CheckReport rep = check::run_check(
      cfg, "addslave@t:5000;retire:slave0@t:12000");
  EXPECT_TRUE(rep.passed) << rep.summary() << "\n"
                          << (rep.violations.empty()
                                  ? ""
                                  : rep.violations.front());
  EXPECT_EQ(rep.faults_unfired, 0u);
}

TEST(RunCheck, RandomElasticPlansParseAndAreDeterministic) {
  CheckConfig cfg = quick_cfg(1);
  cfg.elastic = true;
  for (uint64_t s = 1; s <= 8; ++s) {
    const std::string plan =
        check::random_elastic_fault_plan(cfg, s, 1 + int(s % 2));
    std::string err;
    ASSERT_TRUE(chaos::FaultPlan::parse(plan, &err).has_value())
        << plan << ": " << err;
    EXPECT_NE(plan.find("addslave@t:"), std::string::npos) << plan;
    EXPECT_EQ(plan,
              check::random_elastic_fault_plan(cfg, s, 1 + int(s % 2)));
  }
}

// ---- mutation + shrink machinery ---------------------------------------

TEST(Mutation, SkipAckMergeCaughtByTagCoverage) {
  const check::Mutation* mut = nullptr;
  for (const auto& m : check::mutation_list())
    if (m.name == "skip-ack-merge") mut = &m;
  ASSERT_NE(mut, nullptr);
  bool caught = false;
  for (int s = 1; s <= mut->seeds && !caught; ++s) {
    CheckConfig cfg;
    cfg.seed = uint64_t(s);
    mut->apply(cfg);
    CheckReport rep = check::run_check(cfg, mut->plan);
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
    CheckConfig cfg;
    cfg.seed = uint64_t(s);
    mut->apply(cfg);
    CheckReport rep = check::run_check(cfg, mut->plan);
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
    CheckConfig cfg;
    cfg.seed = uint64_t(s);
    mut->apply(cfg);
    CheckReport rep = check::run_check(cfg, mut->plan);
    for (const auto& v : rep.violations)
      for (const auto& e : mut->expect)
        if (v.find(e) != std::string::npos) caught = true;
  }
  EXPECT_TRUE(caught);
}

TEST(Shrink, DropsIrrelevantFaults) {
  // Only the slave0 kill "matters"; the spare kill must be shrunk away.
  auto still_fails = [](const std::string& plan) {
    return plan.find("kill:slave0") != std::string::npos;
  };
  const std::string shrunk = chaos::shrink_plan(
      "kill:slave0@t:5000;kill:spare0@t:6000;restart:spare0@t:9000",
      still_fails);
  EXPECT_NE(shrunk.find("kill:slave0"), std::string::npos);
  EXPECT_EQ(shrunk.find("spare0"), std::string::npos);
}

}  // namespace
}  // namespace dmv
