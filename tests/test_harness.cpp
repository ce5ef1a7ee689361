#include <gtest/gtest.h>

#include <sstream>

#include "harness/experiment.hpp"
#include "harness/report.hpp"

namespace dmv::harness {
namespace {

TEST(Series, WipsCountsWholeBucketsOnly) {
  Series s(sim::Time(1) * sim::kSec);
  workload::InteractionRecord r;
  r.ok = true;
  for (int i = 0; i < 10; ++i) {
    r.start = sim::Time(i) * 100 * sim::kMsec;
    r.end = r.start + 50 * sim::kMsec;
    s.add(r);  // all complete inside [0, 1s)
  }
  r.start = 1500 * sim::kMsec;
  r.end = 1600 * sim::kMsec;
  s.add(r);
  EXPECT_DOUBLE_EQ(s.wips(0, 1 * sim::kSec), 10.0);
  EXPECT_DOUBLE_EQ(s.wips(0, 2 * sim::kSec), 5.5);
  EXPECT_EQ(s.total(), 11u);
}

TEST(Series, ErrorsExcludedFromThroughput) {
  Series s(sim::kSec);
  workload::InteractionRecord ok{0, 100, true, false, "x"};
  workload::InteractionRecord bad{0, 100, false, false, "x"};
  s.add(ok);
  s.add(bad);
  EXPECT_EQ(s.errors(), 1u);
  EXPECT_DOUBLE_EQ(s.wips(0, sim::kSec), 1.0);
}

TEST(Series, LatencyAveragesWithinWindow) {
  Series s(sim::kSec);
  workload::InteractionRecord r;
  r.ok = true;
  r.start = 0;
  r.end = 200 * sim::kMsec;  // 0.2 s
  s.add(r);
  r.start = 100 * sim::kMsec;
  r.end = 500 * sim::kMsec;  // 0.4 s
  s.add(r);
  EXPECT_NEAR(s.latency(0, sim::kSec), 0.3, 1e-9);
}

TEST(Report, TableAndTimelineRender) {
  std::ostringstream os;
  print_table(os, "T", {"a", "bb"}, {{"1", "2"}, {"333", "4"}});
  const std::string t = os.str();
  EXPECT_NE(t.find("## T"), std::string::npos);
  EXPECT_NE(t.find("333"), std::string::npos);

  Series s(sim::kSec);
  workload::InteractionRecord r{0, 100, true, false, "x"};
  s.add(r);
  std::ostringstream os2;
  print_timeline(os2, "TL", s, 0, 2 * sim::kSec, {{0, "mark"}});
  EXPECT_NE(os2.str().find("mark"), std::string::npos);
}

TEST(Report, FmtPrecision) {
  EXPECT_EQ(fmt(3.14159, 2), "3.14");
  EXPECT_EQ(fmt(10.0, 0), "10");
}

// Smoke: a tiny DMV experiment produces sensible series and is
// deterministic across identical configs.
TEST(Experiment, DmvSmokeAndDeterminism) {
  auto run = [] {
    DmvExperiment::Config cfg;
    cfg.workload.scale.items = 100;
    cfg.workload.clients = 20;
    cfg.workload.think_mean = 300 * sim::kMsec;
    cfg.slaves = 2;
    DmvExperiment exp(cfg);
    exp.start();
    exp.run_until(30 * sim::kSec);
    exp.stop();
    return std::make_pair(exp.series().total(), exp.series().errors());
  };
  auto a = run();
  auto b = run();
  EXPECT_GT(a.first, 500u);
  EXPECT_EQ(a.second, 0u);
  EXPECT_EQ(a, b);  // bit-deterministic
}

// Node knobs are declared once, on DmvExperiment::Config::node, and must
// reach every engine node the cluster builds: the initial masters, slaves
// and spares, a restarted slave and an elastically added one. Only slave 0
// of the initial deployment sends page-id hints, and only when asked to.
TEST(Experiment, NodeKnobsReachEveryNode) {
  for (bool hints : {false, true}) {
    SCOPED_TRACE(hints ? "pageid_hints on" : "pageid_hints off");
    DmvExperiment::Config cfg;
    cfg.workload.scale.items = 100;
    cfg.slaves = 2;
    cfg.spares = 1;
    cfg.pageid_hints = hints;
    cfg.node.batch_max_writesets = 3;
    cfg.node.batch_delay = 700;
    cfg.node.ack_every_n = 5;
    cfg.node.ack_delay = 900;
    cfg.node.quorum_commit = true;
    cfg.node.write_quorum = 2;
    cfg.node.checkpoint_period = 7 * sim::kSec;
    cfg.node.eager_apply = true;
    DmvExperiment exp(cfg);
    core::DmvCluster& cl = exp.cluster();
    auto expect_knobs = [&](net::NodeId id, net::NodeId hint_target) {
      SCOPED_TRACE(cl.net().name(id));
      const core::EngineNode::Config& nc = cl.node(id).config();
      EXPECT_EQ(nc.batch_max_writesets, 3u);
      EXPECT_EQ(nc.batch_delay, 700);
      EXPECT_EQ(nc.ack_every_n, 5u);
      EXPECT_EQ(nc.ack_delay, 900);
      EXPECT_TRUE(nc.quorum_commit);
      EXPECT_EQ(nc.write_quorum, 2);
      EXPECT_EQ(nc.checkpoint_period, 7 * sim::kSec);
      EXPECT_TRUE(nc.eager_apply);
      EXPECT_EQ(nc.hint_target, hint_target);
    };
    ASSERT_EQ(cl.master_count(), 1u);
    expect_knobs(cl.master_id(), net::kNoNode);
    expect_knobs(cl.slave_id(0), hints ? cl.spare_id(0) : net::kNoNode);
    expect_knobs(cl.slave_id(1), net::kNoNode);
    expect_knobs(cl.spare_id(0), net::kNoNode);

    const net::NodeId victim = cl.slave_id(1);
    cl.kill_node(victim);
    exp.run_until(sim::kSec);  // past failure detection
    cl.restart_and_rejoin(victim);
    ASSERT_TRUE(cl.net().alive(victim));
    expect_knobs(victim, net::kNoNode);
    expect_knobs(cl.add_slave(), net::kNoNode);
  }
}

TEST(Experiment, DiskSmoke) {
  DiskExperiment::Config cfg;
  cfg.workload.scale.items = 100;
  cfg.workload.clients = 10;
  cfg.workload.think_mean = 300 * sim::kMsec;
  cfg.engine.buffer_frames = 1 << 16;
  DiskExperiment exp(cfg);
  exp.start();
  exp.run_until(20 * sim::kSec);
  exp.stop();
  EXPECT_GT(exp.series().total(), 200u);
  EXPECT_EQ(exp.series().errors(), 0u);
}

TEST(Experiment, TierSmoke) {
  TierExperiment::Config cfg;
  cfg.workload.scale.items = 100;
  cfg.workload.clients = 10;
  cfg.workload.think_mean = 500 * sim::kMsec;
  cfg.tier.engine.buffer_frames = 1 << 16;
  TierExperiment exp(cfg);
  exp.start();
  exp.run_until(20 * sim::kSec);
  exp.stop();
  EXPECT_GT(exp.series().total(), 100u);
  EXPECT_EQ(exp.series().errors(), 0u);
}

}  // namespace
}  // namespace dmv::harness
