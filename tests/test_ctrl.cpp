// SloController: closed-loop elastic sizing against a live DmvExperiment.
#include <gtest/gtest.h>

#include "ctrl/slo_controller.hpp"
#include "harness/experiment.hpp"

namespace dmv::ctrl {
namespace {

harness::DmvExperiment::Config small_cluster(size_t clients) {
  harness::DmvExperiment::Config cfg;
  cfg.workload.scale.items = 200;
  cfg.workload.clients = clients;
  cfg.workload.think_mean = 700 * sim::kMsec;
  cfg.workload.bucket = 5 * sim::kSec;
  cfg.slaves = 1;
  cfg.spares = 0;
  // Expensive reads: one slave saturates at a few hundred clients, so the
  // flash crowd below is an unambiguous scale-out signal.
  cfg.costs.mem_cpu_read_query = 2 * sim::kMsec;
  cfg.costs.mem_cpu_write_query = 400;
  return cfg;
}

TEST(SloController, FlashCrowdScalesOutThenBackIn) {
  harness::DmvExperiment exp(small_cluster(40));
  SloController slo(exp.sim(), exp.cluster(), /*max_slaves=*/6);
  slo.start();
  exp.start();
  // Crowd arrives at 15s, leaves at 45s.
  exp.schedule_flash_crowd(15 * sim::kSec, 250, 30 * sim::kSec);
  exp.run_until(70 * sim::kSec);
  slo.stop();

  // The crowd forced at least one scale-out; after it left, every
  // controller-added node was retired again (drain-then-kill), so the
  // fleet returns to the operator baseline.
  EXPECT_GE(slo.stats().scale_outs, 1u);
  EXPECT_GE(slo.stats().scale_ins, 1u);
  EXPECT_EQ(slo.added_live(), 0u);
  EXPECT_EQ(exp.cluster().live_slave_count(), 1u);
  EXPECT_GT(slo.stats().polls, 0u);
  EXPECT_GE(slo.stats().first_scale_out, 0);
  exp.stop();
  EXPECT_EQ(exp.series().errors(), 0u);
}

TEST(SloController, SteadyLoadMakesNoMoves) {
  // A comfortably-provisioned fleet under flat load: the controller must
  // hold still in both directions (one live slave floors scale-in).
  harness::DmvExperiment exp(small_cluster(40));
  SloController slo(exp.sim(), exp.cluster());
  slo.start();
  exp.start();
  exp.run_until(40 * sim::kSec);
  slo.stop();
  EXPECT_EQ(slo.stats().scale_outs, 0u);
  EXPECT_EQ(slo.stats().scale_ins, 0u);
  exp.stop();
}

TEST(SloController, RespectsMaxSlavesCap) {
  harness::DmvExperiment exp(small_cluster(400));
  // Two slaves are hopelessly underprovisioned for 400 clients.
  SloController slo(exp.sim(), exp.cluster(), /*max_slaves=*/2);
  slo.start();
  exp.start();
  exp.run_until(60 * sim::kSec);
  slo.stop();
  EXPECT_EQ(slo.stats().scale_outs, 1u);  // 1 baseline + 1 added == cap
  EXPECT_LE(exp.cluster().live_slave_count(), 2u);
  exp.stop();
}

}  // namespace
}  // namespace dmv::ctrl
