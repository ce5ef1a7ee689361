// Figure 4 — node reintegration (shopping mix).
//
// Master + 4 slaves at saturation. The master is killed mid-run (worst
// case: it owns the update path and the version sequence). The system
// reconfigures instantly — a slave is promoted, throughput degrades
// gracefully to what the remaining replicas support. After a simulated
// reboot the failed node reintegrates via the §4.4 protocol: it reloads
// its base image, subscribes to the new master, fetches changed pages from
// a support slave (checkpoint period is set long, so this run shows the
// worst case where everything modified since the start must transfer),
// then warms its buffer cache under live traffic.
#include <iostream>

#include "bench_common.hpp"

using namespace dmv;
using namespace dmv::bench;

int main() {
  constexpr sim::Time kFail = 200 * sim::kSec;
  constexpr sim::Time kReboot = 60 * sim::kSec;  // paper: ~6 min reboot
  constexpr sim::Time kEnd = 520 * sim::kSec;

  harness::DmvExperiment::Config cfg;
  cfg.workload = default_workload(tpcw::Mix::Shopping, 1000);
  cfg.workload.scale.items = 8000;  // bigger cache footprint: visible warmup
  cfg.slaves = 4;
  cfg.costs = calibrated_costs();
  cfg.costs.mem_page_fault = 8 * sim::kMsec;
  cfg.node.checkpoint_period = 40 * 60 * sim::kSec;  // 40 min: never fires here

  harness::DmvExperiment exp(cfg);
  const net::NodeId victim = exp.cluster().master_id();
  exp.schedule_fault(kFail, [&] { exp.cluster().kill_node(victim); });
  exp.schedule_fault(kFail + kReboot,
                     [&] { exp.cluster().restart_and_rejoin(victim); });
  exp.start();
  exp.run_until(kEnd);

  const auto& joiner = exp.cluster().node(victim).stats();
  const auto& sched = exp.cluster().scheduler().stats();
  const double before = exp.series().wips(100 * sim::kSec, kFail);
  const double degraded =
      exp.series().wips(kFail + 20 * sim::kSec, kFail + kReboot);
  const double after = exp.series().wips(kEnd - 80 * sim::kSec, kEnd);
  exp.stop();

  std::cout << "# Figure 4 — node reintegration, shopping mix "
            << "(master + 4 slaves, worst-case checkpoint)\n";
  harness::print_timeline(
      std::cout, "Throughput / latency timeline", exp.series(), 0, kEnd,
      {{kFail, "master killed (slave promoted)"},
       {kFail + kReboot, "node rebooted; reintegration starts"},
       {joiner.join_pages_done > 0 ? joiner.join_pages_done
                                   : kFail + kReboot,
        "catch-up complete; cache warming"}});

  harness::print_table(
      std::cout, "Reintegration summary",
      {"metric", "value"},
      {{"steady WIPS before failure", harness::fmt(before)},
       {"WIPS while node down", harness::fmt(degraded)},
       {"degradation",
        harness::fmt((1 - degraded / before) * 100) + "% (paper: ~20%)"},
       {"master recovery (abort+promote)",
        harness::fmt(sim::to_seconds(sched.master_recovery_end -
                                     sched.master_recovery_start), 3) +
            " s"},
       {"catch-up (page transfer)",
        harness::fmt(sim::to_seconds(joiner.join_pages_done -
                                     joiner.join_started),
                     2) +
            " s (paper: ~5 s)"},
       {"pages installed",
        std::to_string(
            exp.cluster().node(victim).engine().stats().pages_installed)},
       {"steady WIPS after reintegration", harness::fmt(after)},
       {"joins completed", std::to_string(sched.joins_completed)},
       {"reads served by rejoined node",
        std::to_string(
            exp.cluster().node(victim).engine().stats().read_commits)},
       {"rejoined node cache faults",
        std::to_string(
            exp.cluster().node(victim).engine().cache().faults())},
       {"read slaves at end",
        std::to_string(exp.cluster().scheduler().slaves().size())}});
  return 0;
}
