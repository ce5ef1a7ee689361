// Figure 7 — fail-over onto an up-to-date but COLD spare backup.
//
// Larger database (the paper bumps to 400K customers / 800MB to emphasize
// the warm-up phase). One master + one active slave + one subscribed spare
// whose buffer cache is cold. The active slave is killed; integration is
// instantaneous (the spare is current), but every page it serves faults in
// from its on-disk image first — the throughput trough is pure warm-up.
#include <iostream>

#include "bench_common.hpp"

using namespace dmv;
using namespace dmv::bench;

int main() {
  constexpr sim::Time kFail = 4 * 60 * sim::kSec;
  constexpr sim::Time kEnd = 9 * 60 * sim::kSec;

  harness::DmvExperiment::Config cfg;
  cfg.workload = default_workload(tpcw::Mix::Shopping, 400);
  cfg.workload.scale.items = 20000;  // larger DB: pronounced warm-up
  cfg.slaves = 1;
  cfg.spares = 1;
  cfg.costs = calibrated_costs();
  cfg.costs.mem_page_fault = 8 * sim::kMsec;

  harness::DmvExperiment exp(cfg);
  const net::NodeId slave = exp.cluster().slave_id(0);
  exp.schedule_fault(kFail, [&] { exp.cluster().kill_node(slave); });
  exp.start();
  exp.run_until(kEnd);

  const double before = exp.series().wips(60 * sim::kSec, kFail);
  const double after = exp.series().wips(kEnd - 90 * sim::kSec, kEnd);
  auto& spare = exp.cluster().node(exp.cluster().spare_id(0)).engine();
  exp.stop();

  std::cout << "# Figure 7 — fail-over onto cold up-to-date DMV backup\n";
  harness::print_timeline(
      std::cout, "Cold backup: significant warm-up trough (paper: >1 min)",
      exp.series(), 0, kEnd,
      {{kFail, "active slave killed; cold spare integrated"}});
  harness::print_table(
      std::cout, "Summary", {"metric", "value"},
      {{"steady WIPS before", harness::fmt(before)},
       {"steady WIPS after warm-up", harness::fmt(after)},
       {"spare integrated at",
        harness::fmt(sim::to_seconds(
            exp.cluster().scheduler().stats().spare_activated_at)) +
            " s (instantaneous: already in sync)"},
       {"spare cache faults after fail-over",
        std::to_string(spare.cache().faults())},
       {"spare reads served", std::to_string(spare.stats().read_commits)}});
  return 0;
}
