// Bookstore fail-over demo: the paper's headline scenario end to end.
//
// A TPC-W bookstore runs the shopping mix on a DMV cluster with a warm
// spare backup. Mid-run we kill the master — the worst failure — and watch
// the system reconfigure: the scheduler confirms the last acknowledged
// version, replicas discard partially propagated write-sets, a slave is
// elected master, the spare joins the read rotation, and service continues
// with barely a ripple.
//
//   $ ./bookstore_failover
#include <iostream>

#include "harness/experiment.hpp"
#include "harness/report.hpp"

using namespace dmv;

int main() {
  constexpr sim::Time kFail = 90 * sim::kSec;
  constexpr sim::Time kEnd = 240 * sim::kSec;

  harness::DmvExperiment::Config cfg;
  cfg.workload.scale.items = 1000;
  cfg.workload.mix = tpcw::Mix::Shopping;
  cfg.workload.clients = 500;
  cfg.workload.bucket = 10 * sim::kSec;
  cfg.slaves = 2;
  cfg.spares = 1;
  // Keep the spare warm with 1% of reads.
  cfg.scheduler.spare_read_fraction = 0.01;
  cfg.costs.mem_cpu_read_query = 2 * sim::kMsec;
  cfg.costs.mem_cpu_write_query = 400;

  harness::DmvExperiment exp(cfg);
  exp.schedule_fault(kFail, [&] {
    std::cout << ">>> t=" << sim::to_seconds(kFail)
              << "s: killing the MASTER\n";
    exp.cluster().kill_node(exp.cluster().master_id());
  });
  exp.start();
  exp.run_until(kEnd);

  const auto& sched = exp.cluster().scheduler().stats();
  const double before = exp.series().wips(30 * sim::kSec, kFail);
  const double after = exp.series().wips(kFail + 30 * sim::kSec, kEnd);
  exp.stop();

  harness::print_timeline(std::cout, "Bookstore under master failure",
                          exp.series(), 0, kEnd,
                          {{kFail, "master killed"},
                           {sched.master_recovery_end, "new master ready"}});

  std::cout << "\nRecovery protocol (§4.2): "
            << harness::fmt(sim::to_seconds(sched.master_recovery_end -
                                            sched.master_recovery_start),
                            3)
            << " s — discard unconfirmed write-sets, elect, promote\n"
            << "Spare entered the read rotation at t="
            << harness::fmt(sim::to_seconds(sched.spare_activated_at))
            << " s\n"
            << "Throughput: " << harness::fmt(before) << " -> "
            << harness::fmt(after)
            << " WIPS (client-visible errors: " << exp.series().errors()
            << ")\n";
  return 0;
}
