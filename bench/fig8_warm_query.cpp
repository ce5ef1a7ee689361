// Figure 8 — fail-over onto a WARM spare backup kept warm by serving 1% of
// the read-only workload (§4.5, first technique). Same configuration as
// Figure 7 except the scheduler diverts a sliver of reads to the spare;
// on fail-over the effect of the failure is almost unnoticeable.
#include <iostream>

#include "bench_common.hpp"

using namespace dmv;
using namespace dmv::bench;

int main() {
  constexpr sim::Time kFail = 4 * 60 * sim::kSec;
  constexpr sim::Time kEnd = 9 * 60 * sim::kSec;

  harness::DmvExperiment::Config cfg;
  cfg.workload = default_workload(tpcw::Mix::Shopping, 400);
  cfg.workload.scale.items = 20000;
  cfg.slaves = 1;
  cfg.spares = 1;
  cfg.costs = calibrated_costs();
  cfg.costs.mem_page_fault = 8 * sim::kMsec;
  cfg.scheduler.spare_read_fraction = 0.01;  // the 1% warm-up policy

  harness::DmvExperiment exp(cfg);
  const net::NodeId slave = exp.cluster().slave_id(0);
  size_t resident_at_fail = 0;
  exp.schedule_fault(kFail - sim::kSec, [&] {
    resident_at_fail = exp.cluster()
                           .node(exp.cluster().spare_id(0))
                           .engine()
                           .cache()
                           .resident_pages();
  });
  exp.schedule_fault(kFail, [&] { exp.cluster().kill_node(slave); });
  exp.start();
  exp.run_until(kEnd);

  const double before = exp.series().wips(60 * sim::kSec, kFail);
  const double dip =
      exp.series().wips(kFail, kFail + 60 * sim::kSec);
  const double after = exp.series().wips(kEnd - 90 * sim::kSec, kEnd);
  const uint64_t spare_reads = exp.cluster().scheduler().stats().spare_reads;
  exp.stop();

  std::cout << "# Figure 8 — fail-over onto warm DMV backup "
            << "(1% query-execution warm-up)\n";
  harness::print_timeline(
      std::cout,
      "Warm backup via 1% reads: failure effect almost unnoticeable",
      exp.series(), 0, kEnd, {{kFail, "active slave killed"}});
  harness::print_table(
      std::cout, "Summary", {"metric", "value"},
      {{"steady WIPS before", harness::fmt(before)},
       {"WIPS in the minute after failure", harness::fmt(dip)},
       {"dip", harness::fmt((1 - dip / before) * 100) +
                   "% (paper: unnoticeable)"},
       {"steady WIPS after", harness::fmt(after)},
       {"warm-up reads sent to spare (pre-failure)",
        std::to_string(spare_reads)},
       {"spare resident pages at failure",
        std::to_string(resident_at_fail)}});
  return 0;
}
