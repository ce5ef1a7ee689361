// Figure 9 — fail-over onto a WARM spare backup kept warm by page-id
// transfer (§4.5, second technique): an active slave ships the ids of its
// hot pages every 100 transactions and the spare touches them, so the
// spare's CPU stays free for other work. Performance on fail-over matches
// the 1%-reads scheme.
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
  // Slave 0 ships hot-page ids to spare 0 every 100 transactions.
  cfg.pageid_hints = true;

  harness::DmvExperiment exp(cfg);
  const net::NodeId slave = exp.cluster().slave_id(0);
  size_t resident_at_fail = 0;
  uint64_t spare_reads_prefail = 0;
  exp.schedule_fault(kFail - sim::kSec, [&] {
    auto& sp = exp.cluster().node(exp.cluster().spare_id(0)).engine();
    resident_at_fail = sp.cache().resident_pages();
    spare_reads_prefail = sp.stats().read_commits;
  });
  exp.schedule_fault(kFail, [&] { exp.cluster().kill_node(slave); });
  exp.start();
  exp.run_until(kEnd);

  const double before = exp.series().wips(60 * sim::kSec, kFail);
  const double dip = exp.series().wips(kFail, kFail + 60 * sim::kSec);
  const double after = exp.series().wips(kEnd - 90 * sim::kSec, kEnd);
  const auto& hinting = exp.cluster().node(slave).stats();
  exp.stop();

  std::cout << "# Figure 9 — fail-over onto warm DMV backup "
            << "(page-id transfer)\n";
  harness::print_timeline(
      std::cout,
      "Warm backup via page-id transfer: seamless failure handling",
      exp.series(), 0, kEnd, {{kFail, "active slave killed"}});
  harness::print_table(
      std::cout, "Summary", {"metric", "value"},
      {{"steady WIPS before", harness::fmt(before)},
       {"WIPS in the minute after failure", harness::fmt(dip)},
       {"dip", harness::fmt((1 - dip / before) * 100) +
                   "% (paper: same as 1%-reads scheme)"},
       {"steady WIPS after", harness::fmt(after)},
       {"page-id hint batches sent", std::to_string(hinting.hints_sent)},
       {"spare reads served before failure (should be 0)",
        std::to_string(spare_reads_prefail)},
       {"spare resident pages at failure",
        std::to_string(resident_at_fail)}});
  return 0;
}
