// Ablation of a DESIGN.md §5 decision (our addition; no paper figure).
//
// Scheduler: version-aware selection with admission control (default,
// cap=4) vs deep queues (cap=64). Deep in-node queues make read tags
// stale, inflating version-inconsistency aborts. The lock-deaths column
// counts deadlock victims on the masters.
#include <iostream>

#include "bench_common.hpp"

using namespace dmv;
using namespace dmv::bench;

namespace {
constexpr sim::Time kWarm = 20 * sim::kSec;
constexpr sim::Time kEnd = 120 * sim::kSec;

struct Out {
  double wips = 0, lat_ms = 0, abort_pct = 0;
  uint64_t lock_deaths = 0;                // aggregate over all masters
  std::vector<uint64_t> class_lock_deaths; // one entry per conflict class
};

Out run(uint64_t cap, size_t clients) {
  harness::DmvExperiment::Config cfg;
  cfg.workload = default_workload(tpcw::Mix::Shopping, clients);
  cfg.slaves = 2;
  cfg.costs = calibrated_costs();
  cfg.scheduler.max_reads_inflight_per_node = cap;
  harness::DmvExperiment exp(cfg);
  exp.start();
  exp.run_until(kEnd);
  Out o;
  o.wips = exp.series().wips(kWarm, kEnd);
  o.lat_ms = exp.series().latency(kWarm, kEnd) * 1000;
  o.abort_pct = 100.0 * double(exp.cluster().total_version_aborts()) /
                double(std::max<uint64_t>(1, exp.series().total()));
  // Keep every conflict class's master counter as well as the sum —
  // class 0 alone undercounts the moment the cluster runs more than one
  // master, and the aggregate alone hides a restart-storm in one class.
  for (size_t c = 0; c < exp.cluster().master_count(); ++c) {
    const uint64_t d =
        exp.cluster().master(c).engine().locks().death_count();
    o.class_lock_deaths.push_back(d);
    o.lock_deaths += d;
  }
  exp.stop();
  return o;
}

std::vector<std::string> row(const std::string& name, const Out& o) {
  std::string deaths = std::to_string(o.lock_deaths);
  if (o.class_lock_deaths.size() > 1) {
    deaths += " [";
    for (size_t c = 0; c < o.class_lock_deaths.size(); ++c)
      deaths += (c ? "|" : "") + std::to_string(o.class_lock_deaths[c]);
    deaths += "]";
  }
  return {name, harness::fmt(o.wips), harness::fmt(o.lat_ms, 0),
          harness::fmt(o.abort_pct, 2) + "%", deaths};
}
}  // namespace

int main() {
  std::cout << "# Ablation: scheduler admission "
            << "(shopping mix, 2 slaves, 900 clients)\n";
  const size_t clients = 900;
  std::vector<std::vector<std::string>> rows;
  rows.push_back(row("cap=4 (default)", run(4, clients)));
  rows.push_back(row("cap=64 (deep node queues)", run(64, clients)));
  harness::print_table(
      std::cout, "Design ablations",
      {"configuration", "WIPS", "lat ms", "version aborts", "lock deaths"},
      rows);
  std::cout << "\nReading: deep queues trade latency for stale read tags "
               "(aborts climb).\n";
  return 0;
}
