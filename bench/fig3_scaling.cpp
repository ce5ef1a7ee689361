// Figure 3 + §6.1: throughput scaling of the DMV in-memory tier (1/2/4/8
// slaves) against a fine-tuned stand-alone InnoDB back-end, for the three
// TPC-W mixes. Reports peak WIPS (step-function client search), speedup
// factors over the baseline, and the version-inconsistency abort rate
// (paper: below 2.5% everywhere).
#include <iostream>

#include "bench_common.hpp"

using namespace dmv;
using namespace dmv::bench;

namespace {

constexpr sim::Time kWarm = 20 * sim::kSec;
constexpr sim::Time kEnd = 100 * sim::kSec;

struct Measured {
  double wips = 0;
  double latency = 0;
  double abort_rate = 0;
};

bool g_batched = false;  // --batched: replication-pipeline ablation

// The step function: one fresh run per client step; the best WIPS wins.
struct Peak {
  size_t clients = 0;
  Measured m;
};
template <class Measure>
Peak find_peak(const std::vector<size_t>& steps, Measure measure) {
  Peak best;
  for (size_t c : steps) {
    const Measured m = measure(c);
    if (best.clients == 0 || m.wips > best.m.wips) best = {c, m};
  }
  return best;
}

Measured measure_dmv(tpcw::Mix mix, int slaves, size_t clients) {
  harness::DmvExperiment::Config cfg;
  cfg.workload = default_workload(mix, clients);
  cfg.slaves = slaves;
  cfg.costs = calibrated_costs();
  apply_batching(cfg, g_batched);
  harness::DmvExperiment exp(cfg);
  exp.start();
  exp.run_until(kEnd);
  exp.stop();
  Measured m;
  m.wips = exp.series().wips(kWarm, kEnd);
  m.latency = exp.series().latency(kWarm, kEnd);
  const uint64_t total = exp.series().total();
  m.abort_rate =
      total ? double(exp.cluster().total_version_aborts()) / double(total)
            : 0;
  return m;
}

Measured measure_disk(tpcw::Mix mix, size_t clients) {
  harness::DiskExperiment::Config cfg;
  cfg.workload = default_workload(mix, clients);
  cfg.engine.costs = calibrated_costs();
  cfg.engine.buffer_frames = baseline_pool_frames();
  harness::DiskExperiment exp(cfg);
  exp.start();
  exp.run_until(kEnd);
  exp.stop();
  Measured m;
  m.wips = exp.series().wips(kWarm, kEnd);
  m.latency = exp.series().latency(kWarm, kEnd);
  return m;
}

// Traced mode (--trace / --span-stats): instead of the full peak sweep,
// run one representative DMV configuration with the tracer enabled and
// export. The trace contains the full request lifecycle: client think,
// scheduler routing, master execution/precommit/broadcast, slave reads
// and lazy pending-mod application.
int run_traced(const BenchOptions& opts) {
  harness::DmvExperiment::Config cfg;
  cfg.workload = default_workload(tpcw::Mix::Shopping, 300);
  cfg.slaves = 2;
  cfg.costs = calibrated_costs();
  apply_batching(cfg, opts.batched);
  cfg.trace = true;
  harness::DmvExperiment exp(cfg);
  exp.start();
  exp.run_until(60 * sim::kSec);
  exp.stop();
  std::cout << "# traced DMV run: shopping mix, 2 slaves, 300 clients, "
            << "60s virtual\n"
            << "# WIPS " << harness::fmt(exp.series().wips(
                                 20 * sim::kSec, 60 * sim::kSec))
            << "\n";
  finish_tracing(exp.tracer(), opts, std::cout);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  const BenchOptions opts = parse_bench_options(argc, argv);
  g_batched = opts.batched;
  if (opts.tracing()) return run_traced(opts);

  std::cout << "# Figure 3 — DMV in-memory tier vs stand-alone InnoDB"
            << (opts.batched ? " (batched replication)" : "") << "\n";
  std::cout << "# peak WIPS via step-function client search; "
            << "warm-up excluded\n";

  const std::vector<tpcw::Mix> mixes = {
      tpcw::Mix::Browsing, tpcw::Mix::Shopping, tpcw::Mix::Ordering};
  const std::vector<int> sizes = {1, 2, 4, 8};
  const std::vector<size_t> disk_steps = {50, 100, 200};
  const std::vector<size_t> dmv_steps = {100, 300, 600, 1200, 2400};

  std::vector<std::vector<std::string>> rows;
  std::vector<std::vector<std::string>> scaling_rows;

  for (tpcw::Mix mix : mixes) {
    const Peak base = find_peak(
        disk_steps, [&](size_t c) { return measure_disk(mix, c); });
    const double base_wips = base.m.wips;
    rows.push_back({tpcw::mix_name(mix), "InnoDB (1 node)",
                    std::to_string(base.clients), harness::fmt(base_wips),
                    "1.0", harness::fmt(base.m.latency * 1000, 0), "-"});

    for (int n : sizes) {
      // Larger tiers saturate at higher client counts; search upward.
      const Peak best = find_peak(
          dmv_steps, [&](size_t c) { return measure_dmv(mix, n, c); });
      rows.push_back(
          {tpcw::mix_name(mix), "DMV " + std::to_string(n) + " slaves",
           std::to_string(best.clients), harness::fmt(best.m.wips),
           harness::fmt(best.m.wips / base_wips),
           harness::fmt(best.m.latency * 1000, 0),
           harness::fmt(best.m.abort_rate * 100, 2) + "%"});
      if (n == 8)
        scaling_rows.push_back(
            {tpcw::mix_name(mix), harness::fmt(base_wips),
             harness::fmt(best.m.wips),
             harness::fmt(best.m.wips / base_wips)});
    }
  }

  harness::print_table(
      std::cout, "Figure 3: peak throughput (WIPS) per configuration",
      {"mix", "config", "clients", "WIPS", "speedup", "lat ms", "aborts"},
      rows);

  harness::print_table(
      std::cout,
      "Headline speedups at 8 slaves (paper: 14.6 browsing, 17.6 "
      "shopping, 6.5 ordering)",
      {"mix", "InnoDB WIPS", "DMV-8 WIPS", "factor"}, scaling_rows);
  return 0;
}
