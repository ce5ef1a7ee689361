// Figure 6 — fail-over stage weights: cleanup (Recovery), data migration
// (DB Update) and buffer-cache warm-up, for the replicated InnoDB tier vs
// DMV. Runs compressed versions of the Figure-5 scenarios and measures
// each stage. Warm-up is measured as the time from the end of data
// migration until interval throughput first returns to 90% of the
// post-recovery steady state.
#include <iostream>

#include "bench_common.hpp"

using namespace dmv;
using namespace dmv::bench;

namespace {

constexpr sim::Time kSync = 3 * 60 * sim::kSec;
constexpr sim::Time kFail = 6 * 60 * sim::kSec;
constexpr sim::Time kEnd = 11 * 60 * sim::kSec;

// First bucket start >= from where throughput reaches `target`.
sim::Time recovery_point(const harness::Series& s, sim::Time from,
                         double target) {
  const auto& tp = s.throughput_series();
  for (const auto& b : tp.buckets()) {
    if (sim::Time(b.start_us) < from) continue;
    if (tp.rate_per_sec(b) >= target)
      return sim::Time(b.start_us) + s.bucket();
  }
  return kEnd;
}

}  // namespace

int main(int argc, char** argv) {
  const BenchOptions opts = parse_bench_options(argc, argv);
  std::cout << "# Figure 6 — fail-over stage breakdown (shopping mix)\n";
  std::cout << "# stage durations derived from dmv_obs fail-over spans\n";
  std::vector<std::vector<std::string>> rows;

  // ---- InnoDB replicated tier ----
  {
    harness::TierExperiment::Config cfg;
    cfg.workload = default_workload(tpcw::Mix::Shopping, 150);
    cfg.tier.engine.costs = calibrated_costs();
    cfg.tier.engine.buffer_frames = baseline_pool_frames();
    cfg.tier.backup_sync_period = kSync;
    // Only the fail-over path is of interest; keep span memory bounded
    // over the 11-virtual-minute run.
    cfg.trace = true;
    cfg.trace_categories = obs::mask_of(obs::Cat::Recovery) |
                           obs::mask_of(obs::Cat::Migration) |
                           obs::mask_of(obs::Cat::Warmup);
    harness::TierExperiment exp(cfg);
    exp.schedule_fault(kFail, [&] { exp.tier().kill_active(1); });
    exp.start();
    exp.run_until(kEnd);
    // DB Update = backlog replay on the promoted backup, as traced.
    const obs::SpanRec* dbu = exp.tracer().find_first("tier.db_update");
    DMV_ASSERT_MSG(dbu, "no tier.db_update span recorded");
    const double steady = exp.series().wips(kEnd - 2 * 60 * sim::kSec, kEnd);
    const sim::Time rec = recovery_point(exp.series(), dbu->end,
                                         steady * 0.9);
    exp.stop();
    rows.push_back(
        {"InnoDB tier", "0.0 (no master role)",
         harness::fmt(sim::to_seconds(dbu->duration())) + " (paper: ~94)",
         harness::fmt(sim::to_seconds(rec - dbu->end))});
  }

  // ---- DMV ----
  {
    harness::DmvExperiment::Config cfg;
    cfg.workload = default_workload(tpcw::Mix::Shopping, 700);
    cfg.workload.scale.items = 8000;
    cfg.slaves = 2;
    cfg.spares = 1;
    cfg.costs = calibrated_costs();
    cfg.costs.mem_page_fault = 8 * sim::kMsec;
    cfg.node.checkpoint_period = 60 * sim::kSec;
    cfg.trace = true;
    cfg.trace_categories = obs::mask_of(obs::Cat::Recovery) |
                           obs::mask_of(obs::Cat::Migration) |
                           obs::mask_of(obs::Cat::Warmup);
    harness::DmvExperiment exp(cfg);
    const net::NodeId backup = exp.cluster().spare_id(0);
    const net::NodeId master = exp.cluster().master_id();
    exp.schedule_fault(kSync, [&] { exp.cluster().kill_node(backup); });
    exp.schedule_fault(kFail, [&] { exp.cluster().kill_node(master); });
    exp.schedule_fault(kFail + 5 * sim::kSec,
                       [&] { exp.cluster().restart_and_rejoin(backup); });
    exp.start();
    exp.run_until(kEnd);
    // Recovery = the scheduler's master fail-over span (discard above the
    // recovery version vector + promote a slave). DB Update = the page
    // transfer of the rejoining node; find_last skips any start-of-run
    // join and picks the post-failure rejoin.
    const obs::SpanRec* recov = exp.tracer().find_first("failover.recovery");
    const obs::SpanRec* pages = exp.tracer().find_last("join.pages");
    DMV_ASSERT_MSG(recov, "no failover.recovery span recorded");
    DMV_ASSERT_MSG(pages, "no join.pages span recorded");
    const double steady = exp.series().wips(kEnd - 2 * 60 * sim::kSec, kEnd);
    const sim::Time rec = recovery_point(exp.series(), pages->end,
                                         steady * 0.9);
    exp.stop();
    rows.push_back(
        {"DMV tier",
         harness::fmt(sim::to_seconds(recov->duration()), 2) +
             " (paper: ~6)",
         harness::fmt(sim::to_seconds(pages->duration()), 2) +
             " (page transfer, paper: seconds)",
         harness::fmt(sim::to_seconds(rec - pages->end))});
    finish_tracing(exp.tracer(), opts, std::cout);
  }

  harness::print_table(
      std::cout,
      "Fail-over stage durations in seconds (paper Figure 6 shape: "
      "InnoDB dominated by DB Update; DMV dominated by Cache Warmup)",
      {"system", "Recovery s", "DB Update s", "Cache Warmup s"}, rows);
  return 0;
}
