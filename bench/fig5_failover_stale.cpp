// Figure 5 — fail-over onto a stale backup: replicated InnoDB tier (a,b)
// vs the DMV in-memory tier (c,d).
//
// Baseline: two active on-disk nodes kept consistent by a conflict-aware
// scheduler, plus one passive backup refreshed every sync period. One
// active is killed; the tier replays the backup's backlog at disk speed
// (the "DB Update" phase), then the promoted backup warms its pool under
// traffic — service runs at half capacity for minutes.
//
// DMV: master + two active slaves + one stale backup (a node that crashed
// earlier and missed the stream). The *master* is killed — the worst case,
// which adds the §4.2 cleanup — and the stale node reintegrates via page
// transfer instead of log replay.
#include <iostream>

#include "bench_common.hpp"

using namespace dmv;
using namespace dmv::bench;

namespace {
// Compressed timeline: the paper's 30-minute staleness and kill point
// become 10 minutes (same disk-speed replay dynamics, smaller backlog).
constexpr sim::Time kSync = 5 * 60 * sim::kSec;
constexpr sim::Time kFail = 10 * 60 * sim::kSec;
constexpr sim::Time kEnd = 16 * 60 * sim::kSec;
}  // namespace

int main() {
  std::cout << "# Figure 5 — fail-over onto a stale backup\n";

  // ---- (a,b): replicated InnoDB tier ----
  {
    harness::TierExperiment::Config cfg;
    cfg.workload = default_workload(tpcw::Mix::Shopping, 150);
    cfg.tier.engine.costs = calibrated_costs();
    cfg.tier.engine.buffer_frames = baseline_pool_frames();
    cfg.tier.backup_sync_period = kSync;
    harness::TierExperiment exp(cfg);
    exp.schedule_fault(kFail, [&] { exp.tier().kill_active(1); });
    exp.start();
    exp.run_until(kEnd);
    const double before = exp.series().wips(2 * 60 * sim::kSec, kFail);
    const auto& fo = exp.tier().failover();
    exp.stop();

    harness::print_timeline(
        std::cout,
        "(a,b) InnoDB replicated tier: kill one of two actives",
        exp.series(), 0, kEnd,
        {{kFail, "active node killed"},
         {fo.db_update_done, "backlog replayed; backup promoted"}});
    harness::print_table(
        std::cout, "InnoDB tier fail-over",
        {"metric", "value"},
        {{"steady WIPS before", harness::fmt(before)},
         {"backlog transactions", std::to_string(fo.backlog_txns)},
         {"DB update (log replay)",
          harness::fmt(sim::to_seconds(fo.db_update_duration())) +
              " s (paper: ~94 s)"},
         {"total service degradation",
          "see timeline (paper: ~3 min at half capacity)"}});
  }

  // ---- (c,d): DMV in-memory tier ----
  {
    harness::DmvExperiment::Config cfg;
    cfg.workload = default_workload(tpcw::Mix::Shopping, 700);
    cfg.workload.scale.items = 8000;
    cfg.slaves = 2;
    cfg.spares = 1;
    cfg.costs = calibrated_costs();
    cfg.costs.mem_page_fault = 8 * sim::kMsec;
    cfg.node.checkpoint_period = 60 * sim::kSec;
    harness::DmvExperiment exp(cfg);

    const net::NodeId backup = exp.cluster().spare_id(0);
    const net::NodeId master = exp.cluster().master_id();
    // Make the backup stale: crash it early; it misses kFail-kSync worth
    // of updates and will reintegrate from its local checkpoint.
    exp.schedule_fault(kSync, [&] { exp.cluster().kill_node(backup); });
    // Kill the master: worst case (recovery + migration + warm-up). The
    // stale backup comes back a few seconds later and reintegrates.
    exp.schedule_fault(kFail, [&] { exp.cluster().kill_node(master); });
    exp.schedule_fault(kFail + 5 * sim::kSec,
                       [&] { exp.cluster().restart_and_rejoin(backup); });
    exp.start();
    exp.run_until(kEnd);

    const double before = exp.series().wips(2 * 60 * sim::kSec, kFail);
    const auto& sched = exp.cluster().scheduler().stats();
    const auto& joiner = exp.cluster().node(backup).stats();
    exp.stop();

    harness::print_timeline(
        std::cout, "(c,d) DMV tier: kill the master, stale backup rejoins",
        exp.series(), 8 * 60 * sim::kSec, kEnd,
        {{kFail, "master killed"},
         {joiner.join_pages_done, "page transfer done; cache warming"}});
    harness::print_table(
        std::cout, "DMV fail-over",
        {"metric", "value"},
        {{"steady WIPS before", harness::fmt(before)},
         {"cleanup+election (Recovery)",
          harness::fmt(sim::to_seconds(sched.master_recovery_end -
                                       sched.master_recovery_start),
                       3) +
              " s (paper: ~6 s)"},
         {"page transfer (DB Update)",
          harness::fmt(
              sim::to_seconds(joiner.join_pages_done - joiner.join_started),
              2) +
              " s"},
         {"pages installed",
          std::to_string(exp.cluster()
                             .node(backup)
                             .engine()
                             .stats()
                             .pages_installed)},
         {"total fail-over", "see timeline (paper: ~70 s, under a third "
                             "of the InnoDB tier)"}});
  }
  return 0;
}
