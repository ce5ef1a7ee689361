// Elastic-scaling macro bench: SLO-driven fleet resizing vs a fixed fleet
// under a flash crowd.
//
// A small cluster (one slave) serves a base shopping-mix population; at a
// fixed point a flash crowd multiplies the client count, holds, and
// leaves again. The same workload runs twice: with the fleet frozen at
// its initial size, and with the SloController watching the schedulers'
// admission signals and resizing the read tier (Cluster::add_slave — the
// §4.4 join under live load — and drain-then-kill retirement once the
// crowd leaves). Reports WIPS and p99 latency per phase (pre-crowd,
// crowd, post-crowd) plus the controller's actions. The crowd-window
// numbers are the headline: the fixed fleet saturates (p99 explodes,
// WIPS caps at one node's peak) while the controller recovers within a
// few scale-out cooldowns. Results go to BENCH_elastic.json (CI perf
// artifact).
//
//   bench_elastic [--quick] [--out FILE]
#include <cstring>
#include <fstream>
#include <iostream>
#include <memory>

#include "bench_common.hpp"
#include "ctrl/slo_controller.hpp"

using namespace dmv;
using namespace dmv::bench;

namespace {

struct Timeline {
  size_t base_clients;
  size_t extra_clients;
  sim::Time crowd_at;
  sim::Time crowd_hold;  // crowd leaves at crowd_at + crowd_hold
  sim::Time end;
};

struct Run {
  double wips_pre = 0, wips_crowd = 0, wips_post = 0;
  double p99_pre_ms = 0, p99_crowd_ms = 0, p99_post_ms = 0;
  uint64_t errors = 0;
  uint64_t scale_outs = 0, scale_ins = 0;
  double first_scale_out_s = -1;
  size_t slaves_final = 0;
  double host_spv = 0;  // host sec / virtual sec for the run
};

Run run(bool elastic, const Timeline& tl) {
  WallTimer wall;
  harness::DmvExperiment::Config cfg;
  cfg.workload = default_workload(tpcw::Mix::Shopping, tl.base_clients);
  cfg.workload.bucket = 5 * sim::kSec;
  cfg.slaves = 1;
  cfg.spares = 0;
  cfg.costs = calibrated_costs();
  harness::DmvExperiment exp(cfg);

  std::unique_ptr<ctrl::SloController> slo;
  if (elastic) {
    slo = std::make_unique<ctrl::SloController>(exp.sim(), exp.cluster(),
                                                /*max_slaves=*/6);
    slo->start();
  }

  exp.start();
  exp.schedule_flash_crowd(tl.crowd_at, tl.extra_clients, tl.crowd_hold);
  exp.run_until(tl.end);
  // Freeze the fleet before the drain: the controller must not mistake
  // the emptying client population for idleness worth reacting to.
  if (slo) slo->stop();
  Run r;
  r.slaves_final = exp.cluster().live_slave_count();
  exp.stop();
  r.host_spv = host_sec_per_virtual_sec(wall, exp.sim().now());

  const sim::Time leave = tl.crowd_at + tl.crowd_hold;
  const harness::Series& s = exp.series();
  r.wips_pre = s.wips(10 * sim::kSec, tl.crowd_at);
  r.wips_crowd = s.wips(tl.crowd_at, leave);
  r.wips_post = s.wips(leave + 5 * sim::kSec, tl.end);
  r.p99_pre_ms = s.latency_p99(10 * sim::kSec, tl.crowd_at) * 1000;
  r.p99_crowd_ms = s.latency_p99(tl.crowd_at, leave) * 1000;
  r.p99_post_ms = s.latency_p99(leave + 5 * sim::kSec, tl.end) * 1000;
  r.errors = s.errors();
  if (slo) {
    r.scale_outs = slo->stats().scale_outs;
    r.scale_ins = slo->stats().scale_ins;
    if (slo->stats().first_scale_out >= 0)
      r.first_scale_out_s =
          sim::to_seconds(slo->stats().first_scale_out);
  }
  return r;
}

void emit(std::ostream& os, const char* key, const Run& r, bool last) {
  os << "  \"" << key << "\": {\n"
     << "    \"wips_pre\": " << r.wips_pre << ",\n"
     << "    \"wips_crowd\": " << r.wips_crowd << ",\n"
     << "    \"wips_post\": " << r.wips_post << ",\n"
     << "    \"p99_pre_ms\": " << r.p99_pre_ms << ",\n"
     << "    \"p99_crowd_ms\": " << r.p99_crowd_ms << ",\n"
     << "    \"p99_post_ms\": " << r.p99_post_ms << ",\n"
     << "    \"errors\": " << r.errors << ",\n"
     << "    \"scale_outs\": " << r.scale_outs << ",\n"
     << "    \"scale_ins\": " << r.scale_ins << ",\n"
     << "    \"first_scale_out_s\": " << r.first_scale_out_s << ",\n"
     << "    \"slaves_final\": " << r.slaves_final << ",\n"
     << "    \"host_sec_per_virtual_sec\": " << r.host_spv << "\n"
     << "  }" << (last ? "\n" : ",\n");
}

}  // namespace

int main(int argc, char** argv) {
  bool quick = false;
  std::string out_path = "BENCH_elastic.json";
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--quick") == 0) {
      quick = true;
    } else if (std::strcmp(argv[i], "--out") == 0 && i + 1 < argc) {
      out_path = argv[++i];
    } else {
      std::cerr << "usage: bench_elastic [--quick] [--out FILE]\n";
      return 2;
    }
  }

  Timeline tl;
  if (quick) {
    tl = {60, 250, 15 * sim::kSec, 30 * sim::kSec, 70 * sim::kSec};
  } else {
    // The tail past the crowd's exit (60s..140s) leaves room for every
    // controller-added node to drain out: an idle streak plus a cooldown per
    // scale-in step.
    tl = {100, 400, 20 * sim::kSec, 40 * sim::kSec, 140 * sim::kSec};
  }

  std::cout << "# bench_elastic — shopping mix, 1 slave baseline, "
            << tl.base_clients << " clients + " << tl.extra_clients
            << "-client flash crowd at " << tl.crowd_at / sim::kSec
            << "s (holds " << tl.crowd_hold / sim::kSec << "s), "
            << tl.end / sim::kSec << "s virtual\n";
  const Run fixed = run(false, tl);
  const Run ctrl = run(true, tl);

  const double crowd_wips_gain_pct =
      fixed.wips_crowd > 0
          ? 100.0 * (ctrl.wips_crowd / fixed.wips_crowd - 1.0)
          : 0.0;
  const double crowd_p99_drop_ms = fixed.p99_crowd_ms - ctrl.p99_crowd_ms;

  auto row = [](const char* name, const Run& r) {
    return std::vector<std::string>{
        name,
        harness::fmt(r.wips_pre),
        harness::fmt(r.wips_crowd),
        harness::fmt(r.wips_post),
        harness::fmt(r.p99_crowd_ms, 1),
        std::to_string(r.scale_outs) + "/" + std::to_string(r.scale_ins),
        std::to_string(r.slaves_final)};
  };
  harness::print_table(
      std::cout, "Flash crowd: fixed fleet vs SLO controller",
      {"mode", "WIPS pre", "WIPS crowd", "WIPS post", "p99 crowd ms",
       "out/in", "slaves@end"},
      {row("fixed", fixed), row("controller", ctrl)});
  std::cout << "\ncrowd-window WIPS gain with the controller: "
            << harness::fmt(crowd_wips_gain_pct, 1)
            << "%, p99 drop: " << harness::fmt(crowd_p99_drop_ms, 1)
            << "ms (first scale-out at "
            << harness::fmt(ctrl.first_scale_out_s, 1) << "s)\n";

  std::ofstream os(out_path);
  os << "{\n"
     << "  \"bench\": \"bench_elastic\",\n"
     << "  \"config\": {\"mix\": \"shopping\", \"base_slaves\": 1, "
     << "\"base_clients\": " << tl.base_clients
     << ", \"crowd_clients\": " << tl.extra_clients
     << ", \"crowd_at_s\": " << tl.crowd_at / sim::kSec
     << ", \"crowd_hold_s\": " << tl.crowd_hold / sim::kSec
     << ", \"virtual_seconds\": " << tl.end / sim::kSec << "},\n";
  emit(os, "fixed", fixed, false);
  emit(os, "controller", ctrl, false);
  os << "  \"crowd_wips_gain_pct\": " << crowd_wips_gain_pct << ",\n"
     << "  \"crowd_p99_drop_ms\": " << crowd_p99_drop_ms << "\n"
     << "}\n";
  std::cout << "# wrote " << out_path << "\n";
  return 0;
}
