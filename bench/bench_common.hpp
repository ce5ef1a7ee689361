// Shared configuration for the figure benches: one calibrated cost model
// and one database scale, so every figure runs the same system.
//
// Timeline compression vs the paper (see EXPERIMENTS.md): the database is
// scaled to 1000 items (paper: 100K), client think time is 0.7 s (the
// paper's emulator used the TPC-W browser model on 19 machines), and
// fail-over timelines run minutes instead of half-hours. Ratios and curve
// shapes are the reproduction target, not absolute magnitudes.
#pragma once

#include <chrono>
#include <cstring>
#include <iostream>

#include "harness/experiment.hpp"
#include "harness/report.hpp"
#include "obs/export.hpp"

namespace dmv::bench {

// Wall-clock cost of a simulated run: host seconds per virtual second.
// Every bench JSON reports it so CI can (softly) gate kernel-speed
// regressions alongside the simulated metrics.
class WallTimer {
 public:
  WallTimer() : t0_(std::chrono::steady_clock::now()) {}
  double seconds() const {
    return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                         t0_)
        .count();
  }

 private:
  std::chrono::steady_clock::time_point t0_;
};

inline double host_sec_per_virtual_sec(const WallTimer& t, sim::Time virt) {
  return virt > 0 ? t.seconds() / sim::to_seconds(virt) : 0.0;
}

// Tracing flags shared by the figure benches:
//   --trace <file>   capture a Chrome trace_event JSON of a traced run
//   --span-stats     print the per-span-name latency table after the run
struct BenchOptions {
  std::string trace_path;
  bool span_stats = false;
  // Replication-pipeline ablation: run with write-set batching and
  // cumulative-ack coalescing windows open (see apply_batching).
  bool batched = false;
  bool tracing() const { return !trace_path.empty() || span_stats; }
};

inline BenchOptions parse_bench_options(int argc, char** argv) {
  BenchOptions o;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--trace") == 0 && i + 1 < argc) {
      o.trace_path = argv[++i];
    } else if (std::strcmp(argv[i], "--span-stats") == 0) {
      o.span_stats = true;
    } else if (std::strcmp(argv[i], "--batched") == 0) {
      o.batched = true;
    } else {
      std::cerr << "unknown option: " << argv[i]
                << " (supported: --trace <file>, --span-stats, "
                   "--batched)\n";
      std::exit(2);
    }
  }
  return o;
}

// Reference batching windows for the ablations: up to 8 write-sets or
// 5ms per replica link; replicas ack every 8th write-set (a full window
// acks immediately) or 5ms after the first unacked one. Updates pay at
// most one batch window plus one ack window of extra reply latency
// (locks are already released at local commit); with 700ms think times
// and a read-heavy mix that is invisible, while the replication message
// count per commit collapses.
inline void apply_batching(harness::DmvExperiment::Config& cfg,
                           bool batched) {
  if (!batched) return;
  cfg.node.batch_max_writesets = 8;
  cfg.node.batch_delay = 5 * sim::kMsec;
  cfg.node.ack_every_n = 8;
  cfg.node.ack_delay = 5 * sim::kMsec;
}

// Export whatever the options asked for. Call while the experiment (and
// hence its tracer) is still alive.
inline void finish_tracing(const obs::Tracer& tracer,
                           const BenchOptions& opts, std::ostream& os) {
  if (!opts.trace_path.empty()) {
    if (obs::write_chrome_trace(opts.trace_path, tracer))
      os << "# wrote " << tracer.completed().size() << " spans to "
         << opts.trace_path << "\n";
    else
      os << "# FAILED to write trace to " << opts.trace_path << "\n";
  }
  if (opts.span_stats) obs::print_span_stats(os, tracer);
}

inline txn::CostModel calibrated_costs() {
  txn::CostModel c;
  // In-memory query overhead calibrated so a slave node peaks at a few
  // hundred interactions/s (2007-era LAMP stack in front of the
  // database); write statements are single-row and much cheaper, keeping
  // the master lightly loaded in read-heavy mixes (§6.1).
  c.mem_cpu_read_query = 2 * sim::kMsec;
  c.mem_cpu_write_query = 400;
  return c;
}

inline tpcw::ScaleConfig default_scale() {
  tpcw::ScaleConfig s;
  s.items = 1000;
  return s;
}

inline harness::WorkloadConfig default_workload(tpcw::Mix mix,
                                                size_t clients) {
  harness::WorkloadConfig w;
  w.scale = default_scale();
  w.mix = mix;
  w.clients = clients;
  w.think_mean = 700 * sim::kMsec;
  return w;
}

// On-disk baseline: buffer pool sized so the workload's hot set does not
// quite fit and steady state keeps the disk busy — a 610MB database
// against a few-hundred-MB InnoDB pool. Calibrated so the stand-alone
// baseline peaks at ~100-150 WIPS for the shopping mix.
inline size_t baseline_pool_frames() { return 48; }

}  // namespace dmv::bench
