// Multi-master write scaling (§2.1 conflict classes): partition the
// workload into N conflict classes — N side-by-side TPC-W stores, one
// update master each (see workload/sharding.hpp for why stock TPC-W cannot
// be split finer) — and measure WIPS on the write-heavy ordering mix as
// N grows. With one class every update funnels through a single master
// and the write path saturates one node; each extra conflict class adds
// an independent update master, so aggregate WIPS should scale with N
// until the shared read tier or the client population becomes the
// limit. Reported per point: WIPS, latency, aggregate update commits,
// and the per-class breakdown (updates routed / scheduler commits /
// master engine commits) so an idle or overloaded class is visible.
// Results go to BENCH_multimaster.json (CI perf artifact).
//
//   bench_multimaster [--quick] [--out FILE] [--skew THETA]
#include <cstring>
#include <fstream>
#include <iostream>

#include "bench_common.hpp"

using namespace dmv;
using namespace dmv::bench;

namespace {

struct ClassRow {
  uint64_t routed = 0;          // scheduler routed updates
  uint64_t sched_commits = 0;   // scheduler-observed commits
  uint64_t master_commits = 0;  // the class master's engine counter
};

struct Run {
  size_t classes = 0;
  double wips = 0;
  double lat_ms = 0;
  uint64_t update_commits = 0;
  double host_spv = 0;  // host sec / virtual sec for the run
  std::vector<ClassRow> per_class;
};

Run run(size_t classes, size_t clients, sim::Time end, double skew) {
  WallTimer wall;
  harness::DmvExperiment::Config cfg;
  cfg.workload = default_workload(tpcw::Mix::Ordering, clients);
  cfg.workload.bucket = 5 * sim::kSec;
  cfg.workload.classes = classes;
  cfg.workload.class_skew = skew;
  cfg.slaves = 8;
  cfg.costs = calibrated_costs();
  harness::DmvExperiment exp(cfg);
  exp.start();
  exp.run_until(end);
  exp.stop();

  const sim::Time warm = 10 * sim::kSec;
  Run r;
  r.host_spv = host_sec_per_virtual_sec(wall, exp.sim().now());
  r.classes = classes;
  r.wips = exp.series().wips(warm, end);
  r.lat_ms = exp.series().latency(warm, end) * 1000;
  r.update_commits = exp.cluster().total_update_commits();
  core::Scheduler& sched = exp.cluster().scheduler();
  for (size_t c = 0; c < sched.class_count(); ++c) {
    const core::Scheduler::ClassState& cs = sched.class_state(c);
    ClassRow row;
    row.routed = cs.updates_routed;
    row.sched_commits = cs.commits;
    row.master_commits =
        exp.cluster().master(c).engine().stats().update_commits;
    r.per_class.push_back(row);
  }
  return r;
}

void emit_point(std::ostream& os, const Run& r, double scaling, bool last) {
  os << "    {\"classes\": " << r.classes << ", \"wips\": " << r.wips
     << ", \"latency_ms\": " << r.lat_ms
     << ", \"update_commits\": " << r.update_commits
     << ", \"host_sec_per_virtual_sec\": " << r.host_spv
     << ", \"wips_vs_1_class\": " << scaling << ", \"per_class\": [";
  for (size_t c = 0; c < r.per_class.size(); ++c) {
    const ClassRow& row = r.per_class[c];
    os << (c ? ", " : "") << "{\"class\": " << c
       << ", \"updates_routed\": " << row.routed
       << ", \"sched_commits\": " << row.sched_commits
       << ", \"master_commits\": " << row.master_commits << "}";
  }
  os << "]}" << (last ? "\n" : ",\n");
}

}  // namespace

int main(int argc, char** argv) {
  bool quick = false;
  double skew = 0;
  std::string out_path = "BENCH_multimaster.json";
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--quick") == 0) {
      quick = true;
    } else if (std::strcmp(argv[i], "--out") == 0 && i + 1 < argc) {
      out_path = argv[++i];
    } else if (std::strcmp(argv[i], "--skew") == 0 && i + 1 < argc) {
      skew = std::atof(argv[++i]);
    } else {
      std::cerr << "usage: bench_multimaster [--quick] [--out FILE] "
                   "[--skew THETA]\n";
      return 2;
    }
  }
  const std::vector<size_t> class_counts =
      quick ? std::vector<size_t>{1, 2, 4} : std::vector<size_t>{1, 2, 4, 8};
  // The client population must be the cap only at the top of the curve:
  // closed-loop WIPS tops out near clients / think_mean, so size the
  // population well above what a single update master can commit.
  const size_t clients = quick ? 1600 : 3200;
  const sim::Time end = (quick ? 40 : 80) * sim::kSec;

  std::cout << "# bench_multimaster — ordering mix, 8 slaves, " << clients
            << " clients, " << end / sim::kSec << "s virtual, skew=" << skew
            << "\n";

  std::vector<Run> runs;
  for (size_t n : class_counts) runs.push_back(run(n, clients, end, skew));

  const double base_wips = runs[0].wips > 0 ? runs[0].wips : 1;
  std::vector<std::vector<std::string>> rows;
  for (const Run& r : runs) {
    uint64_t min_c = UINT64_MAX, max_c = 0;
    for (const ClassRow& row : r.per_class) {
      min_c = std::min(min_c, row.master_commits);
      max_c = std::max(max_c, row.master_commits);
    }
    rows.push_back({std::to_string(r.classes), harness::fmt(r.wips),
                    harness::fmt(r.lat_ms, 1),
                    std::to_string(r.update_commits),
                    harness::fmt(r.wips / base_wips, 2) + "x",
                    std::to_string(min_c) + "/" + std::to_string(max_c)});
  }
  harness::print_table(
      std::cout, "Write scaling vs conflict-class count",
      {"classes", "WIPS", "lat ms", "upd commits", "vs 1", "class min/max"},
      rows);
  std::cout << "\nWIPS at " << runs.back().classes
            << " classes = " << harness::fmt(runs.back().wips / base_wips, 2)
            << "x the single-master point.\n";

  std::ofstream os(out_path);
  os << "{\n"
     << "  \"bench\": \"bench_multimaster\",\n"
     << "  \"config\": {\"slaves\": 8, \"mix\": \"ordering\", \"clients\": "
     << clients << ", \"virtual_seconds\": " << end / sim::kSec
     << ", \"class_skew\": " << skew << "},\n"
     << "  \"points\": [\n";
  for (size_t i = 0; i < runs.size(); ++i)
    emit_point(os, runs[i], runs[i].wips / base_wips, i + 1 == runs.size());
  os << "  ],\n"
     << "  \"wips_scaling_max\": " << runs.back().wips / base_wips << "\n"
     << "}\n";
  std::cout << "# wrote " << out_path << "\n";
  return 0;
}
