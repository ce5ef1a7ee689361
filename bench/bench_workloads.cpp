// Workload diversity bench.
//
// Runs the four workload families (src/workload/) — tpcw (shopping mix),
// ycsb (zipfian KV), orders (write-heavy order entry), scan (reporting,
// long snapshot pins) — against the same cluster (8 slaves, calibrated
// costs), and reports per workload the simulated metrics (WIPS, mean and
// p99 latency, client errors, kernel events processed) plus
// host_sec_per_virtual_sec, the simulator's end-to-end host cost.
//
// Results go to BENCH_workloads.json (CI perf artifact). With
// --baseline FILE the bench compares each workload's
// host_sec_per_virtual_sec against a previous run's JSON and exits 3
// (soft gate: CI marks the step continue-on-error) when any regresses
// by more than 20%.
//
//   bench_workloads [--quick] [--out FILE] [--baseline FILE]
//                   [--workload tpcw|ycsb|orders|scan]
#include <cstring>
#include <fstream>
#include <iostream>
#include <sstream>

#include "bench_common.hpp"

using namespace dmv;
using namespace dmv::bench;

namespace {

struct WlRun {
  double wips = 0;
  double lat_ms = 0;
  double p99_ms = 0;
  uint64_t errors = 0;
  uint64_t events = 0;  // kernel events processed
  double spv = 0;       // host sec / virtual sec
};

WlRun run_workload(workload::Kind kind, size_t clients, sim::Time end) {
  harness::DmvExperiment::Config cfg;
  cfg.workload = default_workload(tpcw::Mix::Shopping, clients);
  cfg.workload.kind = kind;
  cfg.workload.bucket = 5 * sim::kSec;
  cfg.slaves = 8;
  cfg.costs = calibrated_costs();
  WallTimer wall;
  harness::DmvExperiment exp(cfg);
  exp.start();
  exp.run_until(end);
  exp.stop();
  WlRun r;
  r.spv = host_sec_per_virtual_sec(wall, exp.sim().now());
  const sim::Time warm = 10 * sim::kSec;
  r.wips = exp.series().wips(warm, end);
  r.lat_ms = exp.series().latency(warm, end) * 1000;
  r.p99_ms = exp.series().latency_p99(warm, end) * 1000;
  r.errors = exp.series().errors();
  r.events = exp.sim().events_processed();
  return r;
}

// Minimal baseline probe: find `"<wl>"` then the first
// `"host_sec_per_virtual_sec": <num>` after it.
double baseline_spv(const std::string& json, const std::string& wl) {
  const size_t at = json.find("\"" + wl + "\"");
  if (at == std::string::npos) return -1;
  const std::string key = "\"host_sec_per_virtual_sec\":";
  const size_t k = json.find(key, at);
  if (k == std::string::npos) return -1;
  return std::atof(json.c_str() + k + key.size());
}

void emit(std::ostream& os, const char* key, const WlRun& r, bool last) {
  os << "  \"" << key << "\": {\n"
     << "    \"wips\": " << r.wips << ",\n"
     << "    \"latency_ms\": " << r.lat_ms << ",\n"
     << "    \"latency_p99_ms\": " << r.p99_ms << ",\n"
     << "    \"client_errors\": " << r.errors << ",\n"
     << "    \"events_processed\": " << r.events << ",\n"
     << "    \"host_sec_per_virtual_sec\": " << r.spv << "\n"
     << "  }" << (last ? "\n" : ",\n");
}

}  // namespace

int main(int argc, char** argv) {
  bool quick = false;
  std::string out_path = "BENCH_workloads.json";
  std::string baseline_path;
  std::string only;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--quick") == 0) {
      quick = true;
    } else if (std::strcmp(argv[i], "--out") == 0 && i + 1 < argc) {
      out_path = argv[++i];
    } else if (std::strcmp(argv[i], "--baseline") == 0 && i + 1 < argc) {
      baseline_path = argv[++i];
    } else if (std::strcmp(argv[i], "--workload") == 0 && i + 1 < argc) {
      only = argv[++i];
    } else {
      std::cerr << "usage: bench_workloads [--quick] [--out FILE] "
                   "[--baseline FILE] [--workload NAME]\n";
      return 2;
    }
  }
  const size_t clients = quick ? 400 : 1200;
  const sim::Time end = (quick ? 30 : 60) * sim::kSec;

  const std::vector<workload::Kind> kinds = {
      workload::Kind::Tpcw, workload::Kind::Ycsb, workload::Kind::Orders,
      workload::Kind::Scan};

  std::cout << "# bench_workloads — 8 slaves, " << clients << " clients, "
            << end / sim::kSec << "s virtual, four workload families\n";

  std::vector<std::pair<std::string, WlRun>> runs;
  for (workload::Kind k : kinds) {
    const std::string name = workload::kind_name(k);
    if (!only.empty() && name != only) continue;
    WlRun r = run_workload(k, clients, end);
    std::cout << "  " << name << ": wips=" << harness::fmt(r.wips)
              << " lat=" << harness::fmt(r.lat_ms, 1) << "ms p99="
              << harness::fmt(r.p99_ms, 1) << "ms spv="
              << harness::fmt(r.spv, 4) << "\n";
    runs.emplace_back(name, r);
  }
  if (runs.empty()) {
    std::cerr << "unknown --workload '" << only << "'\n";
    return 2;
  }

  std::ofstream os(out_path);
  os << "{\n"
     << "  \"bench\": \"bench_workloads\",\n"
     << "  \"config\": {\"slaves\": 8, \"clients\": " << clients
     << ", \"virtual_seconds\": " << end / sim::kSec << "},\n";
  for (size_t i = 0; i < runs.size(); ++i)
    emit(os, runs[i].first.c_str(), runs[i].second, i + 1 == runs.size());
  os << "}\n";
  std::cout << "# wrote " << out_path << "\n";

  // Soft gate: warn (exit 3) when any workload's host cost regressed >20%
  // against the provided baseline JSON.
  if (!baseline_path.empty()) {
    std::ifstream bf(baseline_path);
    if (!bf) {
      std::cout << "# no baseline at " << baseline_path
                << " — skipping the regression gate\n";
      return 0;
    }
    std::stringstream ss;
    ss << bf.rdbuf();
    const std::string json = ss.str();
    bool regressed = false;
    for (const auto& [name, r] : runs) {
      const double base = baseline_spv(json, name);
      if (base <= 0) continue;
      const double delta = 100.0 * (r.spv / base - 1.0);
      std::cout << "# " << name << ": host_sec_per_virtual_sec "
                << harness::fmt(r.spv, 4) << " vs baseline "
                << harness::fmt(base, 4) << " ("
                << harness::fmt(delta, 1) << "%)\n";
      if (r.spv > 1.2 * base) regressed = true;
    }
    if (regressed) {
      std::cout << "# SOFT GATE: host cost regressed >20% on at "
                   "least one workload\n";
      return 3;
    }
  }
  return 0;
}
