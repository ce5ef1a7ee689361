// Geo-replication macro bench: quorum commit vs all-ack over a WAN.
//
// Two-region deployment (half the slaves behind a 20ms cross-region
// link), ordering mix so commits dominate the latency signal. The same
// workload runs twice: all-ack (the client reply gates on every
// replica's cumulative ack, so every update pays the WAN round trip)
// and quorum commit (reply once the local majority acked; the remote
// region catches up lazily over the batched ack stream). Reports WIPS,
// latency and the replication message/byte counters per committed
// update, split out for the cross-region link class. Results go to
// BENCH_geo.json (CI perf artifact).
//
//   bench_geo [--quick] [--out FILE]
#include <cstring>
#include <fstream>
#include <iostream>

#include "bench_common.hpp"

using namespace dmv;
using namespace dmv::bench;

namespace {

constexpr sim::Time kCrossBase = 20 * sim::kMsec;

struct Run {
  double wips = 0;
  double lat_ms = 0;
  uint64_t update_commits = 0;
  uint64_t ws_messages = 0;     // WriteSetMsg + WriteSetBatchMsg
  uint64_t ws_bytes = 0;
  uint64_t ack_messages = 0;    // CumAckMsg
  uint64_t batch_messages = 0;  // WriteSetBatchMsg only
  uint64_t wan_messages = 0;    // replication traffic on Cross links
  uint64_t wan_bytes = 0;
  double msgs_per_commit = 0;   // (ws + ack) / update commits
  double bytes_per_commit = 0;  // ws bytes / update commits
  double host_spv = 0;          // host sec / virtual sec for the run
};

Run run(bool quorum, size_t clients, sim::Time end) {
  harness::DmvExperiment::Config cfg;
  cfg.workload = default_workload(tpcw::Mix::Ordering, clients);
  cfg.workload.bucket = 5 * sim::kSec;
  cfg.slaves = 4;  // two per region
  cfg.regions = 2;
  cfg.node.quorum_commit = quorum;
  cfg.cross.base_latency = kCrossBase;
  cfg.costs = calibrated_costs();
  apply_batching(cfg, true);  // lazy catch-up rides the batched stream
  WallTimer wall;
  harness::DmvExperiment exp(cfg);
  exp.start();
  exp.run_until(end);
  exp.stop();

  const sim::Time warm = 10 * sim::kSec;
  Run r;
  r.host_spv = host_sec_per_virtual_sec(wall, exp.sim().now());
  r.wips = exp.series().wips(warm, end);
  r.lat_ms = exp.series().latency(warm, end) * 1000;
  r.update_commits = exp.cluster().total_update_commits();
  const auto& net = exp.cluster().net();
  const auto ws = net.stats_of<core::WriteSetMsg>();
  const auto wsb = net.stats_of<core::WriteSetBatchMsg>();
  const auto ack = net.stats_of<core::CumAckMsg>();
  r.ws_messages = ws.messages + wsb.messages;
  r.ws_bytes = ws.bytes + wsb.bytes;
  r.ack_messages = ack.messages;
  r.batch_messages = wsb.messages;
  for (auto cls : {net::LinkClass::Cross}) {
    const auto cws = net.stats_of<core::WriteSetMsg>(cls);
    const auto cwsb = net.stats_of<core::WriteSetBatchMsg>(cls);
    const auto cack = net.stats_of<core::CumAckMsg>(cls);
    r.wan_messages += cws.messages + cwsb.messages + cack.messages;
    r.wan_bytes += cws.bytes + cwsb.bytes + cack.bytes;
  }
  const double commits = double(std::max<uint64_t>(1, r.update_commits));
  r.msgs_per_commit = double(r.ws_messages + r.ack_messages) / commits;
  r.bytes_per_commit = double(r.ws_bytes) / commits;
  return r;
}

void emit(std::ostream& os, const char* key, const Run& r, bool last) {
  os << "  \"" << key << "\": {\n"
     << "    \"wips\": " << r.wips << ",\n"
     << "    \"latency_ms\": " << r.lat_ms << ",\n"
     << "    \"update_commits\": " << r.update_commits << ",\n"
     << "    \"writeset_messages\": " << r.ws_messages << ",\n"
     << "    \"writeset_batches\": " << r.batch_messages << ",\n"
     << "    \"writeset_bytes\": " << r.ws_bytes << ",\n"
     << "    \"ack_messages\": " << r.ack_messages << ",\n"
     << "    \"wan_messages\": " << r.wan_messages << ",\n"
     << "    \"wan_bytes\": " << r.wan_bytes << ",\n"
     << "    \"messages_per_commit\": " << r.msgs_per_commit << ",\n"
     << "    \"bytes_per_commit\": " << r.bytes_per_commit << ",\n"
     << "    \"host_sec_per_virtual_sec\": " << r.host_spv << "\n"
     << "  }" << (last ? "\n" : ",\n");
}

}  // namespace

int main(int argc, char** argv) {
  bool quick = false;
  std::string out_path = "BENCH_geo.json";
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--quick") == 0) {
      quick = true;
    } else if (std::strcmp(argv[i], "--out") == 0 && i + 1 < argc) {
      out_path = argv[++i];
    } else {
      std::cerr << "usage: bench_geo [--quick] [--out FILE]\n";
      return 2;
    }
  }
  const size_t clients = quick ? 300 : 800;
  const sim::Time end = (quick ? 30 : 60) * sim::kSec;

  std::cout << "# bench_geo — ordering mix, 2 regions x 2 slaves, "
            << clients << " clients, " << end / sim::kSec
            << "s virtual, cross-region RTT "
            << 2 * kCrossBase / sim::kMsec << "ms\n";
  const Run all_ack = run(false, clients, end);
  const Run quorum = run(true, clients, end);

  const double lat_drop_ms = all_ack.lat_ms - quorum.lat_ms;
  const double wips_delta_pct =
      100.0 * (quorum.wips / all_ack.wips - 1.0);

  auto row = [](const char* name, const Run& r) {
    return std::vector<std::string>{
        name, harness::fmt(r.wips), harness::fmt(r.lat_ms, 1),
        std::to_string(r.update_commits),
        harness::fmt(r.msgs_per_commit, 2),
        harness::fmt(r.wan_bytes / 1024.0, 1)};
  };
  harness::print_table(
      std::cout, "Geo replication (2 regions, per committed update)",
      {"mode", "WIPS", "lat ms", "commits", "msgs/commit", "WAN KB"},
      {row("all-ack", all_ack), row("quorum", quorum)});
  std::cout << "\nlatency drop with quorum commit: "
            << harness::fmt(lat_drop_ms, 1)
            << "ms (target: roughly the WAN round trip on updates), "
            << "WIPS delta: " << harness::fmt(wips_delta_pct, 2) << "%\n";

  std::ofstream os(out_path);
  os << "{\n"
     << "  \"bench\": \"bench_geo\",\n"
     << "  \"config\": {\"regions\": 2, \"slaves\": 4, "
     << "\"mix\": \"ordering\", \"clients\": " << clients
     << ", \"virtual_seconds\": " << end / sim::kSec
     << ", \"cross_rtt_ms\": " << 2 * kCrossBase / sim::kMsec << "},\n";
  emit(os, "all_ack", all_ack, false);
  emit(os, "quorum", quorum, false);
  os << "  \"latency_drop_ms\": " << lat_drop_ms << ",\n"
     << "  \"wips_delta_pct\": " << wips_delta_pct << "\n"
     << "}\n";
  std::cout << "# wrote " << out_path << "\n";
  return 0;
}
