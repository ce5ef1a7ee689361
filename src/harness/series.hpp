// Measurement collection for experiments: throughput and latency over
// fixed windows (the paper reports 20-second intervals), plus steady-state
// summaries with warm-up exclusion.
#pragma once

#include "util/metrics.hpp"
#include "workload/workload.hpp"

namespace dmv::harness {

class Series {
 public:
  explicit Series(sim::Time bucket = 20 * sim::kSec)
      : bucket_(bucket), tp_(uint64_t(bucket)), lat_(uint64_t(bucket)) {}

  // RecordFn to hand to workload::Client.
  workload::RecordFn recorder() {
    return [this](const workload::InteractionRecord& r) { add(r); };
  }

  void add(const workload::InteractionRecord& r) {
    ++total_;
    if (!r.ok) {
      ++errors_;
      return;
    }
    if (r.is_write) ++writes_;
    tp_.record(uint64_t(r.end), 1.0);
    lat_.record(uint64_t(r.end), sim::to_seconds(r.end - r.start));
    samples_.emplace_back(r.end, sim::to_seconds(r.end - r.start));
  }

  // Mean completed interactions/second in [from, to).
  double wips(sim::Time from, sim::Time to) const;
  // Mean latency (seconds) of interactions completing in [from, to).
  double latency(sim::Time from, sim::Time to) const;
  // p99 latency (seconds) of interactions completing in [from, to);
  // 0 when the window is empty. Tail behavior is what a flash crowd
  // degrades first — window means barely move while p99 explodes.
  double latency_p99(sim::Time from, sim::Time to) const;

  const util::TimeSeries& throughput_series() const { return tp_; }
  const util::TimeSeries& latency_series() const { return lat_; }
  uint64_t total() const { return total_; }
  uint64_t errors() const { return errors_; }
  uint64_t writes() const { return writes_; }
  sim::Time bucket() const { return bucket_; }

 private:
  sim::Time bucket_;
  util::TimeSeries tp_;
  util::TimeSeries lat_;
  // Raw (completion time, latency) samples for windowed percentiles.
  std::vector<std::pair<sim::Time, double>> samples_;
  uint64_t total_ = 0;
  uint64_t errors_ = 0;
  uint64_t writes_ = 0;
};

}  // namespace dmv::harness
