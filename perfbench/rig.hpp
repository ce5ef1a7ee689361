// The benchmark's own assembly of the DMV system under test.
//
// A Rig builds one DMV cluster (schedulers, master, slaves, optional
// persistence back-end) and its closed-loop client population from the
// public sim/net/core/workload calls, the same way harness::DmvExperiment
// does, but with every random stream derived from the benchmark's --seed.
// Seed 0 reproduces the repository defaults, so a seed-0 Rig and a
// DmvExperiment on the same configuration simulate the same run event for
// event (checked by `dmv_perfbench --selfcheck`).
//
// The Rig observes the system only from outside: it wraps each client's
// ExecuteFn to count attempts, records every completed interaction through
// its own RecordFn, and reads the public stats accessors.
#pragma once

#include <memory>
#include <vector>

#include "harness/experiment.hpp"

namespace perfbench {

using namespace dmv;

// The inputs --seed controls, and nothing else.
struct Seeds {
  uint64_t client_base = 0;  // first client id: each client's Rng and
                             // TPC-W id space derive from its id
  uint64_t scale_seed = tpcw::ScaleConfig{}.seed;
  uint64_t jitter_seed = net::NetworkConfig{}.jitter_seed;
  uint64_t sched_seed = core::Scheduler::Config{}.rng_seed;

  static Seeds from(uint64_t seed);
};

// What one workload runs against: the system configuration plus the
// scheduler's version-abort retry budget (the only knob the harness
// config does not carry).
struct SystemConfig {
  harness::DmvExperiment::Config exp;
  int version_abort_retries = core::Scheduler::Config{}.max_version_abort_retries;
};

// Completed interactions, split by read-only / update, with latencies kept
// for those that complete inside the post-warm-up window [from, to).
class Recorder {
 public:
  Recorder(sim::Time from, sim::Time to) : from_(from), to_(to) {}

  void add(const workload::InteractionRecord& r);

  uint64_t ok() const { return ok_; }
  uint64_t failed() const { return failed_; }
  uint64_t window_ok() const { return read_.size() + update_.size(); }
  const std::vector<sim::Time>& read_latencies() const { return read_; }
  const std::vector<sim::Time>& update_latencies() const { return update_; }

 private:
  sim::Time from_;
  sim::Time to_;
  uint64_t ok_ = 0;
  uint64_t failed_ = 0;
  std::vector<sim::Time> read_;
  std::vector<sim::Time> update_;
};

class Rig {
 public:
  // Builds, loads and prewarms the cluster (the benchmark's set-up).
  // `trace` enables the dmv_obs tracer.
  Rig(const SystemConfig& cfg, const Seeds& seeds, bool trace);
  ~Rig();
  Rig(const Rig&) = delete;
  Rig& operator=(const Rig&) = delete;

  // Starts the closed-loop clients; completions go to `rec`, which must
  // outlive the Rig's run.
  void start(Recorder& rec);
  void run_until(sim::Time t) { sim_->run(t); }
  // Releases the clients and drains every in-flight interaction.
  void stop();

  sim::Simulation& sim() { return *sim_; }
  net::Network& net() { return *net_; }
  core::DmvCluster& cluster() { return *cluster_; }
  obs::Tracer& tracer() { return *tracer_; }
  uint64_t attempted() const { return attempted_; }

 private:
  SystemConfig cfg_;
  Seeds seeds_;
  // Declared before sim_ so it outlives every span guard in a coroutine
  // frame (members destroy in reverse order).
  std::unique_ptr<obs::Tracer> tracer_;
  obs::Tracer* prev_tracer_ = nullptr;
  std::unique_ptr<sim::Simulation> sim_;
  std::unique_ptr<net::Network> net_;
  std::shared_ptr<const workload::Workload> workload_;
  api::ProcRegistry registry_;
  std::unique_ptr<core::DmvCluster> cluster_;
  std::vector<std::unique_ptr<core::ClusterClient>> conns_;
  std::vector<std::unique_ptr<workload::Client>> clients_;
  std::shared_ptr<bool> run_;
  uint64_t attempted_ = 0;
};

}  // namespace perfbench
