// Experiment drivers: assemble a system (DMV cluster / stand-alone on-disk
// engine / replicated on-disk tier), attach a closed-loop client
// population driving the configured workload (TPC-W, YCSB, order-entry or
// scan/reporting), run for virtual time with optional fault scripts, and
// collect Series.
//
// Each experiment owns its own Simulation: runs are independent and
// bit-reproducible for a given config.
#pragma once

#include "core/cluster.hpp"
#include "disk/replicated_tier.hpp"
#include "harness/series.hpp"
#include "obs/trace.hpp"
#include "workload/client.hpp"

namespace dmv::harness {

// Which workload drives the system (workload::Options: tpcw | ycsb | orders
// | scan; the non-TPC-W workloads read their knobs from `tuning`, TPC-W
// from scale + mix — all four run unchanged on every experiment type),
// plus the client population that drives it.
struct WorkloadConfig : workload::Options {
  size_t clients = 100;
  sim::Time think_mean = 700 * sim::kMsec;
  sim::Time bucket = 20 * sim::kSec;
  // Conflict-class sharding (§2.1 multi-master): run `classes` full TPC-W
  // stores side by side, one update master per class. Each client is
  // pinned to a shard — round-robin by client id, or zipfian-skewed when
  // class_skew > 0 so one conflict class runs hot while the rest stay
  // cold (the class-isolation stress). 1 = the stock single-master TPC-W.
  size_t classes = 1;
  double class_skew = 0;
};

// A scripted fault: at `at`, run `action` against the cluster.
struct FaultEvent {
  sim::Time at = 0;
  std::function<void()> action;
};

// ---------- DMV (in-memory tier) experiment ----------

class DmvExperiment {
 public:
  struct Config {
    WorkloadConfig workload;
    // Deployment shape and engine cost model (see DmvCluster::Config).
    int slaves = 2;
    int spares = 0;
    int schedulers = 1;
    txn::CostModel costs;
    size_t cache_pages = 1 << 20;
    bool full_page_writesets = false;
    bool pageid_hints = false;
    bool prewarm_spares = false;
    bool persistence = false;
    core::EngineNode::Config node;
    core::Scheduler::Config scheduler;
    // Geo deployment (see DmvCluster::Config::regions): >1 spreads the
    // slave/spare/scheduler tier over WAN regions, whose links get `cross`.
    size_t regions = 1;
    net::LinkClassConfig cross{20 * sim::kMsec, 200, 500, 200 * sim::kMsec};
    // Structured tracing (dmv_obs). With trace=false the tracer exists but
    // stays disabled: instrumentation costs one load+branch per site.
    bool trace = false;
    uint32_t trace_categories = obs::kAllCats;
  };

  explicit DmvExperiment(Config cfg);
  ~DmvExperiment();

  // Begin the client population (closed loop until stop()).
  void start();
  // Advance virtual time to `t` (absolute).
  void run_until(sim::Time t);
  // Stop clients, drain in-flight interactions.
  void stop();

  // --- client-arrival generators (elasticity workloads) ---
  // Add `n` more closed-loop clients right now (distinct ids, continuing
  // the base population's id space). Returns the wave's run flag; clear
  // it to release just this wave. stop() releases every wave.
  std::shared_ptr<bool> add_client_wave(size_t n);
  // Flash crowd: at `at`, `extra` clients arrive; after `hold` they leave
  // again (0 = stay until stop()).
  void schedule_flash_crowd(sim::Time at, size_t extra, sim::Time hold = 0);
  // Diurnal wave: starting at `start`, every `period` a wave of `extra`
  // clients arrives and stays for duty*period.
  void schedule_diurnal(sim::Time start, sim::Time period, size_t extra,
                        int cycles, double duty = 0.5);

  void schedule_fault(sim::Time at, std::function<void()> action);

  sim::Simulation& sim() { return *sim_; }
  core::DmvCluster& cluster() { return *cluster_; }
  Series& series() { return series_; }
  obs::Tracer& tracer() { return *tracer_; }
  const Config& config() const { return cfg_; }

 private:
  Config cfg_;
  // Declared before sim_: members destroy in reverse order, so the tracer
  // outlives the simulation and every SpanGuard in a coroutine frame. Its
  // destructor never touches the Simulation reference it holds.
  std::unique_ptr<obs::Tracer> tracer_;
  obs::Tracer* prev_tracer_ = nullptr;
  std::unique_ptr<sim::Simulation> sim_;
  std::unique_ptr<net::Network> net_;
  // Outlives clients_ and the sharding closures handed to the cluster.
  std::shared_ptr<const workload::Workload> workload_;
  api::ProcRegistry registry_;
  std::unique_ptr<core::DmvCluster> cluster_;
  std::vector<std::unique_ptr<core::ClusterClient>> conns_;
  std::vector<std::unique_ptr<workload::Client>> clients_;
  // One run flag per client wave (base population = wave 0); stop()
  // clears them all. Client ids keep counting up across waves.
  std::vector<std::shared_ptr<bool>> wave_flags_;
  size_t next_client_id_ = 0;
  Series series_;
};

// ---------- stand-alone on-disk baseline ----------

class DiskExperiment {
 public:
  struct Config {
    WorkloadConfig workload;
    disk::DiskEngine::Config engine{.costs = {}, .buffer_frames = 2048};
    bool trace = false;
    uint32_t trace_categories = obs::kAllCats;
  };

  explicit DiskExperiment(Config cfg);
  ~DiskExperiment();

  void start();
  void run_until(sim::Time t);
  void stop();

  sim::Simulation& sim() { return *sim_; }
  disk::DiskEngine& engine() { return *engine_; }
  Series& series() { return series_; }
  obs::Tracer& tracer() { return *tracer_; }

 private:
  Config cfg_;
  std::unique_ptr<obs::Tracer> tracer_;  // before sim_: destroyed last
  obs::Tracer* prev_tracer_ = nullptr;
  std::unique_ptr<sim::Simulation> sim_;
  std::shared_ptr<const workload::Workload> workload_;
  api::ProcRegistry registry_;
  std::unique_ptr<disk::DiskEngine> engine_;
  std::vector<std::unique_ptr<workload::Client>> clients_;
  std::shared_ptr<bool> run_flag_;
  Series series_;
};

// ---------- replicated on-disk tier (Fig 5a/b baseline) ----------

class TierExperiment {
 public:
  struct Config {
    WorkloadConfig workload;
    disk::ReplicatedDiskTier::Config tier{
        .engine = {.costs = {}, .buffer_frames = 2048}};
    bool trace = false;
    uint32_t trace_categories = obs::kAllCats;
  };

  explicit TierExperiment(Config cfg);
  ~TierExperiment();

  void start();
  void run_until(sim::Time t);
  void stop();
  void schedule_fault(sim::Time at, std::function<void()> action);

  sim::Simulation& sim() { return *sim_; }
  disk::ReplicatedDiskTier& tier() { return *tier_; }
  Series& series() { return series_; }
  obs::Tracer& tracer() { return *tracer_; }

 private:
  Config cfg_;
  std::unique_ptr<obs::Tracer> tracer_;  // before sim_: destroyed last
  obs::Tracer* prev_tracer_ = nullptr;
  std::unique_ptr<sim::Simulation> sim_;
  std::shared_ptr<const workload::Workload> workload_;
  api::ProcRegistry registry_;
  std::unique_ptr<disk::ReplicatedDiskTier> tier_;
  std::vector<std::unique_ptr<workload::Client>> clients_;
  std::shared_ptr<bool> run_flag_;
  Series series_;
};

// ---------- peak-throughput search (the paper's step function) ----------

struct PeakPoint {
  size_t clients = 0;
  double wips = 0;
  double latency = 0;
};

// Runs `measure` (fresh experiment per level) over the client steps and
// returns every point plus the index of the peak.
struct PeakResult {
  std::vector<PeakPoint> points;
  const PeakPoint& best() const;
};
PeakResult find_peak(
    const std::vector<size_t>& client_steps,
    const std::function<PeakPoint(size_t clients)>& measure);

}  // namespace dmv::harness
