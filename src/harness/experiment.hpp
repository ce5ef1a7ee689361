// Experiment drivers: assemble a system (DMV cluster / stand-alone on-disk
// engine / replicated on-disk tier), attach a closed-loop client
// population driving the configured workload (TPC-W, YCSB, order-entry or
// scan/reporting), run for virtual time with optional fault scripts, and
// collect Series.
//
// Experiment is the run plumbing all three share; each system subclass
// supplies only how it is built (its constructor), the ExecuteFn a client
// gets (connect) and its teardown. Each experiment owns its own
// Simulation: runs are independent and bit-reproducible for a given config.
#pragma once

#include "core/cluster.hpp"
#include "disk/replicated_tier.hpp"
#include "harness/series.hpp"
#include "obs/trace.hpp"
#include "util/zipf.hpp"
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
  // Conflict-class sharding (§2.1 multi-master): run `classes` full stores
  // side by side, one update master per class on the DMV cluster. Each
  // client is pinned to a shard — round-robin by client id, or
  // zipfian-skewed when class_skew > 0 so one conflict class runs hot
  // while the rest stay cold (the class-isolation stress). 1 = the stock
  // single store.
  size_t classes = 1;
  double class_skew = 0;
};

// What every experiment's Config starts with.
struct RunConfig {
  WorkloadConfig workload;
  // Structured tracing (dmv_obs). With trace=false the tracer exists but
  // stays disabled: instrumentation costs one load+branch per site.
  bool trace = false;
  uint32_t trace_categories = obs::kAllCats;
};

// ---------- the shared run plumbing ----------

class Experiment {
 public:
  Experiment(const Experiment&) = delete;
  Experiment& operator=(const Experiment&) = delete;
  // Restores the previous tracer. Each system's destructor calls stop()
  // first, while the system it drains still exists.
  virtual ~Experiment();

  // Begin the client population (closed loop until stop()).
  void start();
  // Advance virtual time to `t` (absolute).
  void run_until(sim::Time t);
  // Stop clients, drain in-flight interactions, tear the system down.
  void stop();

  // Flash crowd (elasticity workloads): at `at`, `extra` clients arrive;
  // after `hold` they leave again (0 = stay until stop()).
  void schedule_flash_crowd(sim::Time at, size_t extra, sim::Time hold = 0);

  void schedule_fault(sim::Time at, std::function<void()> action);

  sim::Simulation& sim() { return *sim_; }
  Series& series() { return series_; }
  obs::Tracer& tracer() { return *tracer_; }

 protected:
  // Builds the simulation, installs the tracer (even when disabled, so
  // node-name registration during construction lands), and builds the
  // workload and its registry, sharded per conflict class.
  explicit Experiment(const RunConfig& cfg);

  // Client `id`'s connection to the system; the proc names it receives
  // are already shard-suffixed.
  virtual workload::ExecuteFn connect(size_t id) = 0;
  // Runs at the end of stop(), after the drain.
  virtual void teardown() {}

  // The workload's schema and initial data, one store per conflict class.
  std::function<void(storage::Database&)> schema() const;
  std::function<void(storage::Database&)> loader() const;

  // Declared before sim_: members destroy in reverse order, so the tracer
  // outlives the simulation and every SpanGuard in a coroutine frame. Its
  // destructor never touches the Simulation reference it holds.
  std::unique_ptr<obs::Tracer> tracer_;
  obs::Tracer* prev_tracer_ = nullptr;
  std::unique_ptr<sim::Simulation> sim_;
  // Outlives clients_ and the schema/loader closures handed to the system.
  std::shared_ptr<const workload::Workload> workload_;
  api::ProcRegistry registry_;
  const size_t classes_;  // workload.classes, at least 1

 private:
  // Add `n` more closed-loop clients right now (distinct ids, continuing
  // the base population's id space). Returns the wave's run flag; clear
  // it to release just this wave. stop() releases every wave.
  std::shared_ptr<bool> add_client_wave(size_t n);

  const WorkloadConfig wcfg_;
  // Client -> conflict class pinning (util::zipf_pick by client id).
  const util::Zipf class_zipf_;
  std::vector<std::unique_ptr<workload::Client>> clients_;
  // One run flag per client wave (base population = wave 0); stop()
  // clears them all. Client ids keep counting up across waves.
  std::vector<std::shared_ptr<bool>> wave_flags_;
  size_t next_client_id_ = 0;
  Series series_;
};

// ---------- DMV (in-memory tier) experiment ----------

class DmvExperiment : public Experiment {
 public:
  struct Config : RunConfig {
    // Deployment shape and engine cost model (see DmvCluster::Config).
    int slaves = 2;
    int spares = 0;
    int schedulers = 1;
    txn::CostModel costs;
    bool full_page_writesets = false;
    bool pageid_hints = false;
    bool persistence = false;
    core::EngineNode::Config node;
    core::Scheduler::Config scheduler;
    // Geo deployment (see DmvCluster::Config::regions): >1 spreads the
    // slave/spare/scheduler tier over WAN regions, whose links get `cross`.
    size_t regions = 1;
    net::LinkClassConfig cross{20 * sim::kMsec, 200, 500, 200 * sim::kMsec};
  };

  explicit DmvExperiment(const Config& cfg);
  ~DmvExperiment() override { stop(); }

  core::DmvCluster& cluster() { return *cluster_; }

 private:
  workload::ExecuteFn connect(size_t id) override;

  std::unique_ptr<net::Network> net_;
  std::unique_ptr<core::DmvCluster> cluster_;
  std::vector<std::unique_ptr<core::ClusterClient>> conns_;
};

// ---------- stand-alone on-disk baseline ----------

class DiskExperiment : public Experiment {
 public:
  struct Config : RunConfig {
    disk::DiskEngine::Config engine{.costs = {}, .buffer_frames = 2048};
  };

  explicit DiskExperiment(const Config& cfg);
  ~DiskExperiment() override { stop(); }

  disk::DiskEngine& engine() { return *engine_; }

 private:
  workload::ExecuteFn connect(size_t id) override;

  std::unique_ptr<disk::DiskEngine> engine_;
};

// ---------- replicated on-disk tier (Fig 5a/b baseline) ----------

class TierExperiment : public Experiment {
 public:
  struct Config : RunConfig {
    disk::ReplicatedDiskTier::Config tier{
        .engine = {.costs = {}, .buffer_frames = 2048}};
  };

  explicit TierExperiment(const Config& cfg);
  ~TierExperiment() override { stop(); }

  disk::ReplicatedDiskTier& tier() { return *tier_; }

 private:
  workload::ExecuteFn connect(size_t id) override;
  void teardown() override { tier_->stop(); }

  std::unique_ptr<disk::ReplicatedDiskTier> tier_;
};

}  // namespace dmv::harness
