#include "rig.hpp"

namespace perfbench {

namespace {

uint64_t splitmix64(uint64_t x) {
  x += 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

// Runs one interaction through the cluster client, counting the attempt
// first. Awaiting the client's task resumes it directly, so the wrapper
// adds no simulation events.
sim::Task<std::optional<api::TxnResult>> execute_counted(
    core::ClusterClient* c, uint64_t* attempted, std::string proc,
    api::Params params) {
  ++*attempted;
  auto result = co_await c->execute(std::move(proc), std::move(params));
  co_return result;
}

}  // namespace

Seeds Seeds::from(uint64_t seed) {
  Seeds s;
  if (seed == 0) return s;
  // Client ids of different seeds never overlap for up to 4096 clients.
  s.client_base = (seed % 1'000'000) * 4096;
  s.scale_seed = splitmix64(seed ^ 0x5ca1e);
  s.jitter_seed = splitmix64(seed ^ 0x717e4);
  s.sched_seed = splitmix64(seed ^ 0x5c4ed);
  return s;
}

void Recorder::add(const workload::InteractionRecord& r) {
  if (!r.ok) {
    ++failed_;
    return;
  }
  ++ok_;
  if (r.end < from_ || r.end >= to_) return;
  (r.is_write ? update_ : read_).push_back(r.end - r.start);
}

Rig::Rig(const SystemConfig& cfg, const Seeds& seeds, bool trace)
    : cfg_(cfg), seeds_(seeds) {
  const harness::DmvExperiment::Config& x = cfg_.exp;
  sim_ = std::make_unique<sim::Simulation>();
  // Room for every span of a traced replica; a run that still overflows
  // fails its checks (Tracer::dropped).
  tracer_ = std::make_unique<obs::Tracer>(*sim_, size_t(1) << 22);
  if (trace) tracer_->enable();
  prev_tracer_ = obs::set_tracer(tracer_.get());

  net::NetworkConfig nc;
  nc.jitter_seed = seeds_.jitter_seed;
  net_ = std::make_unique<net::Network>(*sim_, nc);

  workload::Options wo;
  wo.kind = x.workload.kind;
  wo.scale = x.workload.scale;
  wo.scale.seed = seeds_.scale_seed;
  wo.mix = x.workload.mix;
  wo.tuning = x.workload.tuning;
  workload_ = workload::make_workload(wo);
  registry_ = workload_->make_registry();

  core::DmvCluster::Config cc;
  cc.slaves = x.slaves;
  cc.engine.costs = x.costs;
  cc.enable_persistence = x.persistence;
  cc.persistence.engine.costs = x.costs;
  cc.scheduler.rng_seed = seeds_.sched_seed;
  cc.scheduler.max_version_abort_retries = cfg_.version_abort_retries;
  cc.schema = workload::schema_fn(workload_);
  cc.loader = workload::loader_fn(workload_);
  cluster_ = std::make_unique<core::DmvCluster>(*net_, registry_, cc);
  cluster_->start();
}

Rig::~Rig() {
  stop();
  obs::set_tracer(prev_tracer_);
}

void Rig::start(Recorder& rec) {
  run_ = std::make_shared<bool>(true);
  workload::Client::Config base;
  base.think_mean = cfg_.exp.workload.think_mean;
  base.client_id = seeds_.client_base;
  clients_ = workload::spawn_clients(
      *sim_, cfg_.exp.workload.clients, base, *workload_,
      [this](size_t i) -> workload::ExecuteFn {
        conns_.push_back(cluster_->make_client("client" + std::to_string(i)));
        core::ClusterClient* c = conns_.back().get();
        uint64_t* attempted = &attempted_;
        return [c, attempted](const std::string& proc, api::Params p) {
          return execute_counted(c, attempted, proc, std::move(p));
        };
      },
      [&rec](const workload::InteractionRecord& r) { rec.add(r); }, run_);
}

void Rig::stop() {
  if (!run_) return;
  *run_ = false;
  run_.reset();
  sim_->run(sim_->now() + 60 * sim::kSec);
}

}  // namespace perfbench
