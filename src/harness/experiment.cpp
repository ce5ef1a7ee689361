#include "harness/experiment.hpp"

#include <algorithm>

#include "workload/sharding.hpp"

namespace dmv::harness {

// ---------- Experiment ----------

Experiment::Experiment(const RunConfig& cfg)
    : classes_(std::max<size_t>(1, cfg.workload.classes)),
      wcfg_(cfg.workload),
      class_zipf_(classes_, std::max(0.0, wcfg_.class_skew)),
      series_(wcfg_.bucket) {
  sim_ = std::make_unique<sim::Simulation>();
  tracer_ = std::make_unique<obs::Tracer>(*sim_);
  tracer_->set_category_mask(cfg.trace_categories);
  if (cfg.trace) tracer_->enable();
  prev_tracer_ = obs::set_tracer(tracer_.get());
  workload_ = workload::make_workload(wcfg_);
  registry_ = workload::make_sharded_registry(*workload_, classes_);
}

Experiment::~Experiment() { obs::set_tracer(prev_tracer_); }

std::function<void(storage::Database&)> Experiment::schema() const {
  return workload::make_sharded_schema(workload_, classes_);
}

std::function<void(storage::Database&)> Experiment::loader() const {
  return workload::make_sharded_loader(workload_, classes_);
}

void Experiment::start() {
  DMV_ASSERT(wave_flags_.empty());
  add_client_wave(wcfg_.clients);
}

std::shared_ptr<bool> Experiment::add_client_wave(size_t n) {
  auto flag = std::make_shared<bool>(true);
  wave_flags_.push_back(flag);
  workload::Client::Config base;
  base.think_mean = wcfg_.think_mean;
  base.client_id = next_client_id_;
  const size_t first = next_client_id_;
  next_client_id_ += n;
  auto wave = workload::spawn_clients(
      *sim_, n, base, *workload_,
      [this, first](size_t i) -> workload::ExecuteFn {
        // Pin the client to its conflict class: every interaction goes to
        // the shard-suffixed proc (the bare name at one class).
        const size_t shard = util::zipf_pick(first + i, class_zipf_);
        return [exec = connect(first + i), shard, classes = classes_](
                   const std::string& proc, api::Params p) {
          return exec(workload::shard_proc(proc, shard, classes),
                      std::move(p));
        };
      },
      series_.recorder(), flag);
  for (auto& c : wave) clients_.push_back(std::move(c));
  return flag;
}

void Experiment::schedule_flash_crowd(sim::Time at, size_t extra,
                                      sim::Time hold) {
  sim_->schedule_at(at, [this, extra, hold] {
    if (wave_flags_.empty()) return;  // stopped before the crowd arrived
    auto flag = add_client_wave(extra);
    obs::instant("crowd.arrive", obs::Cat::Scheduler);
    if (hold > 0)
      sim_->schedule_after(hold, [flag] {
        *flag = false;
        obs::instant("crowd.leave", obs::Cat::Scheduler);
      });
  });
}

void Experiment::run_until(sim::Time t) { sim_->run(t); }

void Experiment::stop() {
  if (wave_flags_.empty()) return;
  for (auto& f : wave_flags_) *f = false;
  wave_flags_.clear();
  sim_->run(sim_->now() + 60 * sim::kSec);  // drain in-flight interactions
  teardown();
}

void Experiment::schedule_fault(sim::Time at, std::function<void()> action) {
  sim_->schedule_at(at, std::move(action));
}

// ---------- DmvExperiment ----------

DmvExperiment::DmvExperiment(const Config& cfg)
    : Experiment(cfg) {
  net_ = std::make_unique<net::Network>(*sim_);
  if (cfg.regions > 1)
    net_->topology().link(net::LinkClass::Cross) = cfg.cross;
  core::DmvCluster::Config cc;
  cc.slaves = cfg.slaves;
  cc.spares = cfg.spares;
  cc.schedulers = cfg.schedulers;
  cc.engine.costs = cfg.costs;
  cc.engine.full_page_writesets = cfg.full_page_writesets;
  cc.node = cfg.node;
  cc.scheduler = cfg.scheduler;
  cc.regions = cfg.regions;
  cc.pageid_hints = cfg.pageid_hints;
  cc.enable_persistence = cfg.persistence;
  cc.persistence.engine.costs = cfg.costs;
  cc.conflict_classes =
      workload::sharded_conflict_classes(*workload_, classes_);
  cc.schema = schema();
  cc.loader = loader();
  cluster_ = std::make_unique<core::DmvCluster>(*net_, registry_, cc);
  cluster_->start();
}

workload::ExecuteFn DmvExperiment::connect(size_t id) {
  conns_.push_back(cluster_->make_client("client" + std::to_string(id)));
  core::ClusterClient* c = conns_.back().get();
  return [c](const std::string& proc, api::Params p) {
    return c->execute(proc, std::move(p));
  };
}

// ---------- DiskExperiment ----------

namespace {

// Start an on-disk engine warm: prefetch every page into its buffer pool
// (LRU keeps the most recently prefetched ones).
void prefill_pool(disk::DiskEngine& eng) {
  for (storage::TableId t = 0; t < eng.db().table_count(); ++t) {
    const auto& tb = eng.db().table(t);
    for (storage::PageNo p = 0; p < tb.page_count(); ++p)
      eng.pool().prefill({t, p});
  }
}

}  // namespace

DiskExperiment::DiskExperiment(const Config& cfg)
    : Experiment(cfg) {
  engine_ = std::make_unique<disk::DiskEngine>(*sim_, "innodb", cfg.engine);
  engine_->set_trace_node(0);
  obs::name_node(0, engine_->name());
  engine_->build_schema(schema());
  loader()(engine_->db());
  prefill_pool(*engine_);
}

workload::ExecuteFn DiskExperiment::connect(size_t) {
  return [eng = engine_.get(), reg = &registry_](const std::string& proc,
                                                 api::Params p) {
    return disk::run_proc_on_disk(*eng, reg->find(proc), std::move(p));
  };
}

// ---------- TierExperiment ----------

TierExperiment::TierExperiment(const Config& cfg)
    : Experiment(cfg) {
  tier_ = std::make_unique<disk::ReplicatedDiskTier>(*sim_, cfg.tier,
                                                     schema(), registry_);
  {
    // One generated image, copied into every replica.
    storage::Database image;
    schema()(image);
    loader()(image);
    tier_->load(image);
  }
  for (size_t e = 0; e < disk::ReplicatedDiskTier::kActives; ++e)
    prefill_pool(tier_->engine(e));
  tier_->start();
}

workload::ExecuteFn TierExperiment::connect(size_t) {
  return [tier = tier_.get()](const std::string& proc, api::Params p) {
    return tier->execute(proc, std::move(p));
  };
}

}  // namespace dmv::harness
