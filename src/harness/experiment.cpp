#include "harness/experiment.hpp"

#include "workload/sharding.hpp"

namespace dmv::harness {

// ---------- DmvExperiment ----------

namespace {

// Create, configure and globally install an experiment's tracer. Installed
// even when disabled so node-name registration during construction lands.
std::unique_ptr<obs::Tracer> make_tracer(sim::Simulation& sim,
                                         bool enable, uint32_t categories,
                                         obs::Tracer** prev_out) {
  auto t = std::make_unique<obs::Tracer>(sim);
  t->set_category_mask(categories);
  if (enable) t->enable();
  *prev_out = obs::set_tracer(t.get());
  return t;
}

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

DmvExperiment::DmvExperiment(Config cfg)
    : cfg_(cfg), series_(cfg.workload.bucket) {
  sim_ = std::make_unique<sim::Simulation>();
  tracer_ = make_tracer(*sim_, cfg_.trace, cfg_.trace_categories,
                        &prev_tracer_);
  net_ = std::make_unique<net::Network>(*sim_);
  if (cfg_.regions > 1)
    net_->topology().link(net::LinkClass::Cross) = cfg_.cross;
  const size_t classes = std::max<size_t>(1, cfg_.workload.classes);
  workload_ = workload::make_workload(cfg_.workload);
  registry_ = workload::make_sharded_registry(*workload_, classes);

  core::DmvCluster::Config cc;
  cc.slaves = cfg_.slaves;
  cc.spares = cfg_.spares;
  cc.schedulers = cfg_.schedulers;
  cc.engine.costs = cfg_.costs;
  cc.engine.cache_pages = cfg_.cache_pages;
  cc.engine.full_page_writesets = cfg_.full_page_writesets;
  cc.node = cfg_.node;
  cc.scheduler = cfg_.scheduler;
  cc.regions = cfg_.regions;
  cc.pageid_hints = cfg_.pageid_hints;
  cc.prewarm_spares = cfg_.prewarm_spares;
  cc.enable_persistence = cfg_.persistence;
  cc.persistence.engine.costs = cfg_.costs;
  if (classes > 1) {
    cc.conflict_classes = workload::sharded_conflict_classes(*workload_,
                                                             classes);
    cc.schema = workload::make_sharded_schema(workload_, classes);
    cc.loader = workload::make_sharded_loader(workload_, classes);
  } else {
    cc.schema = workload::schema_fn(workload_);
    cc.loader = workload::loader_fn(workload_);
  }
  cluster_ = std::make_unique<core::DmvCluster>(*net_, registry_, cc);
  cluster_->start();
}

DmvExperiment::~DmvExperiment() {
  stop();
  obs::set_tracer(prev_tracer_);
}

void DmvExperiment::start() {
  DMV_ASSERT(wave_flags_.empty());
  add_client_wave(cfg_.workload.clients);
}

std::shared_ptr<bool> DmvExperiment::add_client_wave(size_t n) {
  auto flag = std::make_shared<bool>(true);
  wave_flags_.push_back(flag);
  workload::Client::Config base;
  base.think_mean = cfg_.workload.think_mean;
  base.client_id = next_client_id_;
  const size_t first = next_client_id_;
  next_client_id_ += n;
  const size_t classes = std::max<size_t>(1, cfg_.workload.classes);
  auto wave = workload::spawn_clients(
      *sim_, n, base, *workload_,
      [this, first, classes](size_t i) -> workload::ExecuteFn {
        conns_.push_back(
            cluster_->make_client("client" + std::to_string(first + i)));
        core::ClusterClient* c = conns_.back().get();
        if (classes <= 1)
          return [c](const std::string& proc, api::Params p) {
            return c->execute(proc, std::move(p));
          };
        // Pin the client to its conflict class: every interaction goes to
        // the shard-suffixed proc, which the scheduler routes to that
        // class's master.
        const size_t shard = workload::zipf_shard(first + i, classes,
                                                  cfg_.workload.class_skew);
        return [c, shard, classes](const std::string& proc, api::Params p) {
          return c->execute(workload::shard_proc(proc, shard, classes),
                            std::move(p));
        };
      },
      series_.recorder(), flag);
  for (auto& c : wave) clients_.push_back(std::move(c));
  return flag;
}

void DmvExperiment::schedule_flash_crowd(sim::Time at, size_t extra,
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

void DmvExperiment::schedule_diurnal(sim::Time start, sim::Time period,
                                     size_t extra, int cycles, double duty) {
  for (int c = 0; c < cycles; ++c)
    schedule_flash_crowd(start + sim::Time(c) * period, extra,
                         sim::Time(double(period) * duty));
}

void DmvExperiment::run_until(sim::Time t) { sim_->run(t); }

void DmvExperiment::stop() {
  if (wave_flags_.empty()) return;
  for (auto& f : wave_flags_) *f = false;
  wave_flags_.clear();
  sim_->run(sim_->now() + 60 * sim::kSec);  // drain in-flight interactions
}

void DmvExperiment::schedule_fault(sim::Time at,
                                   std::function<void()> action) {
  sim_->schedule_at(at, std::move(action));
}

// ---------- DiskExperiment ----------

DiskExperiment::DiskExperiment(Config cfg)
    : cfg_(cfg), series_(cfg.workload.bucket) {
  sim_ = std::make_unique<sim::Simulation>();
  tracer_ = make_tracer(*sim_, cfg_.trace, cfg_.trace_categories,
                        &prev_tracer_);
  workload_ = workload::make_workload(cfg_.workload);
  registry_ = workload_->make_registry();
  engine_ = std::make_unique<disk::DiskEngine>(*sim_, "innodb", cfg_.engine);
  engine_->set_trace_node(0);
  obs::name_node(0, engine_->name());
  engine_->build_schema(workload::schema_fn(workload_));
  workload_->load(engine_->db(), 0, 0);
  prefill_pool(*engine_);
}

void DiskExperiment::start() {
  DMV_ASSERT(!run_flag_);
  run_flag_ = std::make_shared<bool>(true);
  workload::Client::Config base;
  base.think_mean = cfg_.workload.think_mean;
  clients_ = workload::spawn_clients(
      *sim_, cfg_.workload.clients, base, *workload_,
      [this](size_t) -> workload::ExecuteFn {
        disk::DiskEngine* eng = engine_.get();
        const api::ProcRegistry* reg = &registry_;
        return [eng, reg](const std::string& proc, api::Params p)
                   -> sim::Task<std::optional<api::TxnResult>> {
          return disk::run_proc_on_disk(*eng, reg->find(proc), p);
        };
      },
      series_.recorder(), run_flag_);
}

DiskExperiment::~DiskExperiment() {
  stop();
  obs::set_tracer(prev_tracer_);
}

void DiskExperiment::run_until(sim::Time t) { sim_->run(t); }

void DiskExperiment::stop() {
  if (!run_flag_) return;
  *run_flag_ = false;
  run_flag_.reset();
  sim_->run(sim_->now() + 120 * sim::kSec);
}

// ---------- TierExperiment ----------

TierExperiment::TierExperiment(Config cfg)
    : cfg_(cfg), series_(cfg.workload.bucket) {
  sim_ = std::make_unique<sim::Simulation>();
  tracer_ = make_tracer(*sim_, cfg_.trace, cfg_.trace_categories,
                        &prev_tracer_);
  workload_ = workload::make_workload(cfg_.workload);
  registry_ = workload_->make_registry();
  tier_ = std::make_unique<disk::ReplicatedDiskTier>(
      *sim_, cfg_.tier, workload::schema_fn(workload_), registry_);
  tier_->load(workload::loader_fn(workload_));
  for (size_t e = 0; e < size_t(cfg_.tier.actives); ++e)
    prefill_pool(tier_->engine(e));
  tier_->start();
}

void TierExperiment::start() {
  DMV_ASSERT(!run_flag_);
  run_flag_ = std::make_shared<bool>(true);
  workload::Client::Config base;
  base.think_mean = cfg_.workload.think_mean;
  clients_ = workload::spawn_clients(
      *sim_, cfg_.workload.clients, base, *workload_,
      [this](size_t) -> workload::ExecuteFn {
        disk::ReplicatedDiskTier* tier = tier_.get();
        return [tier](const std::string& proc, api::Params p) {
          return tier->execute(proc, std::move(p));
        };
      },
      series_.recorder(), run_flag_);
}

TierExperiment::~TierExperiment() {
  stop();
  obs::set_tracer(prev_tracer_);
}

void TierExperiment::run_until(sim::Time t) { sim_->run(t); }

void TierExperiment::stop() {
  if (!run_flag_) return;
  *run_flag_ = false;
  run_flag_.reset();
  sim_->run(sim_->now() + 120 * sim::kSec);
  tier_->stop();
}

void TierExperiment::schedule_fault(sim::Time at,
                                    std::function<void()> action) {
  sim_->schedule_at(at, std::move(action));
}

// ---------- peak search ----------

const PeakPoint& PeakResult::best() const {
  DMV_ASSERT(!points.empty());
  const PeakPoint* b = &points[0];
  for (const auto& p : points)
    if (p.wips > b->wips) b = &p;
  return *b;
}

PeakResult find_peak(
    const std::vector<size_t>& client_steps,
    const std::function<PeakPoint(size_t clients)>& measure) {
  PeakResult out;
  for (size_t c : client_steps) out.points.push_back(measure(c));
  return out;
}

}  // namespace dmv::harness
