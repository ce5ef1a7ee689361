#include "chaos/harness.hpp"

#include <set>
#include <sstream>

#include "chaos/fault_exec.hpp"
#include "util/rng.hpp"

namespace dmv::chaos {
namespace {

// ---- workload: one account table per conflict class, ledgered deposits
// + tagged reads. Class 0 keeps the historical proc names (deposit/check/
// sum); class c > 0 gets deposit<c>/check<c>/sum<c> against table c. ----

void chaos_schema(storage::Database& db, int classes) {
  for (int c = 0; c < classes; ++c) {
    const std::string name =
        c == 0 ? "acct" : "acct" + std::to_string(c + 1);
    db.add_table(name,
                 storage::Schema({storage::int_col("id"),
                                  storage::int_col("balance")}),
                 storage::IndexDef{"pk", {0}, true});
  }
}

api::ProcRegistry make_chaos_registry(int classes) {
  api::ProcRegistry reg;
  for (int c = 0; c < classes; ++c) {
    const storage::TableId tbl = storage::TableId(c);
    const std::string sfx = c == 0 ? "" : std::to_string(c);

    api::ProcInfo deposit;
    deposit.read_only = false;
    deposit.tables = {tbl};
    deposit.fn = [tbl](api::Connection& c, const api::Params& p)
        -> sim::Task<api::TxnResult> {
      storage::Key k{p.i("id")};
      const std::function<void(storage::Row&)> bump = [](storage::Row& r) {
        r[1] = std::get<int64_t>(r[1]) + 1;
      };
      const bool found = co_await c.update(tbl, k, bump);
      api::TxnResult res;
      res.ok = found;
      co_return res;
    };
    reg.register_proc("deposit" + sfx, deposit);

    api::ProcInfo check;
    check.read_only = true;
    check.tables = {tbl};
    check.fn = [tbl](api::Connection& c, const api::Params& p)
        -> sim::Task<api::TxnResult> {
      storage::Key k{p.i("id")};
      auto row = co_await c.get(tbl, k);
      api::TxnResult res;
      res.ok = row.has_value();
      res.value = row ? std::get<int64_t>((*row)[1]) : -1;
      co_return res;
    };
    reg.register_proc("check" + sfx, check);

    api::ProcInfo sum;
    sum.read_only = true;
    sum.tables = {tbl};
    sum.fn = [tbl](api::Connection& c, const api::Params&)
        -> sim::Task<api::TxnResult> {
      api::ScanSpec spec;
      auto rows = co_await c.scan(tbl, std::move(spec));
      api::TxnResult res;
      res.rows = rows.size();
      for (const storage::RowRef r : rows) res.value += r.i(1);
      co_return res;
    };
    reg.register_proc("sum" + sfx, sum);
  }
  return reg;
}

// ---- harness context ----

struct ClientState {
  std::unique_ptr<core::ClusterClient> client;
  bool done = false;
  uint64_t ok = 0;
  uint64_t errors = 0;
};

struct Ctx {
  const ChaosConfig& cfg;
  sim::Simulation& sim;
  net::Network& net;
  core::DmvCluster& cluster;
  std::vector<WorkloadLedger> ledgers{};  // one per conflict class / table
  std::vector<std::string> dep_names{}, chk_names{}, sum_names{};
  Violations viol{};
  std::vector<ClientState> clients{};
  size_t clients_done = 0;
  sim::Time max_read_latency = 0;
  ClusterProbe probe{};
  MonotonicityProbe monotone{};
};

// Read-availability check (see ChaosConfig::max_read_stall).
void note_read_latency(Ctx& ctx, sim::Time sent_at) {
  const sim::Time lat = ctx.sim.now() - sent_at;
  if (lat > ctx.max_read_latency) ctx.max_read_latency = lat;
  if (ctx.cfg.max_read_stall > 0 && lat > ctx.cfg.max_read_stall)
    ctx.viol.add("read stalled: a read-only op took " + std::to_string(lat) +
                 "us, above the availability bound of " +
                 std::to_string(ctx.cfg.max_read_stall) +
                 "us (reads must divert, not wait out failure detection)");
}

sim::Task<> client_loop(Ctx& ctx, size_t ci, util::Rng rng) {
  ClientState& st = ctx.clients[ci];
  for (int op = 0; op < ctx.cfg.ops_per_client; ++op) {
    co_await ctx.sim.delay(
        sim::Time(rng.exponential(double(ctx.cfg.mean_think))));
    // Pick the conflict class for this op. Single-class configs skip the
    // draw so historical (config, plan, seed) runs replay unchanged.
    const size_t cl = ctx.ledgers.size() > 1
                          ? size_t(rng.below(ctx.ledgers.size()))
                          : 0;
    WorkloadLedger& lg = ctx.ledgers[cl];
    if (rng.chance(ctx.cfg.update_fraction)) {
      const int64_t id = int64_t(rng.below(uint64_t(ctx.cfg.rows)));
      // Count the attempt before the send: a reply lost after commit must
      // still fall inside the [acked, attempted] interval.
      lg.on_attempt(id);
      api::Params p;
      p.set("id", id);
      auto r = co_await st.client->execute(ctx.dep_names[cl], std::move(p));
      if (r && r->ok) {
        lg.on_ack(id);
        ++st.ok;
      } else {
        ++st.errors;
      }
    } else if (rng.chance(ctx.cfg.sum_fraction)) {
      const uint64_t floor = lg.global_acked;
      const sim::Time sent_at = ctx.sim.now();
      auto r = co_await st.client->execute(ctx.sum_names[cl], {});
      if (r && r->ok) {
        note_read_latency(ctx, sent_at);
        check_sum_value(lg, int64_t(r->rows), r->value, floor, &ctx.viol);
        ++st.ok;
      } else {
        ++st.errors;
      }
    } else {
      const int64_t id = int64_t(rng.below(uint64_t(ctx.cfg.rows)));
      const uint64_t floor = lg.acked[size_t(id)];
      api::Params p;
      p.set("id", id);
      const sim::Time sent_at = ctx.sim.now();
      auto r = co_await st.client->execute(ctx.chk_names[cl], std::move(p));
      if (r && r->ok) {
        note_read_latency(ctx, sent_at);
        check_read_value(lg, id, r->value, floor, &ctx.viol);
        ++st.ok;
      } else {
        ++st.errors;
      }
    }
  }
  st.done = true;
  ++ctx.clients_done;
}

// Version-monotonicity sampler; exits once the workload completes (the
// final state is sampled again by run_chaos after quiesce).
sim::Task<> probe_loop(Ctx& ctx) {
  while (ctx.clients_done < ctx.clients.size()) {
    ctx.monotone.sample(ctx.probe, &ctx.viol);
    co_await ctx.sim.delay(5 * sim::kMsec);
  }
}

}  // namespace

core::DmvCluster::Config sweep_cluster() {
  core::DmvCluster::Config c;
  c.spares = 1;
  c.schedulers = 2;
  c.persistence.checkpoint_period = 2 * sim::kSec;
  return c;
}

void open_batch_windows(core::EngineNode::Config& node) {
  node.batch_max_writesets = 4;
  node.batch_delay = 500;
  node.ack_every_n = 4;
  node.ack_delay = 500;
}

std::string ChaosReport::summary() const {
  std::ostringstream os;
  os << (passed ? "PASS" : "FAIL") << " t=" << end_time << "us ok="
     << ops_ok << " err=" << client_errors << " rec=" << recoveries
     << " take=" << takeovers << " joins=" << joins;
  if (!passed) os << " violations=" << violations.size();
  return os.str();
}

ChaosReport run_chaos(const ChaosConfig& cfg, const FaultPlan& plan) {
  ChaosReport rep;
  sim::Simulation sim;
  net::Network net(sim);
  obs::Tracer tracer(sim);
  tracer.enable();
  struct Restore {
    obs::Tracer* prev;
    ~Restore() { obs::set_tracer(prev); }
  } restore{obs::set_tracer(&tracer)};

  const int classes = cfg.classes > 0 ? cfg.classes : 1;
  api::ProcRegistry reg = make_chaos_registry(classes);
  core::DmvCluster::Config cc = cfg.cluster;
  for (int c = 0; classes > 1 && c < classes; ++c)
    cc.conflict_classes.push_back({storage::TableId(c)});
  cc.scheduler.rng_seed = cfg.seed * 7919 + 17;
  cc.schema = [classes](storage::Database& db) {
    chaos_schema(db, classes);
  };
  const int64_t rows = cfg.rows;
  cc.loader = [rows, classes](storage::Database& db) {
    for (int c = 0; c < classes; ++c)
      for (int64_t i = 0; i < rows; ++i)
        db.table(storage::TableId(c))
            .insert_row(storage::Row{i, i * kBalanceBase});
  };
  core::DmvCluster cluster(net, reg, std::move(cc));
  cluster.start();

  Ctx ctx{cfg, sim, net, cluster};
  ctx.ledgers.resize(size_t(classes));
  for (auto& lg : ctx.ledgers) lg.init(cfg.rows);
  for (int c = 0; c < classes; ++c) {
    const std::string sfx = c == 0 ? "" : std::to_string(c);
    ctx.dep_names.push_back("deposit" + sfx);
    ctx.chk_names.push_back("check" + sfx);
    ctx.sum_names.push_back("sum" + sfx);
  }
  ctx.probe.cluster = &cluster;
  ctx.probe.net = &net;
  ctx.probe.tracer = &tracer;
  for (size_t c = 0; c < cluster.master_count(); ++c)
    ctx.probe.engine_ids.push_back(cluster.master_id(c));
  for (size_t i = 0; i < cluster.slave_count(); ++i)
    ctx.probe.engine_ids.push_back(cluster.slave_id(i));
  for (size_t i = 0; i < cluster.spare_count(); ++i)
    ctx.probe.engine_ids.push_back(cluster.spare_id(i));

  FaultExec exec(sim, net, cluster, &ctx.viol);
  exec.arm(plan);
  // Point-triggered faults piggyback on trace emissions (see FaultExec).
  tracer.set_point_observer(
      [&exec, &rep](const char* name, obs::Cat cat, uint32_t) {
        if (cat == obs::Cat::Recovery || cat == obs::Cat::Migration ||
            cat == obs::Cat::Warmup)
          ++rep.points_fired[name];
        exec.observe_point(name);
      });

  util::Rng rng(cfg.seed ^ 0xc8a05c5d1u);
  ctx.clients.resize(size_t(cfg.clients));
  for (int i = 0; i < cfg.clients; ++i) {
    ctx.clients[size_t(i)].client =
        cluster.make_client("c" + std::to_string(i));
    sim.spawn(client_loop(ctx, size_t(i), rng.split()));
  }
  sim.spawn(probe_loop(ctx));

  rep.end_time = sim.run(cfg.quiesce_horizon);

  // ---- hang detection ----
  if (sim.pending_events() > 0) {
    std::ostringstream os;
    os << "hang: " << sim.pending_events()
       << " event(s) still pending past the quiesce horizon ("
       << cfg.quiesce_horizon << "us)";
    ctx.viol.add(os.str());
  }
  for (size_t i = 0; i < ctx.clients.size(); ++i)
    if (!ctx.clients[i].done)
      ctx.viol.add("client " + std::to_string(i) +
                   " never completed its workload (wedged request)");

  ctx.probe.scheduler_count = cluster.scheduler_ids().size();
  ctx.monotone.sample(ctx.probe, &ctx.viol);
  std::vector<const WorkloadLedger*> ledger_ptrs;
  for (const auto& lg : ctx.ledgers) ledger_ptrs.push_back(&lg);
  check_end_invariants(ctx.probe, ledger_ptrs, &ctx.viol);

  // Detach the observer before anything in this frame dies; teardown may
  // still emit events.
  tracer.set_point_observer(nullptr);

  rep.faults_unfired = exec.unfired_count();
  rep.faults_fired = exec.fired_count();
  for (const auto& st : ctx.clients) {
    rep.ops_ok += st.ok;
    rep.client_errors += st.errors;
  }
  for (size_t i = 0; i < cluster.scheduler_ids().size(); ++i) {
    auto& st = cluster.scheduler(i).stats();
    rep.recoveries += st.recoveries;
    rep.takeovers += st.takeovers;
    rep.joins += st.joins_completed;
  }
  rep.update_commits = cluster.total_update_commits();
  rep.read_commits = cluster.total_read_commits();
  rep.max_read_latency = ctx.max_read_latency;
  rep.violations = ctx.viol.items;
  rep.passed = ctx.viol.ok();
  return rep;
}

ChaosReport run_chaos(const ChaosConfig& cfg, const std::string& plan_str) {
  std::string err;
  auto plan = FaultPlan::parse(plan_str, &err);
  DMV_ASSERT_MSG(plan.has_value(), "bad fault plan: " << err);
  return run_chaos(cfg, *plan);
}

}  // namespace dmv::chaos
