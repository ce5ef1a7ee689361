#include "check/checker.hpp"

#include <algorithm>
#include <set>
#include <sstream>

#include "chaos/fault_exec.hpp"
#include "chaos/invariants.hpp"
#include "obs/trace.hpp"
#include "check/history.hpp"
#include "check/oracle.hpp"
#include "core/cluster.hpp"
#include "core/persistence_binding.hpp"
#include "util/rng.hpp"
#include "util/zipf.hpp"

namespace dmv::check {
namespace {

// ---- workload: N single-table conflict classes, updates + tagged reads
//
// Class c's table is TableId c, named acct_<letter> ('a' + c). Two
// classes reproduce the original checker; CheckConfig::classes widens it.

int64_t initial_balance(storage::TableId t, int64_t key) {
  return 1000 * int64_t(t + 1) + key * 10;
}

std::string cls_sfx(storage::TableId t) {
  return std::string("_") + char('a' + t);
}

// The scan family pads each row past half a page, so every row sits on a
// page of its own and each chained chunk of a report crosses pages.
constexpr size_t kScanPadWidth =
    (storage::kPageSize - storage::kPageHeader) / 2;

size_t pad_width(CheckWorkload w) {
  return w == CheckWorkload::Scan ? kScanPadWidth : 0;
}

std::function<void(storage::Database&)> make_check_schema(int classes,
                                                          size_t pad) {
  return [classes, pad](storage::Database& db) {
    std::vector<storage::Column> cols{storage::int_col("id"),
                                      storage::int_col("balance")};
    if (pad > 0) cols.push_back(storage::char_col("pad", pad));
    for (int t = 0; t < classes; ++t)
      db.add_table("acct" + cls_sfx(storage::TableId(t)),
                   storage::Schema(cols), storage::IndexDef{"pk", {0}, true});
  };
}

// Procs come in per-class suffix families (_a, _b, ...) so
// ProcInfo::tables stays static per proc (the scheduler routes by
// declared table set, §2.1). cross_pair is handled before this is called.
storage::TableId proc_table(const std::string& proc) {
  return storage::TableId(proc[proc.size() - 1] - 'a');
}

api::ProcRegistry make_check_registry(int classes) {
  api::ProcRegistry reg;
  for (storage::TableId t = 0; t < storage::TableId(classes); ++t) {
    const std::string sfx = cls_sfx(t);

    // Two-row money transfer: the multi-row atomicity probe. A reader
    // that sees one leg without the other is a torn snapshot.
    api::ProcInfo xfer;
    xfer.read_only = false;
    xfer.tables = {t};
    xfer.fn = [t](api::Connection& c, const api::Params& p)
        -> sim::Task<api::TxnResult> {
      const int64_t amt = p.i("amt");
      storage::Key src{p.i("src")};
      storage::Key dst{p.i("dst")};
      const std::function<void(storage::Row&)> debit =
          [amt](storage::Row& r) {
            r[1] = std::get<int64_t>(r[1]) - amt;
          };
      const std::function<void(storage::Row&)> credit =
          [amt](storage::Row& r) {
            r[1] = std::get<int64_t>(r[1]) + amt;
          };
      const bool a = co_await c.update(t, src, debit);
      const bool b = co_await c.update(t, dst, credit);
      api::TxnResult res;
      res.ok = a && b;
      co_return res;
    };
    reg.register_proc("xfer" + sfx, xfer);

    // Single-row read-modify-write.
    api::ProcInfo rmw;
    rmw.read_only = false;
    rmw.tables = {t};
    rmw.fn = [t](api::Connection& c, const api::Params& p)
        -> sim::Task<api::TxnResult> {
      const int64_t add = p.i("add");
      storage::Key k{p.i("k")};
      const std::function<void(storage::Row&)> bump =
          [add](storage::Row& r) {
            r[1] = std::get<int64_t>(r[1]) + add;
          };
      const bool found = co_await c.update(t, k, bump);
      api::TxnResult res;
      res.ok = found;
      co_return res;
    };
    reg.register_proc("rmw" + sfx, rmw);

    // Single-row get.
    api::ProcInfo get;
    get.read_only = true;
    get.tables = {t};
    get.fn = [t](api::Connection& c, const api::Params& p)
        -> sim::Task<api::TxnResult> {
      storage::Key k{p.i("k")};
      auto row = co_await c.get(t, k);
      api::TxnResult res;
      res.values.push_back(row ? std::get<int64_t>((*row)[1]) : -1);
      co_return res;
    };
    reg.register_proc("get" + sfx, get);

    // Two-row pair read within one class (torn-snapshot detector for the
    // transfer legs).
    api::ProcInfo pair;
    pair.read_only = true;
    pair.tables = {t};
    pair.fn = [t](api::Connection& c, const api::Params& p)
        -> sim::Task<api::TxnResult> {
      storage::Key k1{p.i("k1")};
      storage::Key k2{p.i("k2")};
      auto r1 = co_await c.get(t, k1);
      auto r2 = co_await c.get(t, k2);
      api::TxnResult res;
      res.values.push_back(r1 ? std::get<int64_t>((*r1)[1]) : -1);
      res.values.push_back(r2 ? std::get<int64_t>((*r2)[1]) : -1);
      co_return res;
    };
    reg.register_proc("pair" + sfx, pair);

    // Full-table range sum: every balance in key order. The widest
    // snapshot probe — any single withheld or phantom version shows up.
    api::ProcInfo sum;
    sum.read_only = true;
    sum.tables = {t};
    sum.fn = [t](api::Connection& c, const api::Params&)
        -> sim::Task<api::TxnResult> {
      api::ScanSpec spec;
      auto rows = co_await c.scan(t, std::move(spec));
      api::TxnResult res;
      res.rows = rows.size();
      for (const storage::RowRef r : rows) res.values.push_back(r.i(1));
      co_return res;
    };
    reg.register_proc("sum" + sfx, sum);

    // Bounded pk range scan [k1, k2] in key order (the ycsb short-scan
    // shape): a snapshot probe over a window instead of the whole table.
    api::ProcInfo range;
    range.read_only = true;
    range.tables = {t};
    range.fn = [t](api::Connection& c, const api::Params& p)
        -> sim::Task<api::TxnResult> {
      api::ScanSpec spec;
      spec.lo = storage::Key{p.i("k1")};
      spec.hi = storage::Key{p.i("k2")};
      auto rows = co_await c.scan(t, std::move(spec));
      api::TxnResult res;
      res.rows = rows.size();
      for (const storage::RowRef r : rows) res.values.push_back(r.i(1));
      co_return res;
    };
    reg.register_proc("range" + sfx, range);

    // Multi-row read-modify-write (the order-entry shape): bump n keys in
    // one transaction — k0 is conventionally the hot sequence row, so
    // concurrent mrmws serialize (or conflict) there like new_order does
    // on the district row.
    api::ProcInfo mrmw;
    mrmw.read_only = false;
    mrmw.tables = {t};
    mrmw.fn = [t](api::Connection& c, const api::Params& p)
        -> sim::Task<api::TxnResult> {
      const int64_t n = p.i("n");
      const int64_t add = p.i("add");
      bool ok = true;
      for (int64_t i = 0; i < n; ++i) {
        storage::Key k{p.i("k" + std::to_string(i))};
        const std::function<void(storage::Row&)> bump =
            [add](storage::Row& r) {
              r[1] = std::get<int64_t>(r[1]) + add;
            };
        const bool found = co_await c.update(t, k, bump);
        ok = ok && found;
      }
      api::TxnResult res;
      res.ok = ok;
      co_return res;
    };
    reg.register_proc("mrmw" + sfx, mrmw);

    // Chunked full-table report: the whole table read as `chunks` chained
    // range scans inside ONE transaction. Every chunk must come from the
    // same snapshot — the probe for scans that drop or outrun their tag
    // mid-transaction (and for long snapshot pins generally).
    api::ProcInfo report;
    report.read_only = true;
    report.tables = {t};
    report.fn = [t](api::Connection& c, const api::Params& p)
        -> sim::Task<api::TxnResult> {
      const int64_t rows = p.i("rows");
      const int64_t chunks = p.i("chunks");
      api::TxnResult res;
      for (int64_t k = 0; k < chunks; ++k) {
        api::ScanSpec spec;
        spec.lo = storage::Key{k * rows / chunks};
        spec.hi = storage::Key{(k + 1) * rows / chunks - 1};
        auto part = co_await c.scan(t, std::move(spec));
        res.rows += part.size();
        for (const storage::RowRef r : part) res.values.push_back(r.i(1));
      }
      co_return res;
    };
    reg.register_proc("report" + sfx, report);
  }

  // Cross-class pair: one row from each of two classes' tables, chosen
  // per call ("ta"/"tb" params). The tag is a vector cut across two
  // masters; each cell must match its own table's component. Declares
  // every table so the scheduler's read gate covers any choice.
  api::ProcInfo px;
  px.read_only = true;
  for (storage::TableId t = 0; t < storage::TableId(classes); ++t)
    px.tables.push_back(t);
  px.fn = [](api::Connection& c, const api::Params& p)
      -> sim::Task<api::TxnResult> {
    storage::Key k1{p.i("k1")};
    storage::Key k2{p.i("k2")};
    auto ra = co_await c.get(storage::TableId(p.i("ta")), k1);
    auto rb = co_await c.get(storage::TableId(p.i("tb")), k2);
    api::TxnResult res;
    res.values.push_back(ra ? std::get<int64_t>((*ra)[1]) : -1);
    res.values.push_back(rb ? std::get<int64_t>((*rb)[1]) : -1);
    co_return res;
  };
  reg.register_proc("cross_pair", px);
  return reg;
}

// Model-side re-evaluation of every read proc (OracleConfig::expect).
std::vector<int64_t> expect_read(const StateView& view,
                                 const std::string& proc,
                                 const api::Params& p) {
  auto cell = [&](storage::TableId t, int64_t k) {
    return view.get(t, k).value_or(-1);
  };
  if (proc == "cross_pair")
    return {cell(storage::TableId(p.i("ta")), p.i("k1")),
            cell(storage::TableId(p.i("tb")), p.i("k2"))};
  const storage::TableId t = proc_table(proc);
  if (proc.rfind("get", 0) == 0) return {cell(t, p.i("k"))};
  if (proc.rfind("pair", 0) == 0)
    return {cell(t, p.i("k1")), cell(t, p.i("k2"))};
  if (proc.rfind("range", 0) == 0) {
    const int64_t lo = p.i("k1");
    const int64_t hi = p.i("k2");
    std::vector<int64_t> out;
    for (const auto& [key, value] : view.scan(t))
      if (key >= lo && key <= hi) out.push_back(value);
    return out;
  }
  // sum and report both cover the whole table in key order (report's
  // chunk bounds partition [0, rows) exactly), so they share one model.
  if (proc.rfind("sum", 0) == 0 || proc.rfind("report", 0) == 0) {
    std::vector<int64_t> out;
    for (const auto& [key, value] : view.scan(t)) {
      (void)key;
      out.push_back(value);
    }
    return out;
  }
  return {};  // unknown read proc: expect no checked cells
}

// ---- closed-loop clients ----

struct ClientState {
  std::unique_ptr<core::ClusterClient> client;
  bool done = false;
  uint64_t ok = 0;
  uint64_t errors = 0;
};

struct Ctx {
  const CheckConfig& cfg;
  sim::Simulation& sim;
  const api::ProcRegistry& reg;
  core::DmvCluster& cluster;
  chaos::Violations& viol;
  chaos::MonotonicityProbe monotone{};
  std::vector<ClientState> clients{};
};

// One op draw for the original Mixed family (kept verbatim: existing
// seeds must keep reproducing bit-for-bit).
void draw_mixed(Ctx& ctx, util::Rng& rng, std::string& proc,
                api::Params& p) {
  const int64_t rows = ctx.cfg.rows_per_table;
  const uint64_t classes = uint64_t(ctx.cfg.classes);
  auto pick_sfx = [&rng, classes] {
    return cls_sfx(storage::TableId(rng.below(classes)));
  };
  if (rng.chance(ctx.cfg.update_fraction)) {
    const std::string sfx = pick_sfx();
    if (rng.chance(0.5)) {
      const int64_t src = int64_t(rng.below(uint64_t(rows)));
      int64_t dst = int64_t(rng.below(uint64_t(rows - 1)));
      if (dst >= src) ++dst;
      proc = "xfer" + sfx;
      p.set("src", src).set("dst", dst);
      p.set("amt", rng.between(1, 5));
    } else {
      proc = "rmw" + sfx;
      p.set("k", int64_t(rng.below(uint64_t(rows))));
      p.set("add", rng.between(1, 3));
    }
  } else {
    const uint64_t pick = rng.below(100);
    if (pick < 35) {
      proc = "get" + pick_sfx();
      p.set("k", int64_t(rng.below(uint64_t(rows))));
    } else if (pick < 60) {
      proc = "pair" + pick_sfx();
      p.set("k1", int64_t(rng.below(uint64_t(rows))));
      p.set("k2", int64_t(rng.below(uint64_t(rows))));
    } else if (pick < 85) {
      proc = "sum" + pick_sfx();
    } else {
      // Two distinct classes when there are two to pick from.
      const int64_t ta = int64_t(rng.below(classes));
      int64_t tb = classes > 1 ? int64_t(rng.below(classes - 1)) : 0;
      if (classes > 1 && tb >= ta) ++tb;
      proc = "cross_pair";
      p.set("ta", ta).set("tb", tb);
      p.set("k1", int64_t(rng.below(uint64_t(rows))));
      p.set("k2", int64_t(rng.below(uint64_t(rows))));
    }
  }
}

// Ycsb family: zipfian hot keys through the shared util::Zipf sampler.
// Updates hammer the hot rows; reads mix hot gets with short range scans
// anchored at a hot key and occasional full sums.
void draw_ycsb(Ctx& ctx, util::Rng& rng, const util::Zipf& zipf,
               std::string& proc, api::Params& p) {
  const int64_t rows = ctx.cfg.rows_per_table;
  const uint64_t classes = uint64_t(ctx.cfg.classes);
  auto pick_sfx = [&rng, classes] {
    return cls_sfx(storage::TableId(rng.below(classes)));
  };
  auto hot = [&] { return int64_t(zipf.sample(rng)); };
  if (rng.chance(ctx.cfg.update_fraction)) {
    const std::string sfx = pick_sfx();
    if (rng.chance(0.3)) {
      const int64_t src = hot();
      int64_t dst = int64_t(rng.below(uint64_t(rows - 1)));
      if (dst >= src) ++dst;
      proc = "xfer" + sfx;
      p.set("src", src).set("dst", dst);
      p.set("amt", rng.between(1, 5));
    } else {
      proc = "rmw" + sfx;
      p.set("k", hot());
      p.set("add", rng.between(1, 3));
    }
  } else {
    const uint64_t pick = rng.below(100);
    if (pick < 45) {
      proc = "get" + pick_sfx();
      p.set("k", hot());
    } else if (pick < 80) {
      const int64_t lo = hot();
      proc = "range" + pick_sfx();
      p.set("k1", lo).set("k2", std::min(rows - 1, lo + 3));
    } else {
      proc = "sum" + pick_sfx();
    }
  }
}

// Orders family: multi-row writes through a hot per-class sequence row
// (row 0), payment-shaped transfers against it, point/pair reads of the
// rows the writes touch.
void draw_orders(Ctx& ctx, util::Rng& rng, std::string& proc,
                 api::Params& p) {
  const int64_t rows = ctx.cfg.rows_per_table;
  const uint64_t classes = uint64_t(ctx.cfg.classes);
  auto pick_sfx = [&rng, classes] {
    return cls_sfx(storage::TableId(rng.below(classes)));
  };
  if (rng.chance(ctx.cfg.update_fraction)) {
    const std::string sfx = pick_sfx();
    if (rng.chance(0.6)) {
      // new_order shape: the hot sequence row plus distinct "stock" rows.
      proc = "mrmw" + sfx;
      const int64_t lines = rng.between(1, std::min<int64_t>(3, rows - 1));
      p.set("n", lines + 1);
      p.set("k0", int64_t{0});
      std::vector<int64_t> ks;
      for (int64_t l = 0; l < lines; ++l) {
        int64_t k = 1 + int64_t(rng.below(uint64_t(rows - 1)));
        while (std::find(ks.begin(), ks.end(), k) != ks.end())
          k = 1 + int64_t(rng.below(uint64_t(rows - 1)));
        ks.push_back(k);
        p.set("k" + std::to_string(l + 1), k);
      }
      p.set("add", rng.between(1, 3));
    } else {
      // payment shape: sequence row to one "customer" row.
      proc = "xfer" + sfx;
      p.set("src", int64_t{0});
      p.set("dst", 1 + int64_t(rng.below(uint64_t(rows - 1))));
      p.set("amt", rng.between(1, 5));
    }
  } else {
    const uint64_t pick = rng.below(100);
    if (pick < 40) {
      proc = "get" + pick_sfx();
      p.set("k", int64_t(rng.below(uint64_t(rows))));
    } else if (pick < 75) {
      // status shape: the hot row and one of the rows orders touch.
      proc = "pair" + pick_sfx();
      p.set("k1", int64_t{0});
      p.set("k2", int64_t(rng.below(uint64_t(rows))));
    } else {
      proc = "sum" + pick_sfx();
    }
  }
}

// Scan family: reporting-heavy reads — chunked full-table scans holding
// one snapshot across chained range scans — over touch updates.
void draw_scan(Ctx& ctx, util::Rng& rng, std::string& proc,
               api::Params& p) {
  const int64_t rows = ctx.cfg.rows_per_table;
  const uint64_t classes = uint64_t(ctx.cfg.classes);
  auto pick_sfx = [&rng, classes] {
    return cls_sfx(storage::TableId(rng.below(classes)));
  };
  if (rng.chance(ctx.cfg.update_fraction)) {
    const std::string sfx = pick_sfx();
    if (rng.chance(0.7)) {
      proc = "rmw" + sfx;
      p.set("k", int64_t(rng.below(uint64_t(rows))));
      p.set("add", rng.between(1, 3));
    } else {
      // Small batch touch (two distinct rows in one txn).
      proc = "mrmw" + sfx;
      const int64_t k0 = int64_t(rng.below(uint64_t(rows)));
      int64_t k1 = int64_t(rng.below(uint64_t(rows - 1)));
      if (k1 >= k0) ++k1;
      p.set("n", int64_t{2});
      p.set("k0", k0).set("k1", k1);
      p.set("add", rng.between(1, 3));
    }
  } else {
    const uint64_t pick = rng.below(100);
    if (pick < 55) {
      proc = "report" + pick_sfx();
      p.set("rows", rows);
      p.set("chunks", rng.between(2, 4));
    } else if (pick < 80) {
      const int64_t lo = int64_t(rng.below(uint64_t(rows)));
      proc = "range" + pick_sfx();
      p.set("k1", lo).set("k2", std::min(rows - 1, lo + 3));
    } else {
      proc = "get" + pick_sfx();
      p.set("k", int64_t(rng.below(uint64_t(rows))));
    }
  }
}

sim::Task<> client_loop(Ctx& ctx, size_t ci, util::Rng rng) {
  ClientState& st = ctx.clients[ci];
  // Hot-key sampler for the Ycsb family (exact CDF at checker scale).
  const util::Zipf zipf(size_t(ctx.cfg.rows_per_table), 0.85);
  for (int op = 0; op < ctx.cfg.ops_per_client; ++op) {
    co_await ctx.sim.delay(
        sim::Time(rng.exponential(double(ctx.cfg.mean_think))));
    std::string proc;
    api::Params p;
    switch (ctx.cfg.workload) {
      case CheckWorkload::Mixed:
        draw_mixed(ctx, rng, proc, p);
        break;
      case CheckWorkload::Ycsb:
        draw_ycsb(ctx, rng, zipf, proc, p);
        break;
      case CheckWorkload::Orders:
        draw_orders(ctx, rng, proc, p);
        break;
      case CheckWorkload::Scan:
        draw_scan(ctx, rng, proc, p);
        break;
    }
    const bool read_only = ctx.reg.find(proc).read_only;
    const sim::Time sent_at = ctx.sim.now();
    auto r = co_await st.client->execute(proc, std::move(p));
    if (r && r->ok) {
      ++st.ok;
      const sim::Time lat = ctx.sim.now() - sent_at;
      if (read_only && ctx.cfg.max_read_stall > 0 &&
          lat > ctx.cfg.max_read_stall)
        ctx.viol.add("read stalled: a read-only op took " +
                     std::to_string(lat) +
                     "us, above the availability bound of " +
                     std::to_string(ctx.cfg.max_read_stall) +
                     "us (reads must divert, not wait out failure "
                     "detection)");
    } else {
      ++st.errors;
    }
    ctx.monotone.sample(ctx.cluster, &ctx.viol);
  }
  st.done = true;
}

}  // namespace

const char* check_workload_name(CheckWorkload w) {
  switch (w) {
    case CheckWorkload::Mixed: return "mixed";
    case CheckWorkload::Ycsb: return "ycsb";
    case CheckWorkload::Orders: return "orders";
    case CheckWorkload::Scan: return "scan";
  }
  return "mixed";
}

bool parse_check_workload(const std::string& s, CheckWorkload* out) {
  if (s == "mixed") *out = CheckWorkload::Mixed;
  else if (s == "ycsb") *out = CheckWorkload::Ycsb;
  else if (s == "orders") *out = CheckWorkload::Orders;
  else if (s == "scan") *out = CheckWorkload::Scan;
  else return false;
  return true;
}

std::string CheckReport::summary() const {
  std::ostringstream os;
  os << (passed ? "PASS" : "FAIL") << " t=" << end_time << "us ok="
     << ops_ok << " err=" << client_errors << " commits="
     << commits_recorded << " reads=" << reads_checked << " vaborts="
     << version_aborts << " rec=" << recoveries << " take=" << takeovers;
  if (!passed) os << " violations=" << violations.size();
  return os.str();
}

CheckReport run_check(const CheckConfig& cfg, const chaos::FaultPlan& plan) {
  DMV_ASSERT_MSG(cfg.classes >= 1 && cfg.classes <= 26,
                 "classes must be in 1..26, got " << cfg.classes);
  CheckReport rep;
  chaos::Violations viol;
  sim::Simulation sim;
  net::Network net(sim);
  if (cfg.cluster.regions > 1)
    net.topology().link(net::LinkClass::Cross) = cfg.cross;
  obs::Tracer tracer(sim);
  tracer.enable();
  struct Restore {
    obs::Tracer* prev;
    ~Restore() { obs::set_tracer(prev); }
  } restore{obs::set_tracer(&tracer)};

  Recorder rec(sim);

  const int classes = cfg.classes;
  api::ProcRegistry reg = make_check_registry(classes);
  core::DmvCluster::Config cc = cfg.cluster;
  for (storage::TableId t = 0; t < storage::TableId(classes); ++t)
    cc.conflict_classes.push_back({t});
  cc.scheduler.rng_seed = cfg.seed * 7919 + 17;
  const size_t pad = pad_width(cfg.workload);
  cc.schema = make_check_schema(classes, pad);
  const int64_t rows = cfg.rows_per_table;
  cc.loader = [rows, classes, pad](storage::Database& db) {
    for (storage::TableId t = 0; t < storage::TableId(classes); ++t)
      for (int64_t i = 0; i < rows; ++i) {
        storage::Row row{i, initial_balance(t, i)};
        if (pad > 0) row.push_back(std::string());
        db.table(t).insert_row(row);
      }
  };
  core::DmvCluster cluster(net, reg, std::move(cc));

  // Install the sink only while the cluster lives: cleared (declaration
  // order) before the cluster destructor can emit anything.
  struct SinkGuard {
    explicit SinkGuard(Sink* s) { set_sink(s); }
    ~SinkGuard() { set_sink(nullptr); }
  } sink_guard{&rec};

  cluster.start();

  chaos::FaultExec exec(sim, net, cluster, &viol);
  exec.arm(plan);
  // Point-triggered faults piggyback on trace emissions (see FaultExec).
  tracer.set_point_observer(
      [&exec, &rep](const char* name, obs::Cat cat, uint32_t) {
        if (cat == obs::Cat::Recovery || cat == obs::Cat::Migration ||
            cat == obs::Cat::Warmup)
          ++rep.points_fired[name];
        exec.observe_point(name);
      });

  Ctx ctx{cfg, sim, reg, cluster, viol};
  util::Rng rng(cfg.seed ^ 0x5b4c1e9f3d2a7081ull);
  ctx.clients.resize(size_t(cfg.clients));
  for (int i = 0; i < cfg.clients; ++i) {
    ctx.clients[size_t(i)].client =
        cluster.make_client("c" + std::to_string(i));
    sim.spawn(client_loop(ctx, size_t(i), rng.split()));
  }

  rep.end_time = sim.run(cfg.quiesce_horizon);

  // ---- hang detection ----
  if (sim.pending_events() > 0)
    viol.add("hang: " + std::to_string(sim.pending_events()) +
             " event(s) still pending past the quiesce horizon (" +
             std::to_string(cfg.quiesce_horizon) + "us)");
  for (size_t i = 0; i < ctx.clients.size(); ++i)
    if (!ctx.clients[i].done)
      viol.add("client " + std::to_string(i) +
               " never completed its workload (wedged request)");

  ctx.monotone.sample(cluster, &viol);
  chaos::check_end_invariants(cluster, tracer, &viol);

  // Detach the observer before anything in this frame dies; teardown may
  // still emit events.
  tracer.set_point_observer(nullptr);

  // ---- replay the history through the sequential oracle ----
  OracleConfig oc;
  oc.tables = size_t(classes);
  oc.initial.resize(size_t(classes));
  for (storage::TableId t = 0; t < storage::TableId(classes); ++t)
    for (int64_t i = 0; i < rows; ++i)
      oc.initial[t][i] = initial_balance(t, i);
  oc.expect = expect_read;
  Oracle oracle(std::move(oc));
  oracle.check(rec.events(), &viol);
  for (const auto& v : rec.online().items) viol.add(v);
  check_live_masters(cluster, oracle, &viol);

  // ---- disaster drill (§4.6): reconstruct the tier from each backend ----
  // The log's version frontier is exactly the last acked commit per table
  // (every confirmed update is logged before its client reply), so each
  // recoverable backend — alive or fail-stopped, rows plus log suffix —
  // must reproduce the oracle's sequential prefix at that frontier.
  if (cfg.cluster.enable_persistence) {
    auto* pb = cluster.persistence();
    DMV_ASSERT_MSG(pb, "disaster drill requires the persistence tier");
    const std::vector<uint64_t>& logged = pb->logged_version();
    size_t usable = 0;
    for (size_t b = 0; b < pb->backend_count(); ++b) {
      if (!pb->backend_recoverable(b)) continue;
      ++usable;
      oracle.check_recovered_state(pb->bootstrap_image(b), logged,
                                   "backend " + std::to_string(b), &viol);
    }
    if (usable == 0)
      viol.add(
          "recovery-mismatch: no backend can bootstrap a replacement tier "
          "— every backend is dead below the truncation horizon or wedged "
          "mid-reattach");
  }

  rep.faults_fired = exec.fired_count();
  rep.faults_unfired = exec.unfired_count();
  for (const auto& st : ctx.clients) {
    rep.ops_ok += st.ok;
    rep.client_errors += st.errors;
  }
  for (size_t i = 0; i < cluster.scheduler_count(); ++i) {
    auto& st = cluster.scheduler(i).stats();
    rep.recoveries += st.recoveries;
    rep.takeovers += st.takeovers;
    rep.joins += st.joins_completed;
  }
  rep.update_commits = cluster.total_update_commits();
  rep.read_commits = cluster.total_read_commits();
  rep.version_aborts = cluster.total_version_aborts();
  rep.reads_checked = oracle.reads_checked();
  rep.commits_recorded = rec.commit_count();
  rep.violations = viol.items;
  rep.passed = viol.ok();
  if (!rep.passed) rep.history_dump = rec.dump_string();
  return rep;
}

void check_live_masters(core::DmvCluster& cluster, const Oracle& oracle,
                        chaos::Violations* v) {
  net::Network& net = cluster.net();
  for (net::NodeId id : chaos::engine_ids(cluster)) {
    if (!net.alive(id)) continue;
    const mem::MemEngine& eng = cluster.node(id).engine();
    const storage::Database& db = eng.db();
    std::vector<storage::TableId> mastered;
    std::map<storage::TableId, std::map<storage::Key, storage::Row>> image;
    for (storage::TableId t = 0; t < db.table_count(); ++t) {
      if (!eng.masters(t)) continue;
      mastered.push_back(t);
      const storage::Table& tb = db.table(t);
      auto& rows = image[t];
      tb.primary_tree().scan_all([&](std::string_view, storage::RowId rid) {
        storage::Row row = tb.read_row(rid);
        rows[tb.primary_key_of(row)] = std::move(row);
        return true;
      });
    }
    if (mastered.empty()) continue;
    oracle.check_recovered_state(image, eng.version(),
                                 "live master " + net.name(id), v, mastered);
  }
}

CheckReport run_check(const CheckConfig& cfg, const std::string& plan_str) {
  std::string err;
  auto plan = chaos::FaultPlan::parse(plan_str, &err);
  DMV_ASSERT_MSG(plan.has_value(), "bad fault plan: " << err);
  return run_check(cfg, *plan);
}

CheckConfig chaos_config() {
  CheckConfig c;
  c.classes = 1;
  c.clients = 4;
  c.ops_per_client = 25;
  c.rows_per_table = 64;
  return c;
}

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

std::string sweep_flags(const CheckConfig& cfg, const CheckConfig& base) {
  std::ostringstream os;
  const auto num = [&os](const char* flag, auto value, auto dflt) {
    if (value != dflt) os << " " << flag << " " << value;
  };
  num("--slaves", cfg.cluster.slaves, base.cluster.slaves);
  num("--spares", cfg.cluster.spares, base.cluster.spares);
  num("--schedulers", cfg.cluster.schedulers, base.cluster.schedulers);
  num("--clients", cfg.clients, base.clients);
  num("--ops", cfg.ops_per_client, base.ops_per_client);
  num("--max-read-stall", cfg.max_read_stall, base.max_read_stall);
  // --geo and --multimaster open the batch windows themselves.
  const bool wan = cfg.cluster.regions > 1;
  if (!wan && cfg.cluster.node.batch_max_writesets !=
                  base.cluster.node.batch_max_writesets)
    os << " --batched";
  if (cfg.cluster.enable_persistence) os << " --disaster";
  if (wan && !cfg.multimaster) os << " --geo";
  if (cfg.elastic) os << " --elastic";
  if (cfg.multimaster) os << " --multimaster";
  num("--classes", cfg.classes, cfg.multimaster ? 3 : base.classes);
  if (cfg.workload != base.workload)
    os << " --workload " << check_workload_name(cfg.workload);
  return os.str();
}

namespace {

// Kill victims by DmvCluster node name: the masters ("master" for a single
// conflict class, master0..masterN-1 otherwise) `master_copies` times over
// (to bias kills toward them), then the slaves if `slaves`, the spares,
// and sched0 if `sched0` and a peer scheduler can take over.
std::vector<std::string> victims_of(const CheckConfig& cfg, int master_copies,
                                    bool slaves, bool sched0) {
  std::vector<std::string> v;
  for (int k = 0; k < master_copies; ++k)
    for (int c = 0; c < cfg.classes; ++c)
      v.push_back(cfg.classes == 1 ? "master"
                                   : "master" + std::to_string(c));
  for (int i = 0; slaves && i < cfg.cluster.slaves; ++i)
    v.push_back("slave" + std::to_string(i));
  for (int i = 0; i < cfg.cluster.spares; ++i)
    v.push_back("spare" + std::to_string(i));
  if (sched0 && cfg.cluster.schedulers > 1) v.push_back("sched0");
  return v;
}

// A fault plan under construction: ';'-separated faults.
struct PlanText {
  std::string text;
  void add(const std::string& fault) {
    if (!text.empty()) text += ";";
    text += fault;
  }
};

// Up to `kills` deaths of distinct victims, each at a seed-derived time;
// engines sometimes come back through the §4.4 rejoin protocol.
void add_kills(PlanText& plan, util::Rng& rng,
               const std::vector<std::string>& victims, int kills) {
  std::set<std::string> killed;
  for (int i = 0; i < kills; ++i) {
    const std::string& v = victims[rng.below(victims.size())];
    if (!killed.insert(v).second) continue;  // one death per node
    const long long t = 3000 + (long long)rng.below(47000);
    plan.add("kill:" + v + "@t:" + std::to_string(t));
    if (v.rfind("sched", 0) != 0 && rng.chance(0.4))
      plan.add("restart:" + v + "@t:" +
               std::to_string(t + 20000 + (long long)rng.below(40000)));
  }
}

// One cut between two of the deployment's regions, opened mid-workload and
// healed a while later — partitions park cross-region traffic, so an
// unhealed cut would wedge the run, not fail it cleanly. A quarter are
// directed (one-way) cuts.
void add_region_cut(PlanText& plan, util::Rng& rng, const CheckConfig& cfg) {
  std::vector<std::string> regions = {"local"};
  for (size_t r = 1; r < cfg.cluster.regions; ++r)
    regions.push_back("r" + std::to_string(r));
  const size_t a = rng.below(regions.size());
  size_t b = rng.below(regions.size() - 1);
  if (b >= a) ++b;
  const std::string cut = regions[a] + (rng.chance(0.25) ? ">" : "|") +
                          regions[b];
  const long long t = 2000 + (long long)rng.below(40000);
  plan.add("partition:" + cut + "@t:" + std::to_string(t));
  plan.add("heal-partition:" + cut + "@t:" +
           std::to_string(t + 3000 + (long long)rng.below(25000)));
}

}  // namespace

std::string random_fault_plan(const CheckConfig& cfg, uint64_t seed,
                              int faults) {
  util::Rng rng(seed * 0x9e3779b97f4a7c15ull + 0x2545f4914f6cdd1dull);
  // Victims chosen so <= 2 deaths always leave the cluster serviceable:
  // every class keeps a promotable replica and sched1+ stay alive.
  PlanText plan;
  add_kills(plan, rng, victims_of(cfg, 1, /*slaves=*/true, /*sched0=*/true),
            faults);
  return plan.text;
}

std::string random_disaster_plan(const CheckConfig& cfg, uint64_t seed) {
  util::Rng rng(seed * 0x9e3779b97f4a7c15ull + 0x7f4a7c159e3779b9ull);
  PlanText plan;
  // Warm-up mem-tier kills, never restarted: a rejoining engine could
  // still be mid-warmup when the wipe lands, and the drill's subject is
  // the persistence tier, not the join protocol.
  const std::vector<std::string> victims =
      victims_of(cfg, 1, /*slaves=*/true, /*sched0=*/false);
  std::set<std::string> killed;
  const int pre = int(rng.below(3));
  for (int i = 0; i < pre; ++i) {
    const std::string& v = victims[rng.below(victims.size())];
    if (!killed.insert(v).second) continue;
    plan.add("kill:" + v + "@t:" +
             std::to_string(3000 + (long long)rng.below(25000)));
  }
  // Sometimes bounce a backend so the sweep also covers fail-stop at an
  // arbitrary record boundary, reattach, and the snapshot+suffix path.
  const int backends = cfg.cluster.persistence.backends;
  if (backends > 0 && rng.chance(0.5)) {
    const int b = int(rng.below(uint64_t(backends)));
    const long long t = 4000 + (long long)rng.below(20000);
    plan.add("killbackend:" + std::to_string(b) + "@t:" + std::to_string(t));
    if (rng.chance(0.7))
      plan.add("restartbackend:" + std::to_string(b) + "@t:" +
               std::to_string(t + 5000 + (long long)rng.below(15000)));
  }
  // The disaster: every live engine node dies at once, mid-workload.
  plan.add("wipe-tier@t:" +
           std::to_string(35000 + (long long)rng.below(25000)));
  return plan.text;
}

std::string random_geo_fault_plan(const CheckConfig& cfg, uint64_t seed,
                                  int faults) {
  DMV_ASSERT_MSG(cfg.cluster.regions >= 2, "geo plans need >= 2 regions");
  util::Rng rng(seed * 0x9e3779b97f4a7c15ull + 0x6a09e667f3bcc909ull);
  PlanText plan;
  const int cuts = 1 + int(rng.below(uint64_t(std::max(1, faults))));
  for (int i = 0; i < cuts; ++i) add_region_cut(plan, rng, cfg);

  // A smaller dose of the usual kills, so cuts compose with fail-over
  // (a master dying while a region is dark exercises the quorum
  // reconciliation: DiscardAbove acks from the dark region arrive only
  // after the heal, and recovery must elect the most caught-up survivor).
  add_kills(plan, rng, victims_of(cfg, 1, /*slaves=*/true, /*sched0=*/true),
            int(rng.below(uint64_t(std::max(1, faults)))));

  // Safety net: whatever is still cut heals long before the quiesce
  // horizon, so every parked message gets delivered and the run drains.
  plan.add("heal-partition@t:250000");
  return plan.text;
}

std::string random_elastic_fault_plan(const CheckConfig& cfg, uint64_t seed,
                                      int faults) {
  util::Rng rng(seed * 0x9e3779b97f4a7c15ull + 0x3c6ef372fe94f82bull);
  PlanText plan;

  // Scale-outs: one or (sometimes) two fresh slaves join mid-workload via
  // §4.4, under live traffic. Elastically-added engines are named after
  // the next free slave index, so the first joiner is
  // slave<cfg.cluster.slaves>.
  const int adds = 1 + int(rng.chance(0.4));
  long long earliest_add = -1;
  for (int i = 0; i < adds; ++i) {
    const long long t = 2000 + (long long)rng.below(30000);
    if (earliest_add < 0 || t < earliest_add) earliest_add = t;
    plan.add("addslave@t:" + std::to_string(t));
  }

  // Usually a retire, so the sweep exercises both directions of the fleet
  // resize. The victim is either an original slave, or — to cover the
  // add-then-drain lifecycle — the first elastically-added one; the latter
  // must be timed after its add fires or the retire is a benign no-op.
  if (rng.chance(0.8)) {
    std::string victim;
    long long not_before = 3000;
    if (rng.chance(0.4)) {
      victim = "slave" + std::to_string(cfg.cluster.slaves);
      not_before = earliest_add + 5000;
    } else {
      victim =
          "slave" + std::to_string(rng.below(uint64_t(cfg.cluster.slaves)));
    }
    plan.add("retire:" + victim + "@t:" +
             std::to_string(not_before + (long long)rng.below(30000)));
  }

  // A smaller dose of the usual deaths, so joins and drains compose with
  // fail-over (a master dying while a joiner catches up exercises the
  // §4.2 discard against a half-subscribed node).
  add_kills(plan, rng, victims_of(cfg, 1, /*slaves=*/false, /*sched0=*/true),
            int(rng.below(uint64_t(std::max(1, faults)))));
  return plan.text;
}

std::string random_multimaster_fault_plan(const CheckConfig& cfg,
                                          uint64_t seed, int faults) {
  util::Rng rng(seed * 0x9e3779b97f4a7c15ull + 0x243f6a8885a308d3ull);
  PlanText plan;

  // An elastic resize most of the time: a fresh slave joins mid-workload
  // via §4.4 (under several masters' update streams at once), sometimes
  // followed by a retire of an original slave.
  if (rng.chance(0.6))
    plan.add("addslave@t:" +
             std::to_string(2000 + (long long)rng.below(30000)));
  if (cfg.cluster.slaves > 1 && rng.chance(0.3))
    plan.add("retire:slave" +
             std::to_string(rng.below(uint64_t(cfg.cluster.slaves))) +
             "@t:" + std::to_string(5000 + (long long)rng.below(30000)));

  // In geo deployments, a healed region cut so class fail-overs compose
  // with partitioned quorums.
  if (cfg.cluster.regions >= 2 && rng.chance(0.5))
    add_region_cut(plan, rng, cfg);

  // Kills biased toward the masters (listed twice): the point of this
  // mode is concurrent per-class fail-overs — including two classes
  // recovering at once and a surviving master adopting a headless class.
  add_kills(plan, rng, victims_of(cfg, 2, /*slaves=*/true, /*sched0=*/true),
            faults + int(rng.chance(0.3)));

  // Safety net (geo only): whatever is still cut heals long before the
  // quiesce horizon.
  if (cfg.cluster.regions >= 2) plan.add("heal-partition@t:250000");
  return plan.text;
}

const std::vector<Mutation>& mutation_list() {
  static const std::vector<Mutation> muts = [] {
    std::vector<Mutation> m;
    // Common scale for the planted-bug runs: enough traffic that each
    // bug's window is hit on most seeds.
    auto busy = [](CheckConfig& c) {
      c.clients = 4;
      c.ops_per_client = 20;
      c.mean_think = 500;
    };

    m.push_back(
        {"skip-tag-upgrade",
         "master-served reads skip the §2.1 tag upgrade + page latch and "
         "read in-place state unchecked",
         {"snapshot-mismatch"},
         [busy](CheckConfig& c) {
           busy(c);
           // Kill the only slave so reads fall back to the masters,
           // where the mutated path serves them.
           c.cluster.slaves = 1;
           c.cluster.spares = 0;
           c.cluster.schedulers = 1;
           c.update_fraction = 0.7;
           c.cluster.engine.mut_skip_tag_upgrade = true;
         },
         "kill:slave0@t:5000"});

    m.push_back(
        {"skip-ack-merge",
         "scheduler forgets to merge commit stamps into its version "
         "vector before acking the client (session order lost)",
         {"tag-coverage"},
         [busy](CheckConfig& c) {
           busy(c);
           c.cluster.schedulers = 1;
           c.update_fraction = 0.6;
           c.cluster.scheduler.mut_skip_ack_merge = true;
         },
         ""});

    m.push_back(
        {"apply-off-by-one",
         "replicas apply the pending-mod prefix one version short of the "
         "read's tag (stale snapshots served as fresh)",
         {"snapshot-mismatch"},
         [busy](CheckConfig& c) {
           busy(c);
           c.update_fraction = 0.6;
           c.cluster.engine.mut_apply_off_by_one = true;
         },
         ""});

    m.push_back(
        {"skip-discard",
         "replicas ignore DiscardAbove during fail-over: unconfirmed "
         "write-sets survive the discard and leak into the new epoch",
         {"version-gap", "snapshot-mismatch", "at-most-once"},
         [busy](CheckConfig& c) {
           busy(c);
           c.update_fraction = 0.8;
           c.mean_think = 200;
           // Open the pipeline windows so the dying master has
           // unconfirmed write-sets in flight.
           open_batch_windows(c.cluster.node);
           c.cluster.engine.mut_skip_discard = true;
         },
         "kill:master0@t:8000"});

    m.push_back(
        {"batch-reverse",
         "masters emit each replication batch in reverse order (apply "
         "order broken under coalescing)",
         {"snapshot-mismatch"},
         [busy](CheckConfig& c) {
           busy(c);
           c.ops_per_client = 24;
           c.update_fraction = 0.85;
           c.mean_think = 100;
           c.cluster.node.batch_max_writesets = 4;
           c.cluster.node.batch_delay = 500;
           c.cluster.node.mut_batch_reverse = true;
         },
         ""});

    m.push_back(
        {"skip-recovery-suffix",
         "disaster bootstrap replays backend rows but drops the update-log "
         "suffix above the backend's watermark (acked tail lost)",
         {"recovery-mismatch"},
         [busy](CheckConfig& c) {
           busy(c);
           c.cluster.enable_persistence = true;
           // No checkpoints: the killed backend must stay above the
           // truncation horizon so the drill bootstraps from it with a
           // non-empty suffix — which the mutation then discards.
           c.cluster.persistence.checkpoint_period = 0;
           c.cluster.persistence.mut_skip_suffix = true;
         },
         "killbackend:0@t:6000;wipe-tier@t:30000"});

    m.push_back(
        {"reply-before-quorum",
         "quorum commit acks the client before any replica confirmed the "
         "write-set (a master death loses client-acked commits; the "
         "version-vector read gate turns the loss into reads wedged on "
         "versions no survivor can ever reach)",
         {"wedged request", "at-most-once", "snapshot-mismatch",
          "version-gap"},
         [busy](CheckConfig& c) {
           busy(c);
           c.update_fraction = 0.8;
           c.mean_think = 200;
           // Open pipeline windows: the dying master holds client-acked
           // write-sets that no replica has seen yet.
           open_batch_windows(c.cluster.node);
           c.cluster.node.quorum_commit = true;
           c.cluster.node.mut_reply_before_quorum = true;
         },
         "kill:master0@t:8000"});

    m.push_back(
        {"route-to-joiner",
         "answer_join puts the joiner straight into the read rotation "
         "before §4.4 data migration caught it up (reads land on a node "
         "whose pages predate their version tags)",
         {"snapshot-mismatch", "wedged request", "hang"},
         [busy](CheckConfig& c) {
           busy(c);
           c.ops_per_client = 24;
           c.update_fraction = 0.6;
           c.cluster.scheduler.mut_route_to_joiner = true;
         },
         // A kill+restart drives the §4.4 rejoin whose answer_join the
         // mutation corrupts. The bug's window (a read dispatched in the
         // short gap between answer_join and migration end) is narrow, so
         // this one gets a deeper seed budget.
         "kill:slave0@t:5000;restart:slave0@t:12000", 25});

    m.push_back(
        {"scan-stale-read",
         "read-only scans skip the per-page tag re-check: a replica whose "
         "apply frontier ran ahead of the read's tag serves future "
         "versions into an older snapshot (chunked reports come out torn)",
         {"snapshot-mismatch"},
         [busy](CheckConfig& c) {
           busy(c);
           // The scan family's chunked reports hold one snapshot across
           // several chained scans — the widest window for the planted
           // staleness to land in.
           c.workload = CheckWorkload::Scan;
           c.ops_per_client = 24;
           c.update_fraction = 0.6;
           c.mean_think = 200;
           c.cluster.engine.mut_scan_stale_read = true;
         },
         "", 25});

    m.push_back(
        {"scan-first-page-only",
         "one-pass replica scans check only the first page they reach: "
         "entries on later pages are served at whatever version those "
         "pages hold (a report chunk that crosses a page comes out torn)",
         {"snapshot-mismatch"},
         [busy](CheckConfig& c) {
           busy(c);
           // The scan family's padded rows put each row on its own page,
           // so every chunk crosses pages and reaches unchecked ones.
           c.workload = CheckWorkload::Scan;
           c.ops_per_client = 24;
           c.update_fraction = 0.6;
           c.mean_think = 200;
           c.cluster.engine.mut_scan_first_page_only = true;
         },
         ""});

    m.push_back(
        {"wrong-class-route",
         "scheduler routes every update to the next class's master, "
         "which adopts the foreign table instead of refusing — two "
         "masters stamp one table's version stream",
         {"snapshot-mismatch", "version-gap", "at-most-once"},
         [busy](CheckConfig& c) {
           busy(c);
           c.update_fraction = 0.7;
           // The scheduler misroutes; the wrong master's engine node
           // executes instead of refusing.
           c.cluster.scheduler.mut_wrong_class_route = true;
           c.cluster.node.mut_wrong_class_route = true;
         },
         ""});

    m.push_back(
        {"mark-after-ack",
         "a resubmission through a standby scheduler does not look for its "
         "original still waiting for replica acks: it finds no committed "
         "mark and executes the update a second time",
         {"at-most-once"},
         [](CheckConfig& c) {
           // check_sweep --multimaster's deployment.
           c.multimaster = true;
           c.classes = 3;
           c.cluster.regions = 2;
           c.cluster.node.quorum_commit = true;
           open_batch_windows(c.cluster.node);
           c.cluster.node.mut_mark_after_ack = true;
         },
         // With slave1 retired and slave0 dead, a commit's quorum waits on
         // the remote region, so the original is still awaiting acks when
         // its client resubmits through the standby scheduler.
         "retire:slave1@t:9345;kill:slave0@t:24395;kill:sched0@t:35648"});
    return m;
  }();
  return muts;
}

bool run_mutation_smoke(std::ostream& log, bool verbose) {
  bool all = true;
  for (const Mutation& m : mutation_list()) {
    bool caught = false;
    for (int seed = 1; seed <= m.seeds && !caught; ++seed) {
      CheckConfig cfg;
      m.apply(cfg);
      cfg.seed = uint64_t(seed);
      const CheckReport rep = run_check(cfg, m.plan);
      if (verbose)
        log << "  [" << m.name << " seed " << seed << "] "
            << rep.summary() << "\n";
      for (const auto& v : rep.violations) {
        for (const auto& e : m.expect) {
          if (v.find(e) == std::string::npos) continue;
          log << "caught: " << m.name << " (seed " << seed << ") -> "
              << v << "\n";
          caught = true;
          break;
        }
        if (caught) break;
      }
    }
    if (!caught) {
      log << "MISSED: " << m.name << " — no seed produced any of the "
          << "expected violations (" << m.what << ")\n";
      all = false;
    }
  }
  return all;
}

}  // namespace dmv::check
