#include "workload/ycsb.hpp"

namespace dmv::workload {

namespace {

// usertable column positions (must match build_schema's order).
enum { Y_ID = 0, Y_F0, Y_F1, Y_PAD };

constexpr const char* kRead = "y_read";
constexpr const char* kUpdate = "y_update";
constexpr const char* kRmw = "y_rmw";
constexpr const char* kScan = "y_scan";

uint64_t splitmix(uint64_t z) {
  z += 0x9e3779b97f4a7c15ull;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

// GCC 12 miscompiles braced-init-list temporaries inside co_await
// expressions ("array used as initializer"), so keys are built through
// this helper / named locals, as in tpcw/interactions.cpp.
storage::Key K1(storage::Value a) { return storage::Key{std::move(a)}; }

sim::Task<api::TxnResult> y_read(api::Connection& c, const api::Params& p) {
  api::TxnResult res;
  storage::Key k = K1(p.i("k"));
  auto row = co_await c.get(0, k);
  res.ok = row.has_value();
  if (row) {
    res.rows = 1;
    res.value = std::get<int64_t>((*row)[Y_F0]);
  }
  co_return res;
}

sim::Task<api::TxnResult> y_update(api::Connection& c, const api::Params& p) {
  api::TxnResult res;
  const int64_t delta = p.i("delta");
  const int64_t stamp = p.i("date");
  storage::Key k = K1(p.i("k"));
  res.ok = co_await c.update(0, k, [&](storage::Row& r) {
    r[Y_F0] = std::get<int64_t>(r[Y_F0]) + delta;
    r[Y_F1] = stamp;
  });
  res.rows = res.ok ? 1 : 0;
  co_return res;
}

sim::Task<api::TxnResult> y_rmw(api::Connection& c, const api::Params& p) {
  api::TxnResult res;
  storage::Key k = K1(p.i("k"));
  auto row = co_await c.get(0, k);
  if (!row) {
    res.ok = false;
    co_return res;
  }
  const int64_t seen = std::get<int64_t>((*row)[Y_F0]);
  const int64_t delta = p.i("delta");
  res.ok = co_await c.update(0, k, [&](storage::Row& r) {
    r[Y_F0] = seen + delta;  // write what was read: the lost-update shape
  });
  res.rows = 1;
  res.value = seen;
  co_return res;
}

sim::Task<api::TxnResult> y_scan(api::Connection& c, const api::Params& p) {
  api::TxnResult res;
  api::ScanSpec s;
  s.lo = K1(p.i("k"));
  s.limit = size_t(p.i("len"));
  auto rows = co_await c.scan(0, std::move(s));
  int64_t sum = 0;
  for (const storage::RowRef r : rows) sum += r.i(Y_F0);
  res.rows = rows.size();
  res.value = sum;
  co_return res;
}

class YcsbSession : public Session {
 public:
  YcsbSession(const Tuning& t, const util::Zipf& zipf,
              const YcsbWorkload& w)
      : t_(t), zipf_(zipf), w_(w),
        weights_{t.ycsb_read, t.ycsb_update, t.ycsb_rmw, t.ycsb_scan} {}

  Op next(util::Rng& rng, sim::Time now) override {
    Op op;
    const size_t pick = rng.weighted(weights_);
    const int64_t k = w_.key_of_rank(zipf_.sample(rng));
    op.params.set("k", k);
    op.params.set("date", now / sim::kSec);
    switch (pick) {
      case 0:
        op.proc = kRead;
        break;
      case 1:
        op.proc = kUpdate;
        op.is_write = true;
        op.params.set("delta", rng.between(1, 100));
        break;
      case 2:
        op.proc = kRmw;
        op.is_write = true;
        op.params.set("delta", rng.between(1, 100));
        break;
      default:
        op.proc = kScan;
        op.params.set("len", rng.between(1, t_.ycsb_scan_limit));
        break;
    }
    return op;
  }

 private:
  Tuning t_;
  const util::Zipf& zipf_;
  const YcsbWorkload& w_;
  std::vector<double> weights_;
};

}  // namespace

YcsbWorkload::YcsbWorkload(const Tuning& t)
    : t_(t), zipf_(size_t(t.ycsb_records), t.ycsb_theta) {}

void YcsbWorkload::build_schema(storage::Database& db) const {
  using namespace storage;
  db.add_table("usertable",
               Schema({int_col("y_id"), int_col("y_f0"), int_col("y_f1"),
                       char_col("y_pad", 64)}),
               IndexDef{"pk", {Y_ID}, true});
}

void YcsbWorkload::load(storage::Database& db, storage::TableId base,
                        uint64_t salt) const {
  for (int64_t i = 0; i < t_.ycsb_records; ++i) {
    const int64_t f0 = int64_t(splitmix(uint64_t(i) * 31 + salt) % 1000);
    db.table(base).insert_row({i, f0, 0, std::string("ycsb")});
  }
}

api::ProcRegistry YcsbWorkload::make_registry() const {
  api::ProcRegistry reg;
  reg.register_proc(kRead, {y_read, true, {0}});
  reg.register_proc(kUpdate, {y_update, false, {0}});
  reg.register_proc(kRmw, {y_rmw, false, {0}});
  reg.register_proc(kScan, {y_scan, true, {0}});
  return reg;
}

std::unique_ptr<Session> YcsbWorkload::make_session(uint64_t client_id,
                                                    util::Rng& rng) const {
  (void)client_id;
  (void)rng;
  return std::make_unique<YcsbSession>(t_, zipf_, *this);
}

double YcsbWorkload::write_fraction() const {
  const double total =
      t_.ycsb_read + t_.ycsb_update + t_.ycsb_rmw + t_.ycsb_scan;
  return (t_.ycsb_update + t_.ycsb_rmw) / total;
}

int64_t YcsbWorkload::key_of_rank(size_t rank) const {
  return int64_t(splitmix(uint64_t(rank)) % uint64_t(t_.ycsb_records));
}

}  // namespace dmv::workload
