#include "workload/scan.hpp"

namespace dmv::workload {

namespace {

enum { F_ID = 0, F_BUCKET, F_VAL, F_PAD };
constexpr int kByBucket = 0;  // secondary index position

constexpr const char* kReport = "s_report";
constexpr const char* kBucket = "s_bucket";
constexpr const char* kTouch = "s_touch";
constexpr const char* kBatch = "s_batch";

// GCC 12 miscompiles braced-init-list temporaries inside co_await
// expressions ("array used as initializer"), so keys are built through
// this helper / named locals, as in tpcw/interactions.cpp.
storage::Key K1(storage::Value a) { return storage::Key{std::move(a)}; }

// Full-table rollup in `chunks` chained range scans. One transaction, so
// the whole report reads one snapshot — and pins it for as long as the
// chunks take.
sim::Task<api::TxnResult> s_report(api::Connection& c, const api::Params& p) {
  api::TxnResult res;
  const int64_t rows = p.i("rows");
  const int64_t chunks = p.i("chunks");
  int64_t sum = 0;
  for (int64_t k = 0; k < chunks; ++k) {
    api::ScanSpec s;
    s.lo = K1(k * rows / chunks);
    s.hi = K1((k + 1) * rows / chunks - 1);
    auto part = co_await c.scan(0, std::move(s));
    for (const storage::RowRef r : part) sum += r.i(F_VAL);
    res.rows += part.size();
  }
  res.value = sum;
  co_return res;
}

sim::Task<api::TxnResult> s_bucket(api::Connection& c, const api::Params& p) {
  api::TxnResult res;
  api::ScanSpec s;
  s.index = kByBucket;
  s.lo = K1(p.i("b"));
  s.hi = K1(p.i("b"));
  auto rows = co_await c.scan(0, std::move(s));
  int64_t sum = 0;
  for (const storage::RowRef r : rows) sum += r.i(F_VAL);
  res.rows = rows.size();
  res.value = sum;
  co_return res;
}

sim::Task<api::TxnResult> s_touch(api::Connection& c, const api::Params& p) {
  api::TxnResult res;
  const int64_t delta = p.i("delta");
  storage::Key k = K1(p.i("k"));
  res.ok = co_await c.update(0, k, [&](storage::Row& r) {
    r[F_VAL] = std::get<int64_t>(r[F_VAL]) + delta;
  });
  res.rows = res.ok ? 1 : 0;
  co_return res;
}

sim::Task<api::TxnResult> s_batch(api::Connection& c, const api::Params& p) {
  api::TxnResult res;
  const int64_t n = p.i("n");
  const int64_t delta = p.i("delta");
  for (int64_t i = 0; i < n; ++i) {
    storage::Key k = K1(p.i("k" + std::to_string(i)));
    const bool ok = co_await c.update(0, k, [&](storage::Row& r) {
      r[F_VAL] = std::get<int64_t>(r[F_VAL]) + delta;
    });
    if (!ok) {
      res.ok = false;
      co_return res;
    }
    ++res.rows;
  }
  co_return res;
}

class ScanSession : public Session {
 public:
  explicit ScanSession(const Tuning& t)
      : t_(t),
        weights_{t.scan_report, t.scan_bucket, t.scan_touch, t.scan_batch} {}

  Op next(util::Rng& rng, sim::Time now) override {
    (void)now;
    Op op;
    switch (rng.weighted(weights_)) {
      case 0:
        op.proc = kReport;
        op.params.set("rows", t_.scan_rows);
        op.params.set("chunks", t_.scan_chunks);
        break;
      case 1:
        op.proc = kBucket;
        op.params.set("b", rng.between(0, t_.scan_buckets - 1));
        break;
      case 2:
        op.proc = kTouch;
        op.is_write = true;
        op.params.set("k", rng.between(0, t_.scan_rows - 1));
        op.params.set("delta", rng.between(1, 9));
        break;
      default: {
        op.proc = kBatch;
        op.is_write = true;
        const int64_t n = 4;
        op.params.set("n", n);
        op.params.set("delta", rng.between(1, 9));
        for (int64_t i = 0; i < n; ++i)
          op.params.set("k" + std::to_string(i),
                        rng.between(0, t_.scan_rows - 1));
        break;
      }
    }
    return op;
  }

 private:
  Tuning t_;
  std::vector<double> weights_;
};

}  // namespace

ScanWorkload::ScanWorkload(const Tuning& t) : t_(t) {}

void ScanWorkload::build_schema(storage::Database& db) const {
  using namespace storage;
  db.add_table("facts",
               Schema({int_col("f_id"), int_col("f_bucket"),
                       int_col("f_val"), char_col("f_pad", 32)}),
               IndexDef{"pk", {F_ID}, true},
               {IndexDef{"by_bucket", {F_BUCKET}, false}});
}

void ScanWorkload::load(storage::Database& db, storage::TableId base,
                        uint64_t salt) const {
  (void)salt;
  for (int64_t i = 0; i < t_.scan_rows; ++i)
    db.table(base).insert_row(
        {i, i % t_.scan_buckets, i % 997, std::string("f")});
}

api::ProcRegistry ScanWorkload::make_registry() const {
  api::ProcRegistry reg;
  reg.register_proc(kReport, {s_report, true, {0}});
  reg.register_proc(kBucket, {s_bucket, true, {0}});
  reg.register_proc(kTouch, {s_touch, false, {0}});
  reg.register_proc(kBatch, {s_batch, false, {0}});
  return reg;
}

std::unique_ptr<Session> ScanWorkload::make_session(uint64_t client_id,
                                                    util::Rng& rng) const {
  (void)client_id;
  (void)rng;
  return std::make_unique<ScanSession>(t_);
}

double ScanWorkload::write_fraction() const {
  const double total =
      t_.scan_report + t_.scan_bucket + t_.scan_touch + t_.scan_batch;
  return (t_.scan_touch + t_.scan_batch) / total;
}

}  // namespace dmv::workload
