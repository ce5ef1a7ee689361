// The page-2PL row-access path both engines share: index range scans
// against a brute-force reference, lock-coupled lookups that chase a row
// moved while they waited, and scans whose collected slots were reused
// while they waited.
#include <gtest/gtest.h>

#include <algorithm>
#include <type_traits>

#include "disk/engine.hpp"
#include "mem/engine.hpp"

namespace dmv {
namespace {

using storage::Key;
using storage::Row;
using storage::Value;

// GCC 12 cannot copy braced-init-list temporaries across co_await points
// (coroutine frame bug); K() builds keys through a normal call.
Key K(Value a) { return Key{std::move(a)}; }
Key K(Value a, Value b) { return Key{std::move(a), std::move(b)}; }
Key K(Value a, Value b, Value c) {
  return Key{std::move(a), std::move(b), std::move(c)};
}
int64_t I(const Value& v) { return std::get<int64_t>(v); }

// Engine-neutral transaction steps; the row operations themselves have
// the same signature on both engines.
std::unique_ptr<txn::TxnCtx> begin_update(mem::MemEngine& e) {
  return e.begin_update();
}
std::unique_ptr<txn::TxnCtx> begin_update(disk::DiskEngine& e) {
  return e.begin(txn::TxnKind::Update);
}
sim::Task<> commit(mem::MemEngine& e, txn::TxnCtx& t) {
  co_await e.precommit(t);
  e.finish_commit(t);
}
sim::Task<> commit(disk::DiskEngine& e, txn::TxnCtx& t) {
  co_await e.commit(t);
}

template <typename Engine>
sim::Task<> load(Engine& eng, std::vector<Row> rows) {
  auto t = begin_update(eng);
  for (const Row& r : rows) co_await eng.insert(*t, 0, r);
  co_await commit(eng, *t);
}

// ---------------------------------------------------------------------
// ScanSpec table: every index x direction x bounds x limit x filter
// combination, on every access path, against a brute-force reference.

// Composite primary key (a, b), so a one-column `hi` is a prefix bound on
// the primary index too; the secondary index on grp carries (a, b).
storage::Schema grid_columns() {
  return storage::Schema({storage::int_col("a"), storage::int_col("b"),
                          storage::int_col("grp"), storage::int_col("v")});
}

void grid_schema(storage::Database& db) {
  db.add_table("grid", grid_columns(), storage::IndexDef{"pk", {0, 1}, true},
               {storage::IndexDef{"by_grp", {2}, false}});
}

std::vector<Row> grid_rows() {
  std::vector<Row> rows;
  for (int64_t a = 0; a < 10; ++a)
    for (int64_t b = 0; b < 5; ++b)
      rows.push_back(Row{a, b, (a * 7 + b * 3) % 5, a * 10 + b});
  return rows;
}

// Keys here are all ints, so std::vector order is the index order.
std::vector<int64_t> ints(const Key& k) {
  std::vector<int64_t> out;
  for (const auto& v : k) out.push_back(I(v));
  return out;
}

std::vector<int64_t> index_key(const Row& r, int index) {
  return ints(index < 0 ? K(r[0], r[1]) : K(r[2], r[0], r[1]));
}

// What `spec` must return, computed from the rows alone.
std::vector<Row> reference_scan(std::vector<Row> rows,
                                const api::ScanSpec& spec) {
  std::vector<Row> in;
  for (Row& r : rows) {
    const std::vector<int64_t> k = index_key(r, spec.index);
    if (spec.lo && k < ints(*spec.lo)) continue;
    if (spec.hi) {
      // hi is a prefix bound: compare over its length only.
      const std::vector<int64_t> hi = ints(*spec.hi);
      const std::vector<int64_t> prefix(
          k.begin(), k.begin() + std::ptrdiff_t(std::min(k.size(), hi.size())));
      if (prefix > hi) continue;
    }
    in.push_back(std::move(r));
  }
  std::sort(in.begin(), in.end(), [&](const Row& x, const Row& y) {
    return spec.reverse ? index_key(y, spec.index) < index_key(x, spec.index)
                        : index_key(x, spec.index) < index_key(y, spec.index);
  });
  const storage::Schema schema = grid_columns();
  std::vector<std::byte> image(schema.row_size());
  std::vector<Row> out;
  for (Row& r : in) {
    if (out.size() >= spec.limit) break;
    schema.encode(r, image);
    if (spec.filter && !spec.filter(storage::RowRef(schema, image.data())))
      continue;
    out.push_back(std::move(r));
  }
  return out;
}

std::vector<api::ScanSpec> all_specs() {
  enum class Bounds { Open, Closed, PrefixHi };
  std::vector<api::ScanSpec> specs;
  for (int index : {-1, 0})
    for (bool reverse : {false, true})
      for (Bounds bounds : {Bounds::Open, Bounds::Closed, Bounds::PrefixHi})
        for (size_t limit : {SIZE_MAX, size_t{3}})
          for (bool filtered : {false, true}) {
            api::ScanSpec s;
            s.index = index;
            s.reverse = reverse;
            s.limit = limit;
            if (bounds == Bounds::Closed) {
              s.lo = index < 0 ? K(int64_t{2}, int64_t{1})
                               : K(int64_t{1}, int64_t{3}, int64_t{0});
              s.hi = index < 0 ? K(int64_t{7}, int64_t{3})
                               : K(int64_t{3}, int64_t{5}, int64_t{2});
            } else if (bounds == Bounds::PrefixHi) {
              s.lo = K(int64_t{index < 0 ? 3 : 1});
              s.hi = K(int64_t{index < 0 ? 6 : 3});
            }
            if (filtered)
              s.filter = [](const storage::RowRef& r) { return r.i(3) % 2; };
            specs.push_back(std::move(s));
          }
  return specs;
}

std::string describe(const api::ScanSpec& s) {
  std::string d = s.index < 0 ? "pk" : "secondary";
  d += s.reverse ? " desc" : " asc";
  d += !s.lo ? " open" : s.lo->size() == 1 ? " prefix-hi" : " closed";
  d += s.limit == SIZE_MAX ? " unlimited" : " limit";
  d += s.filter ? " filtered" : "";
  return d;
}

std::vector<std::pair<int64_t, int64_t>> ids(const std::vector<Row>& rows) {
  std::vector<std::pair<int64_t, int64_t>> out;
  for (const Row& r : rows) out.emplace_back(I(r[0]), I(r[1]));
  return out;
}
std::vector<std::pair<int64_t, int64_t>> ids(const storage::Rows& rows) {
  std::vector<std::pair<int64_t, int64_t>> out;
  for (const storage::RowRef r : rows) out.emplace_back(r.i(0), r.i(1));
  return out;
}

TEST(RowAccess, ScanSpecTableMatchesReferenceOnEveryPath) {
  sim::Simulation sim;
  mem::MemEngine master(sim, "master", {});
  mem::MemEngine slave(sim, "slave", {});
  disk::DiskEngine disk(sim, "disk", {});
  master.build_schema(grid_schema);
  slave.build_schema(grid_schema);
  disk.build_schema(grid_schema);
  master.set_master_tables({0});
  master.set_broadcast_fn(
      [&](const txn::WriteSetPtr& ws) { slave.on_write_set(ws); });

  const std::vector<api::ScanSpec> specs = all_specs();
  ASSERT_EQ(specs.size(), 48u);
  // results[path][spec]: 0 master update txn, 1 tagged slave read, 2 disk.
  std::vector<storage::Rows> results[3];
  sim.spawn([](mem::MemEngine& master, mem::MemEngine& slave,
               disk::DiskEngine& disk, const std::vector<api::ScanSpec>& specs,
               std::vector<storage::Rows>* results) -> sim::Task<> {
    co_await load(master, grid_rows());
    co_await load(disk, grid_rows());
    for (const api::ScanSpec& spec : specs) {
      auto t = master.begin_update();
      results[0].push_back(co_await master.scan(*t, 0, spec));
      master.rollback(*t);

      auto r = slave.begin_read(slave.received_version());
      results[1].push_back(co_await slave.scan(*r, 0, spec));
      slave.finish_read(*r);

      auto d = disk.begin(txn::TxnKind::ReadOnly);
      results[2].push_back(co_await disk.scan(*d, 0, spec));
      co_await disk.commit(*d);
    }
  }(master, slave, disk, specs, results));
  sim.run();

  const char* paths[] = {"mem master", "mem slave", "disk"};
  for (size_t i = 0; i < specs.size(); ++i) {
    const auto want = ids(reference_scan(grid_rows(), specs[i]));
    EXPECT_FALSE(want.empty()) << describe(specs[i]);
    for (int p = 0; p < 3; ++p) {
      ASSERT_EQ(results[p].size(), specs.size()) << paths[p];
      EXPECT_EQ(ids(results[p][i]), want)
          << paths[p] << ": " << describe(specs[i]);
    }
  }
}

// ---------------------------------------------------------------------
// Lock-coupled lookups and scans that wait on a page while its holder
// moves, deletes or replaces rows.

// Wide rows: four to a page, so a row re-inserted after its page filled
// up lands on another page.
void wide_schema(storage::Database& db) {
  db.add_table("wide",
               storage::Schema({storage::int_col("id"), storage::int_col("v"),
                                storage::char_col("pad", 2000)}),
               storage::IndexDef{"pk", {0}, true});
}
Row wide(int64_t id, int64_t v) { return Row{id, v, std::string("x")}; }

// Small rows, all on page 0.
void narrow_schema(storage::Database& db) {
  db.add_table("narrow",
               storage::Schema({storage::int_col("id"),
                                storage::int_col("v")}),
               storage::IndexDef{"pk", {0}, true});
}
Row narrow(int64_t id) { return Row{id, id}; }

// The holder X-locks page 0 by updating row 2 and pauses. Meanwhile the
// waiter looks row 2 up (page 0) and blocks on that page. The holder then
// deletes row 2 and, if `reinsert`, fills its old slot and re-inserts row
// 2 on page 1 with v = 777, and commits.
enum class Op { Get, Update, Remove };

struct ChaseResult {
  bool found = false;
  int64_t v = -1;
};

template <typename Engine>
void run_chase(Engine& eng, sim::Simulation& sim, Op op, bool reinsert,
               ChaseResult& out) {
  eng.build_schema(wide_schema);
  std::vector<Row> rows;
  for (int64_t id = 1; id <= 6; ++id) rows.push_back(wide(id, id));
  sim.spawn(load(eng, rows));
  sim.run();
  ASSERT_EQ(eng.db().table(0).pk_find(K(int64_t{2}))->page, 0u);

  sim.spawn([](Engine& eng, sim::Simulation& sim,
               bool reinsert) -> sim::Task<> {
    auto t = begin_update(eng);
    co_await eng.update(*t, 0, K(int64_t{2}), [](Row& r) { r[1] = int64_t{0}; });
    co_await sim.delay(sim::kSec);
    co_await eng.remove(*t, 0, K(int64_t{2}));
    if (reinsert) {
      co_await eng.insert(*t, 0, wide(100, 100));  // refills page 0
      co_await eng.insert(*t, 0, wide(2, 777));    // lands on page 1
    }
    co_await commit(eng, *t);
  }(eng, sim, reinsert));
  sim.spawn([](Engine& eng, sim::Simulation& sim, Op op,
               ChaseResult& out) -> sim::Task<> {
    co_await sim.delay(sim::kSec / 2);
    auto t = begin_update(eng);
    switch (op) {
      case Op::Get: {
        const auto row = co_await eng.get(*t, 0, K(int64_t{2}));
        out.found = row.has_value();
        if (row) out.v = I((*row)[1]);
        break;
      }
      case Op::Update:
        out.found = co_await eng.update(*t, 0, K(int64_t{2}), [](Row& r) {
          r[1] = I(r[1]) + 1;
        });
        break;
      case Op::Remove:
        out.found = co_await eng.remove(*t, 0, K(int64_t{2}));
        break;
    }
    co_await commit(eng, *t);
  }(eng, sim, op, out));
  sim.run();
}

template <typename Engine>
void check_chase(Engine& eng, Op op, bool reinsert,
                 const ChaseResult& got) {
  const storage::Table& tb = eng.db().table(0);
  const auto rid = tb.pk_find(K(int64_t{2}));
  if (!reinsert) {
    EXPECT_FALSE(got.found);
    EXPECT_FALSE(rid.has_value());
    return;
  }
  EXPECT_TRUE(got.found);
  switch (op) {
    case Op::Get:
      EXPECT_EQ(got.v, 777);
      ASSERT_TRUE(rid.has_value());
      EXPECT_EQ(rid->page, 1u);
      break;
    case Op::Update:
      ASSERT_TRUE(rid.has_value());
      EXPECT_EQ(rid->page, 1u);
      EXPECT_EQ(I(tb.read_row(*rid)[1]), 778);
      break;
    case Op::Remove:
      EXPECT_FALSE(rid.has_value());
      break;
  }
  EXPECT_TRUE(tb.pk_find(K(int64_t{100})).has_value());
}

TEST(RowAccess, LookupsChaseMovedRowOnMemMaster) {
  for (Op op : {Op::Get, Op::Update, Op::Remove})
    for (bool reinsert : {true, false}) {
      SCOPED_TRACE(::testing::Message() << "op " << int(op) << " reinsert "
                                        << reinsert);
      sim::Simulation sim;
      mem::MemEngine eng(sim, "master", {});
      eng.set_master_tables({0});
      ChaseResult got;
      run_chase(eng, sim, op, reinsert, got);
      check_chase(eng, op, reinsert, got);
      EXPECT_GE(eng.locks().wait_count(), 1u);
    }
}

TEST(RowAccess, LookupsChaseMovedRowOnDisk) {
  for (Op op : {Op::Get, Op::Update, Op::Remove})
    for (bool reinsert : {true, false}) {
      SCOPED_TRACE(::testing::Message() << "op " << int(op) << " reinsert "
                                        << reinsert);
      sim::Simulation sim;
      disk::DiskEngine eng(sim, "disk", {});
      ChaseResult got;
      run_chase(eng, sim, op, reinsert, got);
      check_chase(eng, op, reinsert, got);
      EXPECT_GE(eng.locks().wait_count(), 1u);
    }
}

// The scanner collects the rows of keys 0..10 (key 5 in slot 4 of page 0)
// and blocks on page 0, which the holder has X-locked by updating key 1.
// The holder then deletes key 5 and inserts key 500, which takes the freed
// slot 4, and commits. The scan must not return key 500: its slot no
// longer holds the key the scan collected there.
template <typename Engine>
std::vector<int64_t> scan_across_slot_reuse(Engine& eng, sim::Simulation& sim,
                                            txn::TxnKind scan_kind) {
  eng.build_schema(narrow_schema);
  std::vector<Row> rows;
  for (int64_t id = 1; id <= 20; ++id) rows.push_back(narrow(id));
  sim.spawn(load(eng, rows));
  sim.run();
  EXPECT_EQ(eng.db().table(0).pk_find(K(int64_t{5}))->slot, 4u);

  sim.spawn([](Engine& eng, sim::Simulation& sim) -> sim::Task<> {
    auto t = begin_update(eng);
    co_await eng.update(*t, 0, K(int64_t{1}), [](Row& r) { r[1] = int64_t{0}; });
    co_await sim.delay(sim::kSec);
    co_await eng.remove(*t, 0, K(int64_t{5}));
    co_await eng.insert(*t, 0, narrow(500));
    co_await commit(eng, *t);
  }(eng, sim));
  std::vector<int64_t> keys;
  sim.spawn([](Engine& eng, sim::Simulation& sim, txn::TxnKind kind,
               std::vector<int64_t>& keys) -> sim::Task<> {
    co_await sim.delay(sim::kSec / 2);
    std::unique_ptr<txn::TxnCtx> t;
    if constexpr (std::is_same_v<Engine, disk::DiskEngine>)
      t = eng.begin(kind);
    else
      t = eng.begin_update();
    api::ScanSpec spec;
    spec.lo = K(int64_t{0});
    spec.hi = K(int64_t{10});
    const storage::Rows rows = co_await eng.scan(*t, 0, spec);
    for (const storage::RowRef r : rows) keys.push_back(r.i(0));
    co_await commit(eng, *t);
  }(eng, sim, scan_kind, keys));
  sim.run();
  EXPECT_TRUE(eng.db().table(0).pk_find(K(int64_t{500})).has_value());
  return keys;
}

const std::vector<int64_t> kScanSurvivors{1, 2, 3, 4, 6, 7, 8, 9, 10};

TEST(RowAccess, MemMasterScanSkipsSlotReusedWhileWaiting) {
  sim::Simulation sim;
  mem::MemEngine eng(sim, "master", {});
  eng.set_master_tables({0});
  EXPECT_EQ(scan_across_slot_reuse(eng, sim, txn::TxnKind::Update),
            kScanSurvivors);
}

TEST(RowAccess, DiskScanSkipsSlotReusedWhileWaiting) {
  for (txn::TxnKind kind : {txn::TxnKind::ReadOnly, txn::TxnKind::Update}) {
    sim::Simulation sim;
    disk::DiskEngine eng(sim, "disk", {});
    EXPECT_EQ(scan_across_slot_reuse(eng, sim, kind), kScanSurvivors)
        << (kind == txn::TxnKind::ReadOnly ? "read-only" : "update");
  }
}

}  // namespace
}  // namespace dmv
