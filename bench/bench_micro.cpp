// google-benchmark micro-benchmarks for the hot primitives: the simulation
// kernel's wait/wake path, Resource service and Task frames, RB-tree index
// operations, page diff/apply, the master's pre-commit diff, an
// order-entry write-set's build and its allocations, page free-space
// bookkeeping, the page LRU, a replica's range scan, the lock
// table fast path, the TPC-W generator, a copied image and its first
// writes, and the request path's procedure parameters and envelope
// dispatch.
// These are host-time benchmarks of the real data structures (the macro
// experiments charge modeled virtual time instead).
#include <benchmark/benchmark.h>

#include <cstdlib>
#include <memory>
#include <new>
#include <optional>
#include <utility>
#include <variant>

#include "api/api.hpp"
#include "mem/engine.hpp"
#include "net/network.hpp"
#include "sim/sync.hpp"
#include "storage/table.hpp"
#include "tpcw/generator.hpp"
#include "txn/write_set.hpp"
#include "util/lru.hpp"
#include "util/rng.hpp"

// Allocations of the whole process are counted while g_count_allocations
// is set: BM_OrdersWriteSet reports them per write-set.
namespace {
bool g_count_allocations = false;
size_t g_allocations = 0;
}  // namespace

void* operator new(std::size_t n) {
  if (g_count_allocations) ++g_allocations;
  if (void* p = std::malloc(n ? n : 1)) return p;
  throw std::bad_alloc();
}
// Out of line, so that GCC does not pair an inlined free() with a
// new-expression and warn of a mismatch.
[[gnu::noinline]] void operator delete(void* p) noexcept { std::free(p); }
[[gnu::noinline]] void operator delete(void* p, std::size_t) noexcept {
  std::free(p);
}

using namespace dmv;

namespace {

// Encoded int64 key, as Table builds it for an INT primary key.
std::string int_key(int64_t v) {
  std::string k(8, '\0');
  storage::encode_int(v, k.data());
  return k;
}

// N coroutines, each alternating delay(d) for a short d with yield(): the
// kernel's heap and same-instant paths. One item is one event.
void BM_SimDelayChurn(benchmark::State& state) {
  const int n = int(state.range(0));
  constexpr int kRounds = 1000;
  size_t events = 0;
  for (auto _ : state) {
    sim::Simulation s;
    for (int i = 0; i < n; ++i)
      s.spawn([](sim::Simulation& s, int i) -> sim::Task<> {
        for (int k = 0; k < kRounds; ++k) {
          co_await s.delay(1 + (i + k) % 7);
          co_await s.yield();
        }
      }(s, i));
    s.run();
    events += s.events_processed();
  }
  state.SetItemsProcessed(int64_t(events));
}
BENCHMARK(BM_SimDelayChurn)->Arg(1)->Arg(64)->Arg(1024);

// Two coroutines handing control back and forth through a pair of
// WaitQueues. One item is one hand-off (a notify, a wait and a wake).
void BM_WaitQueuePingPong(benchmark::State& state) {
  constexpr int kRounds = 10000;
  for (auto _ : state) {
    sim::Simulation s;
    sim::WaitQueue ping(s), pong(s);
    s.spawn([](sim::WaitQueue& ping, sim::WaitQueue& pong) -> sim::Task<> {
      for (int k = 0; k < kRounds; ++k) {
        co_await ping.wait();
        pong.notify_one();
      }
    }(ping, pong));
    s.spawn([](sim::WaitQueue& ping, sim::WaitQueue& pong) -> sim::Task<> {
      for (int k = 0; k < kRounds; ++k) {
        ping.notify_one();
        co_await pong.wait();
      }
    }(ping, pong));
    s.run();
    benchmark::DoNotOptimize(s.events_processed());
  }
  state.SetItemsProcessed(state.iterations() * 2 * kRounds);
}
BENCHMARK(BM_WaitQueuePingPong);

// One coroutine using a free one-server Resource over and over: the fast
// path (take the server, one timed wake, release). One item is one use.
void BM_ResourceUseUncontended(benchmark::State& state) {
  constexpr int kRounds = 10000;
  for (auto _ : state) {
    sim::Simulation s;
    sim::Resource cpu(s, 1);
    s.spawn([](sim::Resource& cpu) -> sim::Task<> {
      for (int k = 0; k < kRounds; ++k) co_await cpu.use(3);
    }(cpu));
    s.run();
    benchmark::DoNotOptimize(cpu.busy_time());
  }
  state.SetItemsProcessed(state.iterations() * kRounds);
}
BENCHMARK(BM_ResourceUseUncontended);

// Eight coroutines sharing a two-server Resource: nearly every use queues
// and is started by the hand-off event of the release before it. One item
// is one use.
void BM_ResourceUseContended(benchmark::State& state) {
  constexpr int kUsers = 8;
  constexpr int kRounds = 1000;
  for (auto _ : state) {
    sim::Simulation s;
    sim::Resource cpu(s, 2);
    for (int i = 0; i < kUsers; ++i)
      s.spawn([](sim::Resource& cpu, int i) -> sim::Task<> {
        for (int k = 0; k < kRounds; ++k) co_await cpu.use(1 + (i + k) % 5);
      }(cpu, i));
    s.run();
    benchmark::DoNotOptimize(cpu.busy_time());
  }
  state.SetItemsProcessed(state.iterations() * kUsers * kRounds);
}
BENCHMARK(BM_ResourceUseContended);

// A chain of `depth` awaited Task<int>s, each a frame made and destroyed
// per call, as a request handler calling helpers does; no event is
// scheduled. One item is one chain.
sim::Task<int> task_chain(int depth) {
  if (depth == 0) co_return 1;
  co_return 1 + co_await task_chain(depth - 1);
}
void BM_TaskChain(benchmark::State& state) {
  const int depth = int(state.range(0));
  constexpr int kRounds = 10000;
  for (auto _ : state) {
    sim::Simulation s;
    int64_t sum = 0;
    s.spawn([](int depth, int64_t& sum) -> sim::Task<> {
      for (int k = 0; k < kRounds; ++k) sum += co_await task_chain(depth);
    }(depth, sum));
    s.run();
    benchmark::DoNotOptimize(sum);
  }
  state.SetItemsProcessed(state.iterations() * kRounds);
}
BENCHMARK(BM_TaskChain)->Arg(4);

void BM_RbTreeInsert(benchmark::State& state) {
  const int64_t n = state.range(0);
  for (auto _ : state) {
    storage::RbTree t(8);
    util::Rng rng(7);
    for (int64_t i = 0; i < n; ++i)
      t.insert(int_key(rng.between(0, n * 4)), storage::RowId{});
    benchmark::DoNotOptimize(t.size());
  }
  state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK(BM_RbTreeInsert)->Arg(1000)->Arg(10000);

void BM_RbTreeLookup(benchmark::State& state) {
  const int64_t n = state.range(0);
  storage::RbTree t(8);
  for (int64_t i = 0; i < n; ++i) t.insert(int_key(i), storage::RowId{});
  util::Rng rng(9);
  for (auto _ : state)
    benchmark::DoNotOptimize(t.find(int_key(rng.between(0, n - 1))));
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_RbTreeLookup)->Arg(10000)->Arg(100000);

void BM_RbTreeScan100(benchmark::State& state) {
  storage::RbTree t(8);
  for (int64_t i = 0; i < 100000; ++i) t.insert(int_key(i), storage::RowId{});
  util::Rng rng(11);
  for (auto _ : state) {
    size_t seen = 0;
    t.scan(int_key(rng.between(0, 99899)), {},
           [&](std::string_view, storage::RowId) { return ++seen < 100; });
    benchmark::DoNotOptimize(seen);
  }
  state.SetItemsProcessed(state.iterations() * 100);
}
BENCHMARK(BM_RbTreeScan100);

// Successor-link upkeep under churn: per iteration 8 inserts and 8 erases
// of random keys (the tree stays near 10000 entries, half of the key
// range), then a 100-entry scan from a random key.
void BM_RbTreeChurnScan(benchmark::State& state) {
  storage::RbTree t(8);
  for (int64_t i = 0; i < 20000; i += 2) t.insert(int_key(i), storage::RowId{});
  util::Rng rng(19);
  for (auto _ : state) {
    for (int k = 0; k < 8; ++k) {
      t.insert(int_key(rng.between(0, 19999)), storage::RowId{});
      t.erase(int_key(rng.between(0, 19999)));
    }
    size_t seen = 0;
    t.scan(int_key(rng.between(0, 19799)), {},
           [&](std::string_view, storage::RowId) { return ++seen < 100; });
    benchmark::DoNotOptimize(seen);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_RbTreeChurnScan);

// The engines' scan row path without the simulator: a 100-row pk range
// of a scan-workload-shaped table copied into a Rows and summed through
// RowRef.
void BM_TableScanRows100(benchmark::State& state) {
  storage::Table t(0, "facts",
                   storage::Schema({storage::int_col("f_id"),
                                    storage::int_col("f_bucket"),
                                    storage::int_col("f_val"),
                                    storage::char_col("f_pad", 32)}),
                   storage::IndexDef{"pk", {0}, true},
                   {storage::IndexDef{"by_bucket", {1}, false}});
  for (int64_t i = 0; i < 10000; ++i)
    t.insert_row(storage::Row{i, i % 64, i * 3, std::string("pad")});
  util::Rng rng(13);
  for (auto _ : state) {
    const int64_t lo_id = rng.between(0, 9899);
    const storage::Key lo{lo_id}, hi{lo_id + 99};
    storage::Rows rows(t.schema_ptr());
    t.scan(-1, &lo, &hi, false, [&](std::string_view, storage::RowId rid) {
      rows.push_back(t.row_image(rid));
      return true;
    });
    int64_t sum = 0;
    for (const storage::RowRef r : rows) sum += r.i(2);
    benchmark::DoNotOptimize(sum);
  }
  state.SetItemsProcessed(state.iterations() * 100);
}
BENCHMARK(BM_TableScanRows100);

// The page LRU that models buffer-cache residency, at 1024 pages:
// arg 0 re-touches the MRU page, arg 1 cycles through 512 resident pages
// (a hit that relinks), arg 2 cycles through 1025 pages (every touch
// misses and evicts).
void BM_LruTouch(benchmark::State& state) {
  constexpr size_t kCap = 1024;
  util::LruSet<storage::PageId, storage::PageIdCoords> lru(kCap);
  const uint32_t span = state.range(0) == 0   ? 1
                        : state.range(0) == 1 ? 512
                                              : uint32_t(kCap + 1);
  for (uint32_t p = 0; p < span; ++p) lru.touch({p % 4, p});
  uint32_t p = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(lru.touch({p % 4, p}).hit);
    if (++p == span) p = 0;
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_LruTouch)->Arg(0)->Arg(1)->Arg(2);

// A replica-served read scanning 500 rows of a scan-workload-shaped
// table through MemEngine::scan (one pass: page check, cache touch, row
// copy per entry), simulator included.
void BM_ReplicaScanRows500(benchmark::State& state) {
  sim::Simulation sim;
  mem::MemEngine eng(sim, "slave", mem::MemEngine::Config{});
  eng.build_schema([](storage::Database& db) {
    db.add_table("facts",
                 storage::Schema({storage::int_col("f_id"),
                                  storage::int_col("f_bucket"),
                                  storage::int_col("f_val"),
                                  storage::char_col("f_pad", 32)}),
                 storage::IndexDef{"pk", {0}, true},
                 {storage::IndexDef{"by_bucket", {1}, false}});
  });
  storage::Table& t = eng.db().table(0);
  for (int64_t i = 0; i < 10000; ++i)
    t.insert_row(storage::Row{i, i % 64, i * 3, std::string("pad")});
  util::Rng rng(17);
  size_t rows = 0;
  for (auto _ : state) {
    const int64_t lo = rng.between(0, 9499);
    sim.spawn([](mem::MemEngine& eng, int64_t lo,
                 size_t& rows) -> sim::Task<> {
      auto txn = eng.begin_read(eng.received_version());
      api::ScanSpec spec;
      spec.lo = storage::Key{lo};
      spec.hi = storage::Key{lo + 499};
      rows = (co_await eng.scan(*txn, 0, std::move(spec))).size();
      eng.finish_read(*txn);
    }(eng, lo, rows));
    sim.run();
    benchmark::DoNotOptimize(rows);
  }
  state.SetItemsProcessed(state.iterations() * 500);
}
BENCHMARK(BM_ReplicaScanRows500);

void BM_PageDiff(benchmark::State& state) {
  const int changes = int(state.range(0));
  util::Rng rng(3);
  storage::Page before;
  for (size_t i = 0; i < storage::kPageSize; ++i)
    before.raw()[i] = std::byte(uint8_t(rng.below(256)));
  storage::Page after = before;
  for (int i = 0; i < changes; ++i)
    after.raw()[rng.below(storage::kPageSize)] =
        std::byte(uint8_t(rng.below(256)));
  txn::RunBuffer runs;
  for (auto _ : state) {
    runs.clear();
    benchmark::DoNotOptimize(txn::diff_pages(before, after, runs));
  }
  state.SetBytesProcessed(state.iterations() * storage::kPageSize);
}
BENCHMARK(BM_PageDiff)->Arg(8)->Arg(64)->Arg(512);

void BM_PageDiffApply(benchmark::State& state) {
  util::Rng rng(5);
  storage::Page before;
  storage::Page after = before;
  for (int i = 0; i < 64; ++i)
    after.raw()[rng.below(storage::kPageSize)] = std::byte{0xAB};
  txn::RunBuffer runs;
  txn::diff_pages(before, after, runs);
  for (auto _ : state) {
    storage::Page target = before;
    txn::apply_runs(target, runs.view());
    benchmark::DoNotOptimize(target.raw().data());
  }
}
BENCHMARK(BM_PageDiffApply);

// A full page of 40-byte rows (203 slots) holding `rows` rows.
storage::Table page_of_rows(size_t rows) {
  storage::Table t(0, "t",
                   storage::Schema({storage::int_col("id"),
                                    storage::char_col("pad", 32)}),
                   storage::IndexDef{"pk", {0}, true});
  for (size_t i = 0; i < rows; ++i)
    t.insert_row(storage::Row{int64_t(i), std::string("pad")});
  return t;
}

// The master's pre-commit diff of a transaction that updated one row of a
// full page: the whole page against a full before-copy (Arg 0), and the
// saved bitmap and slot only (Arg 1). Both give the same runs.
void BM_PrecommitDiff(benchmark::State& state) {
  storage::Table t = page_of_rows(203);
  const storage::Page before = t.page(0);
  txn::TxnCtx txn(1, txn::TxnKind::Update);
  txn.capture_undo({0, 0}, t.page(0), 101, t.schema().row_size());
  t.update_row({0, 101}, storage::Row{int64_t{101}, std::string("changed")});
  const storage::Page& live = t.page(0);
  const bool regions = state.range(0) == 1;
  txn::RunBuffer runs;
  for (auto _ : state) {
    runs.clear();
    if (regions)
      txn::diff_undo(txn.undo()[0], live, false, runs);
    else
      txn::diff_pages(before, live, runs);
    benchmark::DoNotOptimize(runs.bytes.data());
  }
}
BENCHMARK(BM_PrecommitDiff)->Arg(0)->Arg(1);

// One order-entry new-order commit's write-set, built the way
// MemEngine::precommit builds it and then dropped, as the last replica to
// apply or discard its mods drops it: a district row and two stock rows
// updated, an order and two order lines inserted, each table on one page
// (4 mods, 10 runs). Counters: allocations per write-set (the builder is
// warmed up first, as a master's is after its first commit), and the mods
// and runs of one write-set.
void BM_OrdersWriteSet(benchmark::State& state) {
  using storage::double_col;
  using storage::int_col;
  using storage::IndexDef;
  using storage::Row;
  using storage::Schema;
  storage::Database db;
  db.add_table("district",
               Schema({int_col("d_id"), int_col("d_next_o_id"),
                       double_col("d_ytd")}),
               IndexDef{"pk", {0}, true});
  db.add_table("stock",
               Schema({int_col("s_i_id"), int_col("s_qty"),
                       double_col("s_ytd"), int_col("s_order_cnt")}),
               IndexDef{"pk", {0}, true});
  db.add_table("orders",
               Schema({int_col("o_id"), int_col("o_d_id"), int_col("o_c_id"),
                       int_col("o_entry_d"), double_col("o_total")}),
               IndexDef{"pk", {0}, true});
  db.add_table("order_line",
               Schema({int_col("ol_id"), int_col("ol_o_id"),
                       int_col("ol_i_id"), int_col("ol_qty"),
                       double_col("ol_amount")}),
               IndexDef{"pk", {0}, true});
  for (int64_t i = 0; i < 10; ++i)
    db.table(0).insert_row(Row{i, int64_t{100}, 0.0});
  for (int64_t i = 0; i < 100; ++i)
    db.table(1).insert_row(Row{i, int64_t{50}, 0.0, int64_t{0}});
  for (int64_t i = 0; i < 40; ++i)
    db.table(2).insert_row(Row{i, i % 10, i, i, 1.0});
  for (int64_t i = 0; i < 100; ++i)
    db.table(3).insert_row(Row{i, i / 3, i, int64_t{1}, 1.0});

  // Save each slot before writing it, as the engines' locking does.
  txn::TxnCtx txn(1, txn::TxnKind::Update);
  auto save = [&](storage::TableId t, storage::RowId rid) {
    storage::Table& tb = db.table(t);
    txn.capture_undo({t, rid.page}, std::as_const(tb).page(rid.page),
                     rid.slot, tb.schema().row_size());
  };
  auto update = [&](storage::TableId t, int64_t id, int col,
                    storage::Value v) {
    storage::Table& tb = db.table(t);
    const storage::RowId rid = *tb.pk_find(storage::Key{id});
    save(t, rid);
    Row row = tb.read_row(rid);
    row[col] = std::move(v);
    tb.update_row(rid, row);
  };
  auto insert = [&](storage::TableId t, const Row& row) {
    save(t, db.table(t).peek_insert_slot());
    db.table(t).insert_row(row);
  };
  update(0, 3, 1, int64_t{101});
  insert(2, Row{int64_t{40}, int64_t{3}, int64_t{7}, int64_t{9}, 2.5});
  for (int64_t i : {12, 57}) update(1, i, 1, int64_t{49});
  for (int64_t i : {100, 101})
    insert(3, Row{i, int64_t{40}, i, int64_t{1}, 1.0});

  txn::WriteSetBuilder builder;
  const std::vector<uint64_t> version(db.table_count(), 8);
  auto build = [&] {
    for (const txn::PageUndo& u : txn.undo()) {
      const storage::Table& tb = std::as_const(db).table(u.pid.table);
      txn::diff_undo(u, tb.page(u.pid.page), false, builder.runs());
      builder.add_mod(u.pid, 8);
    }
    std::shared_ptr<txn::WriteSet> ws = builder.build(1);
    ws->db_version = version;
    return ws;
  };
  const auto shape = build();
  size_t allocations = 0;
  for (auto _ : state) {
    g_count_allocations = true;
    const size_t before = g_allocations;
    benchmark::DoNotOptimize(build().get());
    allocations += g_allocations - before;
    g_count_allocations = false;
  }
  state.counters["allocs_per_ws"] =
      double(allocations) / double(state.iterations());
  state.counters["mods"] = double(shape->mods.size());
  state.counters["runs"] = double(shape->run_headers.size());
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_OrdersWriteSet);

// Free-space bookkeeping after raw application to a page of 200 rows in
// its 203 slots: the first free slot is past three bitmap words.
void BM_PageBookkeeping(benchmark::State& state) {
  storage::Table t = page_of_rows(200);
  for (auto _ : state) {
    t.refresh_page_bookkeeping(0);
    benchmark::ClobberMemory();
  }
}
BENCHMARK(BM_PageBookkeeping);

// Slave-side application of a 16-write-set stream, delivered one
// write-set per message (Arg 1, the unbatched pipeline) vs coalesced
// into WriteSetBatchMsg-sized groups (Arg 8): the per-message dispatch
// boundary that batching amortizes on the wire, measured as host time.
void BM_WriteSetApply(benchmark::State& state) {
  const size_t per_msg = size_t(state.range(0));
  util::Rng rng(7);
  storage::Page before;
  txn::WriteSetBuilder builder;
  for (storage::PageNo p = 0; p < 16; ++p) {
    storage::Page after = before;
    for (int i = 0; i < 32; ++i)
      after.raw()[rng.below(storage::kPageSize)] =
          std::byte(uint8_t(rng.below(256)));
    txn::diff_pages(before, after, builder.runs());
    builder.add_mod({0, p}, 1);
  }
  const std::shared_ptr<const txn::WriteSet> ws = builder.build(1);
  const std::vector<txn::PageMod>& mods = ws->mods;
  for (auto _ : state) {
    storage::Page target = before;
    for (size_t base = 0; base < mods.size(); base += per_msg) {
      benchmark::ClobberMemory();  // per-message dispatch boundary
      const size_t end = std::min(mods.size(), base + per_msg);
      for (size_t j = base; j < end; ++j)
        txn::apply_runs(target, mods[j].runs);
    }
    benchmark::DoNotOptimize(target.raw().data());
  }
  state.SetItemsProcessed(int64_t(state.iterations() * mods.size()));
}
BENCHMARK(BM_WriteSetApply)->Arg(1)->Arg(8);

void BM_RowCodec(benchmark::State& state) {
  storage::Schema s({storage::int_col("a"), storage::char_col("b", 24),
                     storage::double_col("c"), storage::int_col("d")});
  std::vector<std::byte> buf(s.row_size());
  storage::Row row{int64_t{42}, std::string("hello world"), 2.5,
                   int64_t{-7}};
  for (auto _ : state) {
    s.encode(row, buf);
    auto back = s.decode(buf);
    benchmark::DoNotOptimize(back.size());
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_RowCodec);

void BM_TpcwLoader(benchmark::State& state) {
  tpcw::ScaleConfig scale;
  scale.items = state.range(0);
  for (auto _ : state) {
    storage::Database db;
    tpcw::build_schema(db);
    tpcw::make_loader(scale)(db);
    benchmark::DoNotOptimize(db.total_rows());
  }
  state.SetItemsProcessed(state.iterations() * scale.items);
}
BENCHMARK(BM_TpcwLoader)->Arg(100)->Arg(1000)->Unit(benchmark::kMillisecond);

// What a DmvCluster node pays for its initial data instead of running the
// loader: a copy of the generated image, which shares its pages and index
// trees until it writes them.
void BM_DatabaseCopy(benchmark::State& state) {
  tpcw::ScaleConfig scale;
  scale.items = state.range(0);
  storage::Database image;
  tpcw::build_schema(image);
  tpcw::make_loader(scale)(image);
  for (auto _ : state) {
    storage::Database db = image;
    benchmark::DoNotOptimize(db.total_rows());
  }
  state.SetItemsProcessed(state.iterations() * scale.items);
}
BENCHMARK(BM_DatabaseCopy)->Arg(100)->Arg(1000)->Unit(benchmark::kMillisecond);

// The cost a shared copy moves from set-up into the run: one insert into
// each non-empty table of a fresh copy, which clones the page it lands on
// and that table's index trees. The row is the table's first under a key
// past every loaded one. One item is one insert; the copy is not timed.
void BM_FirstWriteAfterCopy(benchmark::State& state) {
  tpcw::ScaleConfig scale;
  scale.items = state.range(0);
  storage::Database image;
  tpcw::build_schema(image);
  tpcw::make_loader(scale)(image);
  std::vector<std::pair<storage::TableId, storage::Row>> rows;
  for (storage::TableId t = 0; t < image.table_count(); ++t) {
    const storage::Table& tb = image.table(t);
    if (tb.row_count() == 0) continue;
    std::optional<storage::RowId> first;
    tb.primary_tree().scan_all([&](std::string_view, storage::RowId r) {
      first = r;
      return false;
    });
    storage::Row row = tb.read_row(*first);
    const storage::Key pk = tb.primary_key_of(row);
    // The first integer column in the key moves past every loaded key.
    for (storage::Value& v : row) {
      auto* i = std::get_if<int64_t>(&v);
      if (!i) continue;
      const int64_t was = std::exchange(*i, int64_t{1} << 40);
      if (tb.primary_key_of(row) != pk) break;
      *i = was;
    }
    rows.emplace_back(t, std::move(row));
  }
  for (auto _ : state) {
    state.PauseTiming();
    auto db = std::make_unique<storage::Database>(image);
    state.ResumeTiming();
    for (const auto& [t, row] : rows)
      if (!db->table(t).insert_row(row)) state.SkipWithError("duplicate key");
    state.PauseTiming();
    db.reset();
    state.ResumeTiming();
  }
  state.SetItemsProcessed(state.iterations() * int64_t(rows.size()));
}
BENCHMARK(BM_FirstWriteAfterCopy)
    ->Arg(100)
    ->Arg(1000)
    ->Unit(benchmark::kMicrosecond);

// One order-entry new-order request's parameters: four scalars plus an
// item and a quantity per line (arg: lines; 15 lines is 34 keys). It is
// built once, copied at each hop (client, scheduler, engine node), and the
// procedure reads every key. One item is one request.
void BM_ParamsBuildCopyLookup(benchmark::State& state) {
  const int lines = int(state.range(0));
  std::vector<std::string> item_keys, qty_keys;
  for (int l = 0; l < lines; ++l) {
    item_keys.push_back("i" + std::to_string(l));
    qty_keys.push_back("q" + std::to_string(l));
  }
  for (auto _ : state) {
    api::Params p;
    p.set("d_id", int64_t{3}).set("c_id", int64_t{41}).set("date", 7);
    p.set("lines", int64_t(lines));
    for (int l = 0; l < lines; ++l) {
      p.set("i" + std::to_string(l), int64_t(l));
      p.set("q" + std::to_string(l), int64_t(l + 1));
    }
    const api::Params client = p;
    const api::Params sched = client;
    const api::Params node = sched;
    int64_t sum = node.i("d_id") + node.i("c_id") + node.i("date");
    for (int64_t l = 0; l < node.i("lines"); ++l)
      sum += node.i(item_keys[size_t(l)]) * node.i(qty_keys[size_t(l)]);
    benchmark::DoNotOptimize(sum);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_ParamsBuildCopyLookup)->Arg(4)->Arg(15);

// A receive loop's dispatch over an envelope stream: eight payload types
// in one closed message set, dispatched with one std::visit as
// EngineNode::main_loop dispatches its messages, with every type equally
// common. One item is one envelope dispatched.
template <int N>
struct Msg {
  uint64_t v = N;
};
using MsgSet = std::variant<Msg<0>, Msg<1>, Msg<2>, Msg<3>, Msg<4>, Msg<5>,
                            Msg<6>, Msg<7>>;

void BM_EnvelopeDispatch(benchmark::State& state) {
  std::vector<net::Envelope<MsgSet>> stream;
  [&]<int... Ns>(std::integer_sequence<int, Ns...>) {
    for (int round = 0; round < 16; ++round)
      (stream.push_back({0, 1, Msg<Ns>{}}), ...);
  }(std::make_integer_sequence<int, 8>{});
  for (auto _ : state) {
    uint64_t sum = 0;
    for (const auto& env : stream)
      sum += std::visit([](const auto& m) { return m.v; }, env.msg);
    benchmark::DoNotOptimize(sum);
  }
  state.SetItemsProcessed(state.iterations() * int64_t(stream.size()));
}
BENCHMARK(BM_EnvelopeDispatch);

}  // namespace

BENCHMARK_MAIN();
