// google-benchmark micro-benchmarks for the hot primitives: RB-tree index
// operations, page diff/apply, the page LRU, a replica's range scan, the
// lock table fast path, and the TPC-W generator. These are host-time
// benchmarks of the real data structures (the macro experiments charge
// modeled virtual time instead).
#include <benchmark/benchmark.h>

#include "mem/engine.hpp"
#include "storage/table.hpp"
#include "tpcw/generator.hpp"
#include "txn/write_set.hpp"
#include "util/lru.hpp"
#include "util/rng.hpp"

using namespace dmv;

namespace {

// Encoded int64 key, as Table builds it for an INT primary key.
std::string int_key(int64_t v) {
  std::string k(8, '\0');
  storage::encode_int(v, k.data());
  return k;
}

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
  for (auto _ : state) {
    auto runs = txn::diff_pages(before, after);
    benchmark::DoNotOptimize(runs.size());
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
  const auto runs = txn::diff_pages(before, after);
  for (auto _ : state) {
    storage::Page target = before;
    txn::apply_runs(target, runs);
    benchmark::DoNotOptimize(target.raw().data());
  }
}
BENCHMARK(BM_PageDiffApply);

// Slave-side application of a 16-write-set stream, delivered one
// write-set per message (Arg 1, the unbatched pipeline) vs coalesced
// into WriteSetBatchMsg-sized groups (Arg 8): the per-message dispatch
// boundary that batching amortizes on the wire, measured as host time.
void BM_WriteSetApply(benchmark::State& state) {
  const size_t per_msg = size_t(state.range(0));
  util::Rng rng(7);
  storage::Page before;
  std::vector<txn::PageMod> mods(16);
  for (auto& mod : mods) {
    storage::Page after = before;
    for (int i = 0; i < 32; ++i)
      after.raw()[rng.below(storage::kPageSize)] =
          std::byte(uint8_t(rng.below(256)));
    mod.runs = txn::diff_pages(before, after);
  }
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
// loader: an exact copy of the generated image (pages and index trees).
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

}  // namespace

BENCHMARK_MAIN();
