#include <gtest/gtest.h>

#include "disk/replicated_tier.hpp"
#include "util/rng.hpp"

namespace dmv::disk {
namespace {

using storage::Key;
using storage::Row;
using storage::Value;

inline Key K(Value a) { return Key{std::move(a)}; }
inline Row R(Value a, Value b) { return Row{std::move(a), std::move(b)}; }

void demo_schema(storage::Database& db) {
  db.add_table("acct",
               storage::Schema({storage::int_col("id"),
                                storage::int_col("balance")}),
               storage::IndexDef{"pk", {0}, true});
}

TEST(SimDisk, SerializesRequests) {
  sim::Simulation sim;
  txn::CostModel costs;
  SimDisk disk(sim, costs);
  std::vector<sim::Time> done;
  for (int i = 0; i < 3; ++i) {
    sim.spawn([](sim::Simulation& s, SimDisk& d,
                 std::vector<sim::Time>& done) -> sim::Task<> {
      co_await d.read_page();
      done.push_back(s.now());
    }(sim, disk, done));
  }
  sim.run();
  ASSERT_EQ(done.size(), 3u);
  EXPECT_EQ(done[0], costs.disk_page_read);
  EXPECT_EQ(done[1], 2 * costs.disk_page_read);
  EXPECT_EQ(done[2], 3 * costs.disk_page_read);
  EXPECT_EQ(disk.reads(), 3u);
}

TEST(BufferPool, HitAvoidsDisk) {
  sim::Simulation sim;
  txn::CostModel costs;
  SimDisk disk(sim, costs);
  BufferPool pool(disk, 8);
  sim.spawn([](sim::Simulation& s, SimDisk& d, BufferPool& p,
               const txn::CostModel& c) -> sim::Task<> {
    co_await p.fetch({0, 0});
    EXPECT_EQ(s.now(), c.disk_page_read);
    co_await p.fetch({0, 0});
    EXPECT_EQ(s.now(), c.disk_page_read);  // hit: no extra time
    EXPECT_EQ(d.reads(), 1u);
  }(sim, disk, pool, costs));
  sim.run();
  EXPECT_EQ(pool.hits(), 1u);
  EXPECT_EQ(pool.misses(), 1u);
}

TEST(BufferPool, DirtyEvictionWritesBack) {
  sim::Simulation sim;
  txn::CostModel costs;
  SimDisk disk(sim, costs);
  BufferPool pool(disk, 2);
  sim.spawn([](SimDisk& d, BufferPool& p) -> sim::Task<> {
    co_await p.fetch({0, 0});
    p.mark_dirty({0, 0});
    co_await p.fetch({0, 1});
    co_await p.fetch({0, 2});  // evicts {0,0}, dirty -> write-back
    EXPECT_EQ(d.writes(), 1u);
    EXPECT_EQ(p.writebacks(), 1u);
  }(disk, pool));
  sim.run();
}

TEST(Wal, GroupCommitAbsorbsConcurrentCommitters) {
  sim::Simulation sim;
  txn::CostModel costs;
  SimDisk disk(sim, costs);
  Wal wal(sim, disk);
  int done = 0;
  // 10 committers appending at the same instant: first flush covers all.
  for (int i = 0; i < 10; ++i) {
    sim.spawn([](Wal& w, int& done) -> sim::Task<> {
      w.append(100);
      co_await w.sync();
      ++done;
    }(wal, done));
  }
  sim.run();
  EXPECT_EQ(done, 10);
  // All 10 records were appended before the first fsync completed, so one
  // (or at most two) fsyncs suffice.
  EXPECT_LE(disk.fsyncs(), 2u);
}

TEST(Wal, LaterCommitWaitsForSecondFlush) {
  sim::Simulation sim;
  txn::CostModel costs;
  SimDisk disk(sim, costs);
  Wal wal(sim, disk);
  std::vector<sim::Time> done;
  sim.spawn([](Wal& w, std::vector<sim::Time>& done,
               sim::Simulation& s) -> sim::Task<> {
    w.append(10);
    co_await w.sync();
    done.push_back(s.now());
  }(wal, done, sim));
  sim.spawn([](Wal& w, std::vector<sim::Time>& done, sim::Simulation& s,
               const txn::CostModel& c) -> sim::Task<> {
    co_await s.delay(c.log_fsync / 2);  // mid-flush
    w.append(10);
    co_await w.sync();
    done.push_back(s.now());
  }(wal, done, sim, costs));
  sim.run();
  ASSERT_EQ(done.size(), 2u);
  EXPECT_EQ(done[0], costs.log_fsync);
  EXPECT_EQ(done[1], 2 * costs.log_fsync);
  EXPECT_EQ(disk.fsyncs(), 2u);
}

struct EngineFixture {
  sim::Simulation sim;
  DiskEngine eng;
  EngineFixture(DiskEngine::Config cfg = {}) : eng(sim, "d0", cfg) {
    eng.build_schema(demo_schema);
  }
  template <typename Body>
  void run(Body&& body) {
    sim.spawn(std::forward<Body>(body));
    sim.run();
  }
};

TEST(DiskEngine, InsertCommitReadBack) {
  EngineFixture f;
  f.run([](EngineFixture& f) -> sim::Task<> {
    auto txn = f.eng.begin(txn::TxnKind::Update);
    const bool ok = co_await f.eng.insert(*txn, 0, R(int64_t{1}, int64_t{100}));
    EXPECT_TRUE(ok);
    co_await f.eng.commit(*txn);

    auto txn2 = f.eng.begin(txn::TxnKind::ReadOnly);
    auto row = co_await f.eng.get(*txn2, 0, K(int64_t{1}));
    co_await f.eng.commit(*txn2);
    EXPECT_TRUE(row.has_value());
    EXPECT_EQ(std::get<int64_t>((*row)[1]), 100);
  }(f));
  EXPECT_EQ(f.eng.stats().commits, 1u);
  EXPECT_EQ(f.eng.stats().read_commits, 1u);
  EXPECT_EQ(f.eng.last_commit_seq(), 1u);
  // Commit required a WAL fsync.
  EXPECT_GE(f.eng.disk().fsyncs(), 1u);
}

// A zero-limit scan walks no index entry: it returns nothing, charges no
// index_scan_entry, and fetches no page, with or without a filter.
TEST(DiskEngine, ZeroLimitScanWalksNothing) {
  EngineFixture f;
  f.run([](EngineFixture& f) -> sim::Task<> {
    auto txn = f.eng.begin(txn::TxnKind::Update);
    for (int64_t i = 0; i < 5; ++i)
      co_await f.eng.insert(*txn, 0, R(i, i * 10));
    co_await f.eng.commit(*txn);

    for (const bool filtered : {false, true}) {
      api::ScanSpec spec;
      spec.limit = 0;
      if (filtered) spec.filter = [](const storage::RowRef&) { return true; };
      const uint64_t fetches = f.eng.pool().hits() + f.eng.pool().misses();
      auto rd = f.eng.begin(txn::TxnKind::ReadOnly);
      const sim::Time t0 = f.sim.now();
      const storage::Rows rows = co_await f.eng.scan(*rd, 0, spec);
      const sim::Time charged = f.sim.now() - t0;
      co_await f.eng.commit(*rd);
      EXPECT_TRUE(rows.empty());
      EXPECT_EQ(charged, f.eng.costs().disk_cpu_per_query);
      EXPECT_EQ(f.eng.pool().hits() + f.eng.pool().misses(), fetches);
    }
  }(f));
}

TEST(DiskEngine, ReadersBlockBehindWriters) {
  // The serializable-2PL property the paper contrasts with DMV: a reader
  // of a page being updated stalls until the writer commits. (A reader
  // caught in a deadlock would instead die and retry; that path is
  // covered by RunProcRetriesDeadlockVictims below.)
  EngineFixture f;
  sim::Time read_done = -1, write_done = -1;
  f.run([](EngineFixture& f) -> sim::Task<> {
    auto txn = f.eng.begin(txn::TxnKind::Update);
    co_await f.eng.insert(*txn, 0, R(int64_t{1}, int64_t{100}));
    co_await f.eng.commit(*txn);
  }(f));
  // Reader begins first but reads only after the writer has taken the X
  // lock.
  auto reader_txn = f.eng.begin(txn::TxnKind::ReadOnly);
  auto writer_txn = f.eng.begin(txn::TxnKind::Update);
  f.sim.spawn([](EngineFixture& f, txn::TxnCtx& txn,
                 sim::Time& write_done) -> sim::Task<> {
    co_await f.eng.update(txn, 0, K(int64_t{1}),
                          [](Row& r) { r[1] = int64_t{1}; });
    co_await f.sim.delay(50 * sim::kMsec);  // hold the X lock a while
    co_await f.eng.commit(txn);
    write_done = f.sim.now();
  }(f, *writer_txn, write_done));
  f.sim.spawn([](EngineFixture& f, txn::TxnCtx& txn,
                 sim::Time& read_done) -> sim::Task<> {
    co_await f.sim.delay(sim::kMsec);  // arrive while writer holds X
    auto row = co_await f.eng.get(txn, 0, K(int64_t{1}));
    co_await f.eng.commit(txn);
    EXPECT_EQ(std::get<int64_t>((*row)[1]), 1);  // sees committed value
    read_done = f.sim.now();
  }(f, *reader_txn, read_done));
  f.sim.run();
  EXPECT_GT(read_done, write_done);  // reader stalled behind the writer
}

TEST(DiskEngine, CommitLatencyIncludesGroupFsync) {
  EngineFixture f;
  sim::Time committed_at = -1;
  f.run([](EngineFixture& f, sim::Time& done) -> sim::Task<> {
    auto txn = f.eng.begin(txn::TxnKind::Update);
    co_await f.eng.insert(*txn, 0, R(int64_t{1}, int64_t{1}));
    const sim::Time before = f.sim.now();
    co_await f.eng.commit(*txn);
    done = f.sim.now() - before;
  }(f, committed_at));
  EXPECT_GE(committed_at, f.eng.costs().log_fsync);
}

TEST(DiskEngine, ReadOnlyCommitSkipsWal) {
  EngineFixture f;
  f.run([](EngineFixture& f) -> sim::Task<> {
    auto txn = f.eng.begin(txn::TxnKind::ReadOnly);
    auto r = co_await f.eng.get(*txn, 0, K(int64_t{1}));
    (void)r;
    co_await f.eng.commit(*txn);
  }(f));
  EXPECT_EQ(f.eng.wal().records(), 0u);
  EXPECT_EQ(f.eng.disk().fsyncs(), 0u);
}

TEST(BufferPool, ResidencyNeverExceedsCapacity) {
  sim::Simulation sim;
  txn::CostModel costs;
  SimDisk disk(sim, costs);
  BufferPool pool(disk, 4);
  sim.spawn([](BufferPool& p) -> sim::Task<> {
    for (uint32_t i = 0; i < 50; ++i) {
      storage::PageId pid{0, i};
      co_await p.fetch(pid);
      EXPECT_LE(p.resident_pages(), 4u);
    }
  }(pool));
  sim.run();
  EXPECT_EQ(pool.misses(), 50u);
}

TEST(DiskEngine, RollbackRestores) {
  EngineFixture f;
  f.run([](EngineFixture& f) -> sim::Task<> {
    auto txn = f.eng.begin(txn::TxnKind::Update);
    co_await f.eng.insert(*txn, 0, R(int64_t{1}, int64_t{100}));
    co_await f.eng.commit(*txn);
    auto txn2 = f.eng.begin(txn::TxnKind::Update);
    co_await f.eng.update(*txn2, 0, K(int64_t{1}),
                          [](Row& r) { r[1] = int64_t{0}; });
    f.eng.rollback(*txn2);
    auto txn3 = f.eng.begin(txn::TxnKind::ReadOnly);
    auto row = co_await f.eng.get(*txn3, 0, K(int64_t{1}));
    co_await f.eng.commit(*txn3);
    EXPECT_EQ(std::get<int64_t>((*row)[1]), 100);
  }(f));
  EXPECT_EQ(f.eng.last_commit_seq(), 1u);  // rollback produced no record
}

TEST(DiskEngine, BinlogAndReplay) {
  // Replaying the op-logs commit hands back, in commit order, rebuilds the
  // source's pages exactly.
  EngineFixture src, dst;
  std::vector<txn::TxnRecord> records;
  src.run([](EngineFixture& f,
             std::vector<txn::TxnRecord>& out) -> sim::Task<> {
    auto commit = [&](txn::TxnCtx& txn) -> sim::Task<> {
      txn::TxnRecord rec;
      rec.ops = co_await f.eng.commit(txn);
      rec.seq = f.eng.last_commit_seq();
      out.push_back(rec);
    };
    for (int i = 0; i < 10; ++i) {
      auto txn = f.eng.begin(txn::TxnKind::Update);
      co_await f.eng.insert(*txn, 0, R(int64_t{i}, int64_t{i * 10}));
      co_await commit(*txn);
    }
    auto txn = f.eng.begin(txn::TxnKind::Update);
    co_await f.eng.update(*txn, 0, K(int64_t{3}),
                          [](Row& r) { r[1] = int64_t{999}; });
    co_await f.eng.remove(*txn, 0, K(int64_t{7}));
    co_await commit(*txn);
  }(src, records));
  ASSERT_EQ(records.size(), 11u);

  dst.run([&records](EngineFixture& f) -> sim::Task<> {
    for (const auto& rec : records) co_await f.eng.apply_record(rec);
  }(dst));
  EXPECT_TRUE(src.eng.db().pages_equal(dst.eng.db()));
  EXPECT_EQ(dst.eng.applied_seq(), 11u);
  EXPECT_EQ(dst.eng.db().table(0).row_count(), 9u);
}

TEST(DiskEngine, RunProcRetriesDeadlockVictims) {
  EngineFixture f;
  api::ProcInfo bump;
  bump.read_only = false;
  bump.fn = [](api::Connection& c, const api::Params& p)
      -> sim::Task<api::TxnResult> {
    api::TxnResult r;
    Key k = K(p.i("id"));
    // Read first (S), then write (S->X upgrade): two bumps holding S on
    // the same page deadlock on their upgrades, and one of them dies.
    co_await c.get(0, k);
    co_await c.update(0, k, [](Row& row) {
      row[1] = std::get<int64_t>(row[1]) + 1;
    });
    co_return r;
  };
  f.run([](EngineFixture& f) -> sim::Task<> {
    auto txn = f.eng.begin(txn::TxnKind::Update);
    co_await f.eng.insert(*txn, 0, R(int64_t{1}, int64_t{0}));
    co_await f.eng.commit(*txn);
  }(f));
  // 20 concurrent read-then-increment bumps on one row: upgrade cycles
  // produce deadlock victims, but every bump must eventually commit
  // exactly once.
  int done = 0;
  for (int i = 0; i < 20; ++i) {
    f.sim.spawn([](EngineFixture& f, const api::ProcInfo& proc,
                   int& done) -> sim::Task<> {
      api::Params p;
      p.set("id", int64_t{1});
      auto r = co_await run_proc_on_disk(f.eng, proc, p);
      EXPECT_TRUE(r.has_value());
      ++done;
    }(f, bump, done));
  }
  f.sim.run();
  EXPECT_EQ(done, 20);
  EXPECT_GE(f.eng.locks().death_count(), 1u);
  f.run([](EngineFixture& f) -> sim::Task<> {
    auto txn = f.eng.begin(txn::TxnKind::ReadOnly);
    auto row = co_await f.eng.get(*txn, 0, K(int64_t{1}));
    co_await f.eng.commit(*txn);
    EXPECT_EQ(std::get<int64_t>((*row)[1]), 20);
  }(f));
}

api::ProcRegistry make_registry() {
  api::ProcRegistry reg;
  api::ProcInfo deposit;
  deposit.read_only = false;
  deposit.tables = {0};
  deposit.fn = [](api::Connection& c, const api::Params& p)
      -> sim::Task<api::TxnResult> {
    Key k = K(p.i("id"));
    const int64_t amt = p.i("amt");
    const bool found = co_await c.update(0, k, [amt](Row& r) {
      r[1] = std::get<int64_t>(r[1]) + amt;
    });
    if (!found) {
      Row row = R(p.i("id"), amt);
      co_await c.insert(0, row);
    }
    co_return api::TxnResult{};
  };
  reg.register_proc("deposit", deposit);

  api::ProcInfo check;
  check.read_only = true;
  check.tables = {0};
  check.fn = [](api::Connection& c, const api::Params& p)
      -> sim::Task<api::TxnResult> {
    Key k = K(p.i("id"));
    auto row = co_await c.get(0, k);
    api::TxnResult r;
    r.ok = row.has_value();
    r.value = row ? std::get<int64_t>((*row)[1]) : 0;
    co_return r;
  };
  reg.register_proc("check", check);
  return reg;
}

TEST(ReplicatedDiskTier, ActivesStayInSync) {
  sim::Simulation sim;
  auto reg = make_registry();
  ReplicatedDiskTier::Config cfg;
  cfg.backup_sync_period = 10 * sim::kSec;
  ReplicatedDiskTier tier(sim, cfg, demo_schema, reg);
  tier.start();
  int done = 0;
  for (int i = 0; i < 30; ++i) {
    sim.spawn([](ReplicatedDiskTier& tier, int id, int& done) -> sim::Task<> {
      api::Params p;
      p.set("id", int64_t(id % 7)).set("amt", int64_t{5});
      auto r = co_await tier.execute("deposit", p);
      EXPECT_TRUE(r.has_value());
      ++done;
    }(tier, i, done));
  }
  sim.run(5 * sim::kSec);
  EXPECT_EQ(done, 30);
  // Both actives converge (appliers drain quickly).
  EXPECT_TRUE(tier.engine(0).db().pages_equal(tier.engine(1).db()));
  // Backup is stale until the periodic sync fires.
  EXPECT_FALSE(tier.engine(0).db().pages_equal(tier.engine(2).db()));
  sim.run(11 * sim::kSec);
  EXPECT_TRUE(tier.engine(0).db().pages_equal(tier.engine(2).db()));
  tier.stop();
}

TEST(ReplicatedDiskTier, FailoverIntegratesBackup) {
  sim::Simulation sim;
  auto reg = make_registry();
  ReplicatedDiskTier::Config cfg;
  cfg.backup_sync_period = 3600 * sim::kSec;  // backup stays stale
  ReplicatedDiskTier tier(sim, cfg, demo_schema, reg);
  tier.start();
  // Build a backlog of updates.
  int done = 0;
  for (int i = 0; i < 50; ++i) {
    sim.spawn([](ReplicatedDiskTier& tier, int id, int& done) -> sim::Task<> {
      api::Params p;
      p.set("id", int64_t(id)).set("amt", int64_t{1});
      auto r = co_await tier.execute("deposit", p);
      EXPECT_TRUE(r.has_value());
      ++done;
    }(tier, i, done));
  }
  sim.run(30 * sim::kSec);
  EXPECT_EQ(done, 50);
  EXPECT_EQ(tier.active_count(), 2u);

  tier.kill_active(1);
  sim.run(120 * sim::kSec);
  // Backup replayed the backlog and was promoted.
  EXPECT_EQ(tier.active_count(), 2u);
  EXPECT_TRUE(tier.is_active(2));
  EXPECT_EQ(tier.failover().backlog_txns, 50u);
  EXPECT_GT(tier.failover().db_update_duration(), 0);
  EXPECT_TRUE(tier.engine(0).db().pages_equal(tier.engine(2).db()));

  // Reads keep flowing after fail-over.
  bool read_ok = false;
  sim.spawn([](ReplicatedDiskTier& tier, bool& ok) -> sim::Task<> {
    api::Params p;
    p.set("id", int64_t{5});
    auto r = co_await tier.execute("check", p);
    ok = r.has_value() && r->ok && r->value == 1;
  }(tier, read_ok));
  sim.run(200 * sim::kSec);
  EXPECT_TRUE(read_ok);
  tier.stop();
}

TEST(ReplicatedDiskTier, SequencerDeathFailsOverUpdates) {
  sim::Simulation sim;
  auto reg = make_registry();
  ReplicatedDiskTier::Config cfg;
  ReplicatedDiskTier tier(sim, cfg, demo_schema, reg);
  tier.start();
  sim.spawn([](ReplicatedDiskTier& tier) -> sim::Task<> {
    api::Params p;
    p.set("id", int64_t{1}).set("amt", int64_t{1});
    auto r = co_await tier.execute("deposit", p);
    EXPECT_TRUE(r.has_value());
  }(tier));
  sim.run(5 * sim::kSec);
  tier.kill_active(0);  // node 1 becomes sequencer
  bool ok = false;
  sim.spawn([](ReplicatedDiskTier& tier, bool& ok) -> sim::Task<> {
    api::Params p;
    p.set("id", int64_t{2}).set("amt", int64_t{3});
    auto r = co_await tier.execute("deposit", p);
    ok = r.has_value();
  }(tier, ok));
  sim.run(200 * sim::kSec);
  EXPECT_TRUE(ok);
  tier.stop();
}

}  // namespace
}  // namespace dmv::disk
