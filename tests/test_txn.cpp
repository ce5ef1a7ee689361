#include <gtest/gtest.h>

#include "storage/table.hpp"
#include "txn/lock_manager.hpp"
#include "txn/write_set.hpp"
#include "util/rng.hpp"

namespace dmv::txn {
namespace {

using storage::Key;
using storage::PageId;
using storage::Row;

struct LmFixture {
  sim::Simulation sim;
  LockManager lm;
  uint64_t next_id = 1;
  LmFixture() : lm(sim) {}
  std::vector<std::unique_ptr<TxnCtx>> txns;
  TxnCtx& make(TxnKind k = TxnKind::Update) {
    txns.push_back(std::make_unique<TxnCtx>(next_id++, k));
    return *txns.back();
  }
};

constexpr PageId kP{0, 0};
constexpr PageId kQ{0, 1};

TEST(LockManager, SharedLocksCoexist) {
  LmFixture f;
  auto& t1 = f.make();
  auto& t2 = f.make();
  std::vector<LockRc> rcs;
  f.sim.spawn([](LmFixture& f, TxnCtx& t, std::vector<LockRc>& out)
                  -> sim::Task<> {
    out.push_back(co_await f.lm.acquire(t, kP, LockMode::Shared));
  }(f, t1, rcs));
  f.sim.spawn([](LmFixture& f, TxnCtx& t, std::vector<LockRc>& out)
                  -> sim::Task<> {
    out.push_back(co_await f.lm.acquire(t, kP, LockMode::Shared));
  }(f, t2, rcs));
  f.sim.run();
  ASSERT_EQ(rcs.size(), 2u);
  EXPECT_EQ(rcs[0], LockRc::Granted);
  EXPECT_EQ(rcs[1], LockRc::Granted);
  EXPECT_TRUE(f.lm.held_by(kP, t1));
  EXPECT_TRUE(f.lm.held_by(kP, t2));
}

TEST(LockManager, ReentrantAndUpgrade) {
  LmFixture f;
  auto& t = f.make();
  f.sim.spawn([](LmFixture& f, TxnCtx& t) -> sim::Task<> {
    EXPECT_EQ(co_await f.lm.acquire(t, kP, LockMode::Shared),
              LockRc::Granted);
    EXPECT_EQ(co_await f.lm.acquire(t, kP, LockMode::Shared),
              LockRc::Granted);
    // Sole sharer upgrades instantly.
    EXPECT_EQ(co_await f.lm.acquire(t, kP, LockMode::Exclusive),
              LockRc::Granted);
    // X implies S.
    EXPECT_EQ(co_await f.lm.acquire(t, kP, LockMode::Shared),
              LockRc::Granted);
    EXPECT_EQ(t.held_locks().size(), 1u);
    f.lm.release_all(t);
  }(f, t));
  f.sim.run();
  EXPECT_EQ(f.lm.lock_count(), 0u);
}

TEST(LockManager, ShutdownCancelsWaiters) {
  LmFixture f;
  auto& waiter = f.make();
  auto& holder = f.make();
  LockRc rc = LockRc::Granted;
  f.sim.spawn([](LmFixture& f, TxnCtx& t) -> sim::Task<> {
    co_await f.lm.acquire(t, kP, LockMode::Exclusive);
    co_await f.sim.delay(1000);  // never releases before shutdown
  }(f, holder));
  f.sim.spawn([](LmFixture& f, TxnCtx& t, LockRc& rc) -> sim::Task<> {
    co_await f.sim.delay(1);
    rc = co_await f.lm.acquire(t, kP, LockMode::Shared);
  }(f, waiter, rc));
  // The waiter blocks behind the X holder; shutdown cancels it.
  f.sim.schedule_at(50, [&] { f.lm.shutdown(); });
  f.sim.run();
  EXPECT_EQ(rc, LockRc::Cancelled);
}

// Stress: random lock workloads must never deadlock (run to completion)
// and must keep the lock table consistent.
class LockStress : public ::testing::TestWithParam<uint64_t> {};

TEST_P(LockStress, NoDeadlockUnderContention) {
  LmFixture f;
  util::Rng rng(GetParam());
  int completed = 0;
  const int kTxns = 60;
  for (int i = 0; i < kTxns; ++i) {
    // Txn coroutine: lock 1-4 random pages (mixed modes), hold, release.
    // On Died, release everything and retry after a backoff.
    auto body = [](LmFixture& f, util::Rng& rng, int& done,
                   int idx) -> sim::Task<> {
      co_await f.sim.delay(sim::Time(rng.below(50)));
      TxnCtx txn(uint64_t(idx + 1), TxnKind::Update);
      for (;;) {
        bool died = false;
        const int npages = 1 + int(rng.below(4));
        for (int k = 0; k < npages && !died; ++k) {
          const PageId pid{0, storage::PageNo(rng.below(6))};
          const LockMode m =
              rng.chance(0.5) ? LockMode::Shared : LockMode::Exclusive;
          const LockRc rc = co_await f.lm.acquire(txn, pid, m);
          switch (rc) {
            case LockRc::Granted:
              break;
            case LockRc::Died:
              died = true;
              break;
            case LockRc::Cancelled:
              co_return;
          }
        }
        if (!died) {
          co_await f.sim.delay(sim::Time(rng.below(20)));
          f.lm.release_all(txn);
          ++done;
          co_return;
        }
        f.lm.release_all(txn);
        co_await f.sim.delay(sim::Time(1 + rng.below(30)));
      }
    };
    f.sim.spawn(body(f, rng, completed, i));
  }
  f.sim.run(10 * sim::kSec);
  EXPECT_EQ(completed, kTxns);   // everyone eventually commits
  EXPECT_EQ(f.lm.lock_count(), 0u);
}

INSTANTIATE_TEST_SUITE_P(Seeds, LockStress,
                         ::testing::Values(11, 22, 33, 44, 55, 66));

// Deadlock detection: a genuine cycle kills exactly one participant.
TEST(LockManager, DetectsTwoPartyDeadlock) {
  LmFixture f;
  auto& t1 = f.make();
  auto& t2 = f.make();
  std::vector<LockRc> rcs;
  f.sim.spawn([](LmFixture& f, TxnCtx& t, std::vector<LockRc>& rcs)
                  -> sim::Task<> {
    co_await f.lm.acquire(t, kP, LockMode::Exclusive);
    co_await f.sim.delay(10);
    const LockRc rc = co_await f.lm.acquire(t, kQ, LockMode::Exclusive);
    rcs.push_back(rc);
    if (rc == LockRc::Died) f.lm.release_all(t);
  }(f, t1, rcs));
  f.sim.spawn([](LmFixture& f, TxnCtx& t, std::vector<LockRc>& rcs)
                  -> sim::Task<> {
    co_await f.lm.acquire(t, kQ, LockMode::Exclusive);
    co_await f.sim.delay(10);
    const LockRc rc = co_await f.lm.acquire(t, kP, LockMode::Exclusive);
    rcs.push_back(rc);
    if (rc == LockRc::Died) f.lm.release_all(t);
  }(f, t2, rcs));
  f.sim.run(sim::kSec);
  ASSERT_EQ(rcs.size(), 2u);
  // Exactly one died; the survivor was then granted.
  EXPECT_EQ((rcs[0] == LockRc::Died) + (rcs[1] == LockRc::Died), 1);
  EXPECT_EQ((rcs[0] == LockRc::Granted) + (rcs[1] == LockRc::Granted), 1);
}

TEST(LockManager, NoFalseDeadlockOnPlainContention) {
  LmFixture f;  // the later conflicting requester just waits
  auto& t1 = f.make();
  auto& t2 = f.make();
  std::vector<sim::Time> done;
  f.sim.spawn([](LmFixture& f, TxnCtx& t, std::vector<sim::Time>& d)
                  -> sim::Task<> {
    co_await f.lm.acquire(t, kP, LockMode::Exclusive);
    co_await f.sim.delay(100);
    f.lm.release_all(t);
    d.push_back(f.sim.now());
  }(f, t1, done));
  f.sim.spawn([](LmFixture& f, TxnCtx& t, std::vector<sim::Time>& d)
                  -> sim::Task<> {
    co_await f.sim.delay(10);
    const LockRc rc = co_await f.lm.acquire(t, kP, LockMode::Exclusive);
    EXPECT_EQ(rc, LockRc::Granted);
    f.lm.release_all(t);
    d.push_back(f.sim.now());
  }(f, t2, done));
  f.sim.run();
  ASSERT_EQ(done.size(), 2u);
  EXPECT_EQ(done[1], 100);
}

TEST(WriteSet, DiffEmptyPagesIsEmpty) {
  storage::Page a, b;
  EXPECT_TRUE(diff_pages(a, b).empty());
}

TEST(WriteSet, DiffFindsChangedRuns) {
  storage::Page a, b;
  b.raw()[100] = std::byte{1};
  b.raw()[101] = std::byte{2};
  b.raw()[500] = std::byte{3};
  auto runs = diff_pages(a, b);
  ASSERT_EQ(runs.size(), 2u);
  EXPECT_EQ(runs[0].offset, 100u);
  EXPECT_EQ(runs[0].bytes.size(), 2u);
  EXPECT_EQ(runs[1].offset, 500u);
}

TEST(WriteSet, NearbyRunsMerge) {
  storage::Page a, b;
  b.raw()[100] = std::byte{1};
  b.raw()[105] = std::byte{2};  // gap of 4 <= merge_gap 8
  auto runs = diff_pages(a, b);
  ASSERT_EQ(runs.size(), 1u);
  EXPECT_EQ(runs[0].offset, 100u);
  EXPECT_EQ(runs[0].bytes.size(), 6u);
}

TEST(WriteSet, ApplyReconstructsTarget) {
  util::Rng rng(99);
  storage::Page before, after;
  // Randomize both pages from a shared base, then scatter changes.
  for (size_t i = 0; i < storage::kPageSize; ++i)
    before.raw()[i] = std::byte(uint8_t(rng.below(256)));
  after = before;
  for (int i = 0; i < 200; ++i)
    after.raw()[rng.below(storage::kPageSize)] =
        std::byte(uint8_t(rng.below(256)));
  auto runs = diff_pages(before, after);
  storage::Page rebuilt = before;
  apply_runs(rebuilt, runs);
  EXPECT_TRUE(rebuilt == after);
}

// Property: diff/apply round-trips for random page pairs and random gaps.
class DiffProperty
    : public ::testing::TestWithParam<std::tuple<uint64_t, size_t>> {};

TEST_P(DiffProperty, RoundTrips) {
  auto [seed, gap] = GetParam();
  util::Rng rng(seed);
  storage::Page before, after;
  for (size_t i = 0; i < storage::kPageSize; ++i)
    before.raw()[i] = std::byte(uint8_t(rng.below(4)));
  after = before;
  const int changes = 1 + int(rng.below(500));
  for (int i = 0; i < changes; ++i)
    after.raw()[rng.below(storage::kPageSize)] =
        std::byte(uint8_t(rng.below(4)));
  auto runs = diff_pages(before, after, gap);
  storage::Page rebuilt = before;
  apply_runs(rebuilt, runs);
  EXPECT_TRUE(rebuilt == after);
  // Runs must be sorted and non-overlapping.
  for (size_t i = 1; i < runs.size(); ++i)
    EXPECT_GE(runs[i].offset,
              runs[i - 1].offset + runs[i - 1].bytes.size());
}

INSTANTIATE_TEST_SUITE_P(
    Cases, DiffProperty,
    ::testing::Combine(::testing::Values(1, 7, 42, 1234),
                       ::testing::Values(0, 1, 8, 64)));

storage::Schema small_schema() {
  return storage::Schema({storage::int_col("id"), storage::int_col("v")});
}

TEST(WriteSet, AffectedSlotsFromRowBytes) {
  storage::Schema s = small_schema();  // row_size 16
  PageMod mod;
  mod.pid = {0, 0};
  // Bytes of slot 2: header + [32, 48).
  mod.runs.push_back(ByteRun{uint32_t(storage::kPageHeader + 33),
                             std::vector<std::byte>(4)});
  auto slots = mod.affected_slots(s.row_size(), 100);
  EXPECT_EQ(slots, (std::vector<uint16_t>{2}));
}

TEST(WriteSet, AffectedSlotsFromBitmap) {
  storage::Schema s = small_schema();
  PageMod mod;
  mod.pid = {0, 0};
  // Bitmap byte 1 covers slots 8..15.
  mod.runs.push_back(ByteRun{1, std::vector<std::byte>(1)});
  auto slots = mod.affected_slots(s.row_size(), 100);
  ASSERT_EQ(slots.size(), 8u);
  EXPECT_EQ(slots.front(), 8u);
  EXPECT_EQ(slots.back(), 15u);
}

TEST(WriteSet, ApplyModIndexedReplaysInsert) {
  storage::Table master(0, "t", small_schema(),
                        storage::IndexDef{"pk", {0}, true});
  storage::Table slave(0, "t", small_schema(),
                       storage::IndexDef{"pk", {0}, true});
  // Capture before-image, do a logical insert on master, diff, apply on
  // slave — the slave must then serve index lookups for the new row.
  storage::Page before;  // page 0 starts empty on both
  auto rid = *master.insert_row(Row{int64_t{7}, int64_t{70}});
  PageMod mod;
  mod.pid = {0, rid.page};
  mod.version = 1;
  mod.runs = diff_pages(before, master.page(rid.page));
  apply_mod_indexed(slave, mod);
  auto f = slave.pk_find(Key{int64_t{7}});
  ASSERT_TRUE(f.has_value());
  EXPECT_EQ(std::get<int64_t>(slave.read_row(*f)[1]), 70);
  EXPECT_EQ(slave.meta(rid.page).version, 1u);
  EXPECT_TRUE(master.pages_equal(slave));
}

TEST(WriteSet, ApplyModIndexedReplaysDeleteAndUpdate) {
  storage::Table master(0, "t", small_schema(),
                        storage::IndexDef{"pk", {0}, true});
  storage::Table slave(0, "t", small_schema(),
                       storage::IndexDef{"pk", {0}, true});
  // Seed both with identical state via the replication path.
  storage::Page empty;
  auto r1 = *master.insert_row(Row{int64_t{1}, int64_t{10}});
  auto r2 = *master.insert_row(Row{int64_t{2}, int64_t{20}});
  (void)r2;
  PageMod seed{{0, 0}, 1, diff_pages(empty, master.page(0))};
  apply_mod_indexed(slave, seed);
  ASSERT_TRUE(master.pages_equal(slave));

  // Now delete row 1 and update row 2 on the master.
  storage::Page before = master.page(0);
  master.delete_row(r1);
  auto f2 = *master.pk_find(Key{int64_t{2}});
  master.update_row(f2, Row{int64_t{2}, int64_t{99}});
  PageMod mod{{0, 0}, 2, diff_pages(before, master.page(0))};
  apply_mod_indexed(slave, mod);

  EXPECT_FALSE(slave.pk_find(Key{int64_t{1}}).has_value());
  auto s2 = slave.pk_find(Key{int64_t{2}});
  ASSERT_TRUE(s2.has_value());
  EXPECT_EQ(std::get<int64_t>(slave.read_row(*s2)[1]), 99);
  EXPECT_EQ(slave.row_count(), 1u);
  EXPECT_TRUE(master.pages_equal(slave));
}

TEST(TxnCtx, UndoCaptureFirstTouchOnly) {
  TxnCtx txn(1, TxnKind::Update);
  storage::Page p;
  txn.capture_undo({0, 0}, p);
  p.raw()[0] = std::byte{42};
  txn.capture_undo({0, 0}, p);  // second capture must not overwrite
  EXPECT_EQ(txn.before_images().at({0, 0}).raw()[0], std::byte{0});
  EXPECT_EQ(txn.dirty_pages().size(), 1u);
}

TEST(TxnCtx, ReadOnlyIgnoresUndo) {
  TxnCtx txn(1, TxnKind::ReadOnly);
  storage::Page p;
  txn.capture_undo({0, 0}, p);
  EXPECT_TRUE(txn.before_images().empty());
}

}  // namespace
}  // namespace dmv::txn
