#include <gtest/gtest.h>

#include <deque>
#include <map>
#include <set>

#include "storage/table.hpp"
#include "txn/lock_manager.hpp"
#include "txn/row_access.hpp"
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
constexpr PageId kR{0, 2};

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

// A queue of waiters (linked through their own coroutine frames) on two
// pages: shutdown cancels every one, in queue order per page, and later
// requests are refused.
TEST(LockManager, ShutdownCancelsWholeQueue) {
  constexpr int kWaiters = 6;
  LmFixture f;
  auto& holder = f.make();
  std::vector<std::pair<uint64_t, LockRc>> woken;
  f.sim.spawn([](LmFixture& f, TxnCtx& t) -> sim::Task<> {
    co_await f.lm.acquire(t, kP, LockMode::Exclusive);
    co_await f.lm.acquire(t, kQ, LockMode::Exclusive);
    co_await f.sim.delay(1000);  // never releases before shutdown
  }(f, holder));
  for (int i = 0; i < kWaiters; ++i) {
    f.sim.spawn([](LmFixture& f, TxnCtx& t, PageId pid,
                   std::vector<std::pair<uint64_t, LockRc>>& out)
                    -> sim::Task<> {
      co_await f.sim.delay(1);
      const LockRc rc = co_await f.lm.acquire(t, pid, LockMode::Shared);
      out.emplace_back(t.id(), rc);
    }(f, f.make(), i % 2 ? kQ : kP, woken));
  }
  f.sim.schedule_at(50, [&] {
    EXPECT_EQ(woken.size(), 0u);
    f.lm.shutdown();
  });
  f.sim.run();
  EXPECT_EQ(f.lm.wait_count(), uint64_t(kWaiters));
  // Waiter ids are 2..7, three queued on each page; P's queue (ids 2, 4,
  // 6) is cancelled before Q's.
  EXPECT_EQ(woken, (std::vector<std::pair<uint64_t, LockRc>>{
                       {2, LockRc::Cancelled},
                       {4, LockRc::Cancelled},
                       {6, LockRc::Cancelled},
                       {3, LockRc::Cancelled},
                       {5, LockRc::Cancelled},
                       {7, LockRc::Cancelled}}));
  EXPECT_EQ(f.lm.lock_count(), 0u);
  LockRc late = LockRc::Granted;
  f.sim.spawn([](LmFixture& f, TxnCtx& t, LockRc& rc) -> sim::Task<> {
    rc = co_await f.lm.acquire(t, kR, LockMode::Shared);
  }(f, f.make(), late));
  f.sim.run();
  EXPECT_EQ(late, LockRc::Cancelled);
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

// A 1000-waiter X convoy with no cycle: every blocked acquire runs the
// cycle search against the whole queue, nobody dies, and the grants come
// out in arrival order.
TEST(LockManager, LongConvoyGrantsInFifoOrder) {
  constexpr int kWaiters = 1000;
  LmFixture f;
  auto& holder = f.make();
  std::vector<uint64_t> order;
  f.sim.spawn([](LmFixture& f, TxnCtx& t) -> sim::Task<> {
    co_await f.lm.acquire(t, kP, LockMode::Exclusive);
    co_await f.sim.delay(10);
    f.lm.release_all(t);
  }(f, holder));
  for (int i = 0; i < kWaiters; ++i) {
    f.sim.spawn([](LmFixture& f, TxnCtx& t,
                   std::vector<uint64_t>& order) -> sim::Task<> {
      co_await f.sim.delay(1);
      EXPECT_EQ(co_await f.lm.acquire(t, kP, LockMode::Exclusive),
                LockRc::Granted);
      order.push_back(t.id());
      f.lm.release_all(t);
    }(f, f.make(), order));
  }
  f.sim.run();
  ASSERT_EQ(order.size(), size_t(kWaiters));
  for (int i = 0; i < kWaiters; ++i) EXPECT_EQ(order[i], uint64_t(i + 2));
  EXPECT_EQ(f.lm.death_count(), 0u);
  EXPECT_EQ(f.lm.wait_count(), uint64_t(kWaiters));
  EXPECT_EQ(f.lm.lock_count(), 0u);
}

// t1 holds P, t2 holds Q and queues for P behind 500 waiters; t1 then asks
// for Q. The edge t2 -> t1 runs through the convoy, and the cycle is found.
TEST(LockManager, DetectsCycleThroughLongConvoy) {
  constexpr int kWaiters = 500;
  LmFixture f;
  auto& t1 = f.make();
  auto& t2 = f.make();
  std::vector<uint64_t> order;
  LockRc t1_rc = LockRc::Granted;
  f.sim.spawn([](LmFixture& f, TxnCtx& t, LockRc& rc) -> sim::Task<> {
    co_await f.lm.acquire(t, kP, LockMode::Exclusive);
    co_await f.sim.delay(3);
    rc = co_await f.lm.acquire(t, kQ, LockMode::Exclusive);
    f.lm.release_all(t);
  }(f, t1, t1_rc));
  auto waiter = [](LmFixture& f, TxnCtx& t, std::vector<uint64_t>& order,
                   sim::Time at) -> sim::Task<> {
    co_await f.sim.delay(at);
    EXPECT_EQ(co_await f.lm.acquire(t, kP, LockMode::Exclusive),
              LockRc::Granted);
    order.push_back(t.id());
    f.lm.release_all(t);
  };
  f.sim.spawn([](LmFixture& f, TxnCtx& t) -> sim::Task<> {
    co_await f.lm.acquire(t, kQ, LockMode::Exclusive);
  }(f, t2));
  for (int i = 0; i < kWaiters; ++i)
    f.sim.spawn(waiter(f, f.make(), order, 1));
  f.sim.spawn(waiter(f, t2, order, 2));
  f.sim.run();
  EXPECT_EQ(t1_rc, LockRc::Died);
  EXPECT_EQ(f.lm.death_count(), 1u);
  ASSERT_EQ(order.size(), size_t(kWaiters + 1));
  EXPECT_EQ(order.back(), t2.id());
  EXPECT_EQ(f.lm.lock_count(), 0u);
}

// t1 holds S on P and t2 queues for X on P; t1's S->X upgrade would wait
// for t2, which waits for t1, so the upgrade dies.
TEST(LockManager, UpgradeBehindQueueDies) {
  LmFixture f;
  auto& t1 = f.make();
  auto& t2 = f.make();
  LockRc upgrade = LockRc::Granted;
  LockRc queued = LockRc::Cancelled;
  f.sim.spawn([](LmFixture& f, TxnCtx& t, LockRc& rc) -> sim::Task<> {
    co_await f.lm.acquire(t, kP, LockMode::Shared);
    co_await f.sim.delay(2);
    rc = co_await f.lm.acquire(t, kP, LockMode::Exclusive);
    f.lm.release_all(t);
  }(f, t1, upgrade));
  f.sim.spawn([](LmFixture& f, TxnCtx& t, LockRc& rc) -> sim::Task<> {
    co_await f.sim.delay(1);
    rc = co_await f.lm.acquire(t, kP, LockMode::Exclusive);
    f.lm.release_all(t);
  }(f, t2, queued));
  f.sim.run();
  EXPECT_EQ(upgrade, LockRc::Died);
  EXPECT_EQ(queued, LockRc::Granted);
  EXPECT_EQ(f.lm.death_count(), 1u);
  EXPECT_EQ(f.lm.lock_count(), 0u);
}

// A waiter granted by a release stays blocked on its page until its wake
// event runs. A search in that window still passes through the page, as
// the transaction-level search did, and here finds a cycle: t would wait
// for u on R, and "blocked" u waits for P, which t holds.
TEST(LockManager, GrantedWaiterCountsAsBlockedUntilWoken) {
  LmFixture f;
  auto& h = f.make();
  auto& u = f.make();
  auto& t = f.make();
  LockRc rc = LockRc::Granted;
  f.sim.spawn([](LmFixture& f, TxnCtx& h, TxnCtx& u) -> sim::Task<> {
    co_await f.lm.acquire(h, kP, LockMode::Exclusive);
    co_await f.lm.acquire(u, kR, LockMode::Exclusive);
    co_await f.sim.delay(1);
    co_await f.lm.acquire(u, kP, LockMode::Shared);  // waits for h
    co_await f.sim.delay(5);
    f.lm.release_all(u);
  }(f, h, u));
  f.sim.spawn([](LmFixture& f, TxnCtx& h, TxnCtx& t,
                 LockRc& rc) -> sim::Task<> {
    co_await f.sim.delay(2);
    f.lm.release_all(h);  // grants u S on P; u's wake is still pending
    EXPECT_EQ(co_await f.lm.acquire(t, kP, LockMode::Shared),
              LockRc::Granted);
    rc = co_await f.lm.acquire(t, kR, LockMode::Exclusive);
    f.lm.release_all(t);
  }(f, h, t, rc));
  f.sim.run();
  EXPECT_EQ(rc, LockRc::Died);
  EXPECT_EQ(f.lm.lock_count(), 0u);
}

// Reference model of the lock table: the same grant rules, with the
// transaction-level waits-for search as the deadlock oracle. A blocked
// transaction depends on every other holder and every other waiter of its
// page, and each visited waiter re-expands its page's whole queue.
struct ShadowLocks {
  enum class Verdict { Granted, Died, Waits };
  struct Entry {
    std::map<uint64_t, int> sharers;  // txn id -> txn index
    int x = -1;
    std::deque<std::pair<int, LockMode>> queue;
  };
  std::map<PageId, Entry> pages;
  // Set when a request queues, cleared when its coroutine resumes (as in
  // LockManager, a granted waiter stays here until its wake runs).
  std::map<int, PageId> blocked_on;
  std::vector<std::vector<PageId>> held;
  uint64_t waits = 0;
  uint64_t deaths = 0;
  uint64_t stale_searches = 0;  // searches that met a granted, unwoken txn

  explicit ShadowLocks(int txns) : held(txns) {}
  static uint64_t id(int t) { return uint64_t(t + 1); }

  bool compatible(const Entry& e, int t, LockMode m) const {
    if (e.x >= 0 && e.x != t) return false;
    if (m == LockMode::Exclusive)
      for (const auto& [tid, s] : e.sharers)
        if (s != t) return false;
    return true;
  }
  bool holds(PageId pid, int t) const {
    auto it = pages.find(pid);
    return it != pages.end() &&
           (it->second.x == t || it->second.sharers.count(id(t)) > 0);
  }
  bool queued(PageId pid, int t) const {
    auto it = pages.find(pid);
    if (it == pages.end()) return false;
    for (const auto& [w, m] : it->second.queue)
      if (w == t) return true;
    return false;
  }
  void grant(Entry& e, PageId pid, int t, LockMode m) {
    const bool was_holder = e.x == t || e.sharers.count(id(t)) > 0;
    if (m == LockMode::Exclusive) {
      e.sharers.erase(id(t));
      e.x = t;
    } else if (e.x != t) {
      e.sharers.emplace(id(t), t);
    }
    if (!was_holder) held[t].push_back(pid);
  }
  void deps(int t, PageId pid, std::vector<int>& out) const {
    auto it = pages.find(pid);
    if (it == pages.end()) return;
    const Entry& e = it->second;
    if (e.x >= 0 && e.x != t) out.push_back(e.x);
    for (const auto& [tid, s] : e.sharers)
      if (s != t) out.push_back(s);
    for (const auto& [w, m] : e.queue)
      if (w != t) out.push_back(w);
  }
  bool creates_cycle(int t, PageId pid) {
    std::vector<int> stack;
    deps(t, pid, stack);
    std::set<int> visited;
    bool stale = false;
    bool cycle = false;
    while (!stack.empty() && !cycle) {
      const int u = stack.back();
      stack.pop_back();
      if (u == t) cycle = true;
      if (cycle || !visited.insert(u).second) continue;
      auto b = blocked_on.find(u);
      if (b == blocked_on.end()) continue;
      stale |= !queued(b->second, u);
      deps(u, b->second, stack);
    }
    stale_searches += stale;
    return cycle;
  }
  Verdict acquire(int t, PageId pid, LockMode m) {
    Entry& e = pages[pid];
    if (e.x == t) return Verdict::Granted;
    if (m == LockMode::Shared && e.sharers.count(id(t)))
      return Verdict::Granted;
    if (e.queue.empty() && compatible(e, t, m)) {
      grant(e, pid, t, m);
      return Verdict::Granted;
    }
    if (creates_cycle(t, pid)) {
      ++deaths;
      return Verdict::Died;
    }
    ++waits;
    e.queue.emplace_back(t, m);
    blocked_on[t] = pid;
    return Verdict::Waits;
  }
  void release_all(int t) {
    for (PageId pid : held[t]) {
      auto it = pages.find(pid);
      if (it == pages.end()) continue;
      Entry& e = it->second;
      if (e.x == t) e.x = -1;
      e.sharers.erase(id(t));
      while (!e.queue.empty()) {
        const auto [w, m] = e.queue.front();
        if (!compatible(e, w, m)) break;
        grant(e, pid, w, m);
        e.queue.pop_front();
      }
      if (e.queue.empty() && e.sharers.empty() && e.x < 0) pages.erase(it);
    }
    held[t].clear();
  }
};

struct Equivalence {
  static constexpr int kTxns = 10;
  static constexpr int kPages = 8;
  LmFixture f;
  ShadowLocks shadow{kTxns};
  std::vector<bool> busy = std::vector<bool>(kTxns, false);
  uint64_t upgrades = 0;
  uint64_t checked = 0;

  Equivalence() {
    for (int t = 0; t < kTxns; ++t) f.make();
  }
  TxnCtx& txn(int t) { return *f.txns[size_t(t)]; }
  void release(int t) {
    f.lm.release_all(txn(t));
    shadow.release_all(t);
  }
  // The shadow's verdict is taken in the same event as the real acquire.
  static sim::Task<> request(Equivalence& q, int t, PageId pid, LockMode m) {
    auto page = q.shadow.pages.find(pid);
    if (m == LockMode::Exclusive && page != q.shadow.pages.end() &&
        page->second.sharers.count(ShadowLocks::id(t)))
      ++q.upgrades;  // S -> X
    const auto expect = q.shadow.acquire(t, pid, m);
    const uint64_t waits = q.f.lm.wait_count();
    const LockRc rc = co_await q.f.lm.acquire(q.txn(t), pid, m);
    q.shadow.blocked_on.erase(t);
    ++q.checked;
    switch (expect) {
      case ShadowLocks::Verdict::Granted:
        EXPECT_EQ(rc, LockRc::Granted);
        EXPECT_EQ(q.f.lm.wait_count(), waits);  // granted without waiting
        break;
      case ShadowLocks::Verdict::Waits:
        EXPECT_EQ(rc, LockRc::Granted);
        EXPECT_GT(q.f.lm.wait_count(), waits);
        break;
      case ShadowLocks::Verdict::Died:
        EXPECT_EQ(rc, LockRc::Died);
        q.release(t);
        break;
    }
    EXPECT_EQ(q.txn(t).held_locks(), q.shadow.held[size_t(t)]);
    q.busy[size_t(t)] = false;
  }
  void expect_same_tables() {
    EXPECT_EQ(f.lm.lock_count(), shadow.pages.size());
    EXPECT_EQ(f.lm.wait_count(), shadow.waits);
    EXPECT_EQ(f.lm.death_count(), shadow.deaths);
    for (int p = 0; p < kPages; ++p) {
      const PageId pid{0, storage::PageNo(p)};
      for (int t = 0; t < kTxns; ++t)
        EXPECT_EQ(f.lm.held_by(pid, txn(t)), shadow.holds(pid, t));
    }
  }
  // Each step issues up to three actions in one virtual instant. Releases
  // run at once; acquires are spawned, so an acquire can run after a
  // release in the same step has granted a waiter but before that
  // waiter's wake: the search then meets a granted, still-blocked txn.
  static sim::Task<> drive(Equivalence& q, uint64_t seed, int steps) {
    util::Rng rng(seed);
    for (int step = 0; step < steps; ++step) {
      const int actions = 1 + int(rng.below(3));
      for (int a = 0; a < actions; ++a) {
        const int t = int(rng.below(kTxns));
        if (q.busy[size_t(t)]) continue;
        const size_t holding = q.txn(t).held_locks().size();
        if (holding > 0 && holding >= 1 + rng.below(4)) {
          q.release(t);
          continue;
        }
        q.busy[size_t(t)] = true;
        const PageId pid{0, storage::PageNo(rng.below(kPages))};
        const LockMode m =
            rng.chance(0.5) ? LockMode::Shared : LockMode::Exclusive;
        q.f.sim.spawn(request(q, t, pid, m));
      }
      co_await q.f.sim.delay(1);
      q.expect_same_tables();
    }
    // Drain: keep releasing whoever is running until nobody waits. A
    // missed deadlock leaves transactions blocked for good.
    for (int round = 0; round < 100; ++round) {
      bool any_busy = false;
      for (int t = 0; t < kTxns; ++t) {
        if (q.busy[size_t(t)])
          any_busy = true;
        else
          q.release(t);
      }
      if (!any_busy) co_return;
      co_await q.f.sim.delay(1);
    }
    ADD_FAILURE() << "transactions still blocked after the drain";
  }
};

class LockEquivalence : public ::testing::TestWithParam<uint64_t> {};

TEST_P(LockEquivalence, VerdictsMatchTransactionLevelSearch) {
  Equivalence q;
  q.f.sim.spawn(Equivalence::drive(q, GetParam(), 10000));
  q.f.sim.run();
  q.expect_same_tables();
  EXPECT_EQ(q.f.lm.lock_count(), 0u);
  // The schedule must reach every kind of verdict it is meant to check.
  EXPECT_GT(q.checked, 4000u);
  EXPECT_GT(q.shadow.waits, 1000u);
  EXPECT_GT(q.shadow.deaths, 100u);
  EXPECT_GT(q.upgrades, 50u);
  EXPECT_GT(q.shadow.stale_searches, 20u);
}

INSTANTIATE_TEST_SUITE_P(Seeds, LockEquivalence,
                         ::testing::Values(1, 2, 3, 4, 5, 6));

// diff_pages into a fresh buffer.
RunBuffer diff(const storage::Page& before, const storage::Page& after,
               size_t gap = kMergeGap) {
  RunBuffer runs;
  diff_pages(before, after, runs, gap);
  return runs;
}

TEST(WriteSet, DiffEmptyPagesIsEmpty) {
  storage::Page a, b;
  RunBuffer runs;
  EXPECT_EQ(diff_pages(a, b, runs), 0u);
  EXPECT_TRUE(runs.headers.empty());
  EXPECT_TRUE(runs.bytes.empty());
}

TEST(WriteSet, DiffFindsChangedRuns) {
  storage::Page a, b;
  b.raw()[100] = std::byte{1};
  b.raw()[101] = std::byte{2};
  b.raw()[500] = std::byte{3};
  const RunBuffer runs = diff(a, b);
  ASSERT_EQ(runs.headers.size(), 2u);
  EXPECT_EQ(runs.headers[0], (RunHeader{100, 2}));
  EXPECT_EQ(runs.headers[1], (RunHeader{500, 1}));
  EXPECT_EQ(runs.bytes, (std::vector<std::byte>{std::byte{1}, std::byte{2},
                                                std::byte{3}}));
}

TEST(WriteSet, NearbyRunsMerge) {
  storage::Page a, b;
  b.raw()[100] = std::byte{1};
  b.raw()[105] = std::byte{2};  // gap of 4 <= merge_gap 8
  const RunBuffer runs = diff(a, b);
  ASSERT_EQ(runs.headers.size(), 1u);
  EXPECT_EQ(runs.headers[0], (RunHeader{100, 6}));
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
  const RunBuffer runs = diff(before, after);
  storage::Page rebuilt = before;
  apply_runs(rebuilt, runs.view());
  EXPECT_TRUE(rebuilt == after);
}

// The byte-at-a-time diff that diff_pages must reproduce run for run.
RunBuffer reference_diff(const storage::Page& before,
                         const storage::Page& after, size_t merge_gap) {
  RunBuffer runs;
  const std::byte* a = before.raw().data();
  const std::byte* b = after.raw().data();
  size_t i = 0;
  while (i < storage::kPageSize) {
    if (a[i] == b[i]) {
      ++i;
      continue;
    }
    const size_t start = i;
    size_t end = i + 1;
    size_t gap = 0;
    for (size_t scan = end; scan < storage::kPageSize; ++scan) {
      if (a[scan] != b[scan]) {
        end = scan + 1;
        gap = 0;
      } else if (++gap > merge_gap) {
        break;
      }
    }
    runs.headers.push_back({uint32_t(start), uint32_t(end - start)});
    runs.bytes.insert(runs.bytes.end(), b + start, b + end);
    i = end;
  }
  return runs;
}

// Diffs, compares with the reference, round-trips, and returns the runs.
RunBuffer checked_diff(const storage::Page& before,
                       const storage::Page& after, size_t gap) {
  RunBuffer runs = diff(before, after, gap);
  EXPECT_TRUE(runs == reference_diff(before, after, gap)) << "gap " << gap;
  storage::Page rebuilt = before;
  apply_runs(rebuilt, runs.view());
  EXPECT_TRUE(rebuilt == after) << "gap " << gap;
  return runs;
}

TEST(WriteSet, DiffMatchesReferenceOnEdges) {
  util::Rng rng(5);
  storage::Page base;
  for (size_t i = 0; i < storage::kPageSize; ++i)
    base.raw()[i] = std::byte(uint8_t(rng.below(256)));
  auto flip = [](storage::Page& p, size_t at) {
    p.raw()[at] = ~p.raw()[at];
  };
  for (size_t gap : {size_t(0), size_t(1), size_t(7), size_t(8), size_t(9),
                     size_t(64)}) {
    EXPECT_TRUE(checked_diff(base, base, gap).headers.empty());  // identical
    storage::Page p = base;
    flip(p, 0);
    flip(p, storage::kPageSize - 1);
    ASSERT_EQ(checked_diff(base, p, gap).headers.size(), 2u);
    for (size_t lo : {size_t(7), size_t(4093), size_t(8180)}) {
      p = base;  // an edit straddling an 8-byte boundary
      for (size_t k = lo; k < lo + 6; ++k) flip(p, k);
      ASSERT_EQ(checked_diff(base, p, gap).headers.size(), 1u);
    }
    for (size_t first : {size_t(3), size_t(100), size_t(8190 - gap - 1)}) {
      p = base;  // exactly `gap` unchanged bytes between: one run
      flip(p, first);
      flip(p, first + gap + 1);
      ASSERT_EQ(checked_diff(base, p, gap).headers.size(), 1u);
      p = base;  // one more: two runs
      flip(p, first);
      flip(p, first + gap + 2);
      ASSERT_EQ(checked_diff(base, p, gap).headers.size(), 2u);
    }
  }
}

// Property: for random page pairs and gaps, diff_pages matches the
// byte-wise reference and round-trips, for scattered single-byte edits and
// for clusters of edits that straddle 8-byte words (some of them writing
// the value already there).
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
  const RunBuffer runs = checked_diff(before, after, gap);
  // Runs must be sorted and non-overlapping.
  for (size_t i = 1; i < runs.headers.size(); ++i)
    EXPECT_GE(runs.headers[i].offset,
              runs.headers[i - 1].offset + runs.headers[i - 1].len);
  for (int round = 0; round < 50; ++round) {
    if (rng.chance(0.5)) before = storage::Page();
    after = before;
    const int clusters = int(rng.below(40));
    for (int c = 0; c < clusters; ++c) {
      const size_t at = rng.below(storage::kPageSize);
      const size_t len = 1 + rng.below(24);
      for (size_t k = at; k < std::min(at + len, storage::kPageSize); ++k)
        after.raw()[k] = std::byte(uint8_t(rng.below(4)));
    }
    checked_diff(before, after, gap);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Cases, DiffProperty,
    ::testing::Combine(::testing::Values(1, 7, 42, 1234),
                       ::testing::Values(0, 1, 7, 8, 9, 64)));

// A page with random edits inside random ascending regions only, diffed
// from the regions into a buffer that already holds other runs: the
// appended runs equal the byte-at-a-time reference diff, of the live
// bytes and, with `restore`, of the saved ones, and earlier runs stay.
TEST(WriteSet, FlatRegionRunsMatchReferenceBothWays) {
  util::Rng rng(11);
  for (int round = 0; round < 200; ++round) {
    storage::Page saved;
    for (size_t i = 0; i < storage::kPageSize; ++i)
      saved.raw()[i] = std::byte(uint8_t(rng.below(4)));
    storage::Page live = saved;
    std::vector<SavedRegion> regions;
    for (size_t at = rng.below(64); at < storage::kPageSize;
         at += 1 + rng.below(600)) {
      const size_t size = std::min(1 + rng.below(80), storage::kPageSize - at);
      regions.push_back({at, size, saved.raw().data() + at});
      for (size_t k = 0; k < size; ++k)
        if (rng.chance(0.2)) live.raw()[at + k] = std::byte(rng.below(4));
      at += size;
    }
    const size_t gap = rng.below(12);
    for (bool restore : {false, true}) {
      RunBuffer runs = diff(storage::Page(), live);  // earlier runs
      const RunBuffer earlier = runs;
      const size_t n = diff_regions(live, regions, restore, runs, gap);
      const RunBuffer want = restore ? reference_diff(live, saved, gap)
                                     : reference_diff(saved, live, gap);
      ASSERT_EQ(n, want.headers.size());
      EXPECT_TRUE(std::equal(earlier.headers.begin(), earlier.headers.end(),
                             runs.headers.begin()));
      EXPECT_TRUE(std::equal(earlier.bytes.begin(), earlier.bytes.end(),
                             runs.bytes.begin()));
      const Runs appended(
          std::span(runs.headers).subspan(earlier.headers.size()),
          runs.bytes.data() + earlier.bytes.size());
      EXPECT_TRUE(appended == want.view()) << "round " << round;
      EXPECT_EQ(appended.byte_count(),
                runs.bytes.size() - earlier.bytes.size());
    }
  }
}

// The replicated size, and so every simulated transfer time, is the one
// the per-run vectors gave: 16 bytes per mod plus 8 and the bytes per run,
// and 8 plus 8 per table per write-set.
TEST(WriteSet, ByteSizeKeepsTheReplicatedFormula) {
  util::Rng rng(3);
  WriteSetBuilder builder;
  for (int round = 0; round < 20; ++round) {
    const size_t pages = 1 + rng.below(5);
    size_t want = 8 + 8 * 3;
    std::vector<RunBuffer> reference;
    for (size_t p = 0; p < pages; ++p) {
      storage::Page before, after;
      for (int i = int(rng.below(60)); i >= 0; --i)
        after.raw()[rng.below(storage::kPageSize)] =
            std::byte(1 + rng.below(255));
      reference.push_back(reference_diff(before, after, kMergeGap));
      diff_pages(before, after, builder.runs());
      if (!builder.add_mod({0, storage::PageNo(p)}, round + 1)) {
        EXPECT_TRUE(reference.back().headers.empty());
        reference.pop_back();
        continue;
      }
      size_t mod = 16;
      for (const RunHeader& h : reference.back().headers) mod += 8 + h.len;
      want += mod;
    }
    const std::shared_ptr<WriteSet> ws = builder.build(round + 1);
    ws->db_version = {1, 2, 3};
    ASSERT_EQ(ws->mods.size(), reference.size());
    size_t sum = 8 + 8 * 3;
    for (size_t m = 0; m < ws->mods.size(); ++m) {
      EXPECT_TRUE(ws->mods[m].runs == reference[m].view());
      size_t mod = 16;
      for (const auto r : ws->mods[m].runs) mod += 8 + r.bytes.size();
      EXPECT_EQ(ws->mods[m].byte_size(), mod);
      sum += mod;
    }
    EXPECT_EQ(ws->byte_size(), sum);
    EXPECT_EQ(ws->byte_size(), want);
  }
}

// A builder packs each mod's runs into the write-set's own exactly sized
// buffers, drops a page that diffed empty, and starts over empty.
TEST(WriteSet, BuilderPacksRunsIntoExactStorage) {
  WriteSetBuilder builder;
  storage::Page empty, a, b;
  a.raw()[10] = std::byte{1};
  a.raw()[900] = std::byte{2};
  b.raw()[4000] = std::byte{3};
  diff_pages(empty, a, builder.runs());
  EXPECT_TRUE(builder.add_mod({0, 0}, 1));
  diff_pages(empty, empty, builder.runs());
  EXPECT_FALSE(builder.add_mod({0, 1}, 1));
  diff_pages(empty, b, builder.runs());
  EXPECT_TRUE(builder.add_mod({1, 5}, 4));
  const std::shared_ptr<const WriteSet> ws = builder.build(9);
  EXPECT_EQ(ws->txn_id, 9u);
  ASSERT_EQ(ws->mods.size(), 2u);
  EXPECT_EQ(ws->mods.capacity(), 2u);
  EXPECT_EQ(ws->run_headers.capacity(), 3u);
  EXPECT_EQ(ws->run_bytes.capacity(), 3u);
  EXPECT_EQ(ws->mods[0].pid, (PageId{0, 0}));
  EXPECT_TRUE(ws->mods[0].runs == diff(empty, a).view());
  EXPECT_EQ(ws->mods[1].pid, (PageId{1, 5}));
  EXPECT_EQ(ws->mods[1].version, 4u);
  EXPECT_TRUE(ws->mods[1].runs == diff(empty, b).view());
  EXPECT_EQ(ws->mods[1].runs.headers().data(), ws->run_headers.data() + 2);
  EXPECT_TRUE(builder.runs().headers.empty());
  EXPECT_TRUE(builder.build(10)->mods.empty());
}

storage::Schema small_schema() {
  return storage::Schema({storage::int_col("id"), storage::int_col("v")});
}

// Only the headers count: the runs' bytes are not read.
std::vector<uint16_t> slots_of(RunHeader run, size_t row_size) {
  const SlotList slots = affected_slots(Runs({&run, 1}, nullptr), row_size,
                                        100);
  return {slots.begin(), slots.end()};
}

TEST(WriteSet, AffectedSlotsFromRowBytes) {
  storage::Schema s = small_schema();  // row_size 16
  // Bytes of slot 2: header + [32, 48).
  EXPECT_EQ(slots_of({uint32_t(storage::kPageHeader + 33), 4}, s.row_size()),
            (std::vector<uint16_t>{2}));
  // Across the end of slot 2 into slot 3.
  EXPECT_EQ(slots_of({uint32_t(storage::kPageHeader + 40), 9}, s.row_size()),
            (std::vector<uint16_t>{2, 3}));
}

TEST(WriteSet, AffectedSlotsFromBitmap) {
  storage::Schema s = small_schema();
  // Bitmap byte 1 covers slots 8..15.
  const auto slots = slots_of({1, 1}, s.row_size());
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
  const RunBuffer runs = diff(before, master.page(rid.page));
  apply_mod_indexed(slave, PageMod{{0, rid.page}, 1, runs.view()});
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
  const RunBuffer seed = diff(empty, master.page(0));
  apply_mod_indexed(slave, PageMod{{0, 0}, 1, seed.view()});
  ASSERT_TRUE(master.pages_equal(slave));

  // Now delete row 1 and update row 2 on the master.
  storage::Page before = master.page(0);
  master.delete_row(r1);
  auto f2 = *master.pk_find(Key{int64_t{2}});
  master.update_row(f2, Row{int64_t{2}, int64_t{99}});
  const RunBuffer runs = diff(before, master.page(0));
  apply_mod_indexed(slave, PageMod{{0, 0}, 2, runs.view()});

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
  txn.capture_undo({0, 0}, p, 3, 16);
  p.raw()[0] = std::byte{42};                         // bitmap
  p.raw()[storage::kPageHeader + 3 * 16] = std::byte{7};  // slot 3
  txn.capture_undo({0, 0}, p, 3, 16);  // second capture must not overwrite
  txn.capture_undo({0, 0}, p, 1, 16);  // a new slot of the same page
  ASSERT_EQ(txn.undo().size(), 1u);
  const PageUndo& u = txn.undo()[0];
  EXPECT_EQ(u.bitmap[0], std::byte{0});
  EXPECT_EQ(u.slots, (std::vector<uint16_t>{1, 3}));
  ASSERT_EQ(u.rows.size(), 32u);
  EXPECT_EQ(u.rows[16], std::byte{0});
}

TEST(TxnCtx, ReadOnlyIgnoresUndo) {
  TxnCtx txn(1, TxnKind::ReadOnly);
  storage::Page p;
  txn.capture_undo({0, 0}, p, 0, 16);
  EXPECT_TRUE(txn.undo().empty());
}

// --- region diffs against whole-page diffs ---

// id, v (secondary), pad: 56-byte rows, 145 slots a page.
storage::Database undo_db() {
  storage::Database db;
  db.add_table("t",
               storage::Schema({storage::int_col("id"), storage::int_col("v"),
                                storage::char_col("pad", 40)}),
               storage::IndexDef{"pk", {0}, true},
               {storage::IndexDef{"by_v", {1}, false}});
  return db;
}

Key pk_of(int64_t id) { return Key{id}; }

// One write the way both engines make it: lock and save the slot, then
// write it.
enum class Op { Insert, Update, Delete };
sim::Task<> write_row(LockManager& lm, TxnCtx& txn, storage::Table& tb,
                      Op op, Key pk, Row row) {
  if (op == Op::Insert) {
    const storage::RowId target = co_await lock_insert_slot(lm, txn, tb);
    const auto rid = tb.insert_row(row);
    if (rid) {
      EXPECT_EQ(*rid, target);
    }
    co_return;
  }
  const auto rid = co_await lock_row(lm, txn, tb, pk, LockMode::Exclusive);
  if (!rid) co_return;
  if (op == Op::Update)
    tb.update_row(*rid, row);
  else
    tb.delete_row(*rid);
}

// Every entry of index `i` of table 0, in key order.
std::vector<std::pair<std::string, storage::RowId>> index_entries(
    const storage::Database& db, int i) {
  std::vector<std::pair<std::string, storage::RowId>> out;
  db.table(0).index_tree(i).scan_all([&](std::string_view k,
                                         storage::RowId r) {
    out.emplace_back(std::string(k), r);
    return true;
  });
  return out;
}

// Randomized transactions of inserts (some of them duplicates), updates
// (some moving the secondary key or the primary key, some writing what is
// there) and deletes, with slots freed and reused inside one transaction
// and pages the transaction creates. For each page a transaction wrote,
// the runs diffed from what it saved equal the whole-page diff against a
// full copy of the page taken before the transaction, in both directions.
// Half the transactions then roll back: the pages come back byte for
// byte, and every index has the entries it had and the shape a rollback
// through whole-page diffs gives it.
class RegionDiff : public ::testing::TestWithParam<uint64_t> {};

TEST_P(RegionDiff, EqualsWholePageDiffAndRollsBackExactly) {
  util::Rng rng(GetParam());
  sim::Simulation sim;
  LockManager lm(sim);
  storage::Database db = undo_db();
  storage::Table& tb = db.table(0);
  const size_t per_page = tb.slots_per_page();
  ASSERT_EQ(per_page, 145u);
  auto make = [&](int64_t id) {
    return Row{id, rng.between(0, 30), std::string(rng.below(12), 'x')};
  };
  // Full pages on odd seeds, so the first insert creates a page; holes in
  // the last page on even ones.
  int64_t next_id = 0;
  const size_t preload = per_page * 2 + (GetParam() % 2 ? 0 : 100);
  for (size_t i = 0; i < preload; ++i) tb.insert_row(make(next_id++));
  if (GetParam() % 2 == 0)
    for (int i = 0; i < 20; ++i)
      if (auto rid = tb.pk_find(pk_of(rng.between(0, next_id - 1))))
        tb.delete_row(*rid);

  size_t checked_pages = 0, rollbacks = 0, reused = 0, created = 0;
  for (uint64_t round = 0; round < 40; ++round) {
    const storage::Database before = db;
    TxnCtx txn(round + 1, TxnKind::Update);
    std::set<storage::RowId> freed;
    const int ops = 1 + int(rng.below(30));
    for (int k = 0; k < ops; ++k) {
      const double pick = rng.uniform01();
      const int64_t id = rng.between(0, next_id - 1);
      Op op = Op::Update;
      Row row;
      if (pick < 0.4) {
        op = Op::Insert;
        row = make(rng.chance(0.1) ? id : next_id++);  // some duplicates
        const storage::RowId at = tb.peek_insert_slot();
        reused += freed.count(at);
        created += at.page >= tb.page_count();
      } else if (pick < 0.7) {
        const auto rid = tb.pk_find(pk_of(id));
        row = rid ? tb.read_row(*rid) : make(id);
        if (rng.chance(0.7)) row[1] = rng.between(0, 30);
        if (rng.chance(0.1)) row[0] = next_id++;  // the primary key moves
      } else {
        op = Op::Delete;
        if (auto rid = tb.pk_find(pk_of(id))) freed.insert(*rid);
      }
      sim.spawn(write_row(lm, txn, tb, op, pk_of(id), std::move(row)));
      sim.run();
    }

    for (const PageUndo& u : txn.undo()) {
      const storage::Table& old = before.table(0);
      const storage::Page full = u.pid.page < old.page_count()
                                     ? old.page(u.pid.page)
                                     : storage::Page();
      const storage::Page& live = tb.page(u.pid.page);
      RunBuffer forward, back;
      diff_undo(u, live, false, forward);
      diff_undo(u, live, true, back);
      EXPECT_TRUE(forward == diff(full, live)) << "page " << u.pid.page;
      EXPECT_TRUE(back == diff(live, full)) << "page " << u.pid.page;
      ++checked_pages;
    }

    if (rng.chance(0.5)) {
      // Roll back one copy from the saved regions and another through
      // whole-page diffs against the full copy.
      storage::Database whole = db;
      undo_writes(db, txn);
      for (const PageUndo& u : txn.undo()) {
        storage::Table& t = whole.table(0);
        const storage::Table& old = before.table(0);
        const storage::Page full = u.pid.page < old.page_count()
                                       ? old.page(u.pid.page)
                                       : storage::Page();
        const RunBuffer runs = diff(t.page(u.pid.page), full);
        if (!runs.headers.empty())
          apply_runs_reindex_all(t, u.pid.page, runs.view());
      }
      EXPECT_TRUE(db.pages_equal(before));
      EXPECT_TRUE(db.pages_equal(whole));
      EXPECT_EQ(tb.row_count(), before.table(0).row_count());
      EXPECT_EQ(tb.peek_insert_slot(), before.table(0).peek_insert_slot());
      for (int i = -1; i < int(tb.secondary_count()); ++i) {
        EXPECT_EQ(index_entries(db, i), index_entries(before, i))
            << "index " << i;
        EXPECT_EQ(tb.index_tree(i).shape(),
                  whole.table(0).index_tree(i).shape())
            << "index " << i;
        EXPECT_TRUE(tb.index_tree(i).check_invariants());
      }
      ++rollbacks;
    }
    lm.release_all(txn);
  }
  EXPECT_GT(checked_pages, 40u);
  EXPECT_GT(rollbacks, 5u);
  EXPECT_GT(reused, 0u);
  if (GetParam() % 2) {
    EXPECT_GT(created, 0u);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, RegionDiff,
                         ::testing::Values(1, 2, 3, 4, 5, 6, 7, 8));

// Regions far apart, adjacent, and a run merged across the gap between
// two regions (bytes outside any region are equal in both images).
TEST(WriteSet, RegionRunsMergeAcrossRegions) {
  storage::Page saved;
  for (size_t i = 0; i < storage::kPageSize; ++i)
    saved.raw()[i] = std::byte(uint8_t(i * 7));
  storage::Page live = saved;
  live.raw()[98] = std::byte{1};   // region [90, 100)
  live.raw()[104] = std::byte{2};  // region [103, 110): 5 bytes apart
  live.raw()[200] = std::byte{3};  // region [200, 210), far away
  const std::byte* s = saved.raw().data();
  const SavedRegion regions[] = {
      {90, 10, s + 90}, {103, 7, s + 103}, {200, 10, s + 200}};
  for (bool restore : {false, true}) {
    RunBuffer runs;
    diff_regions(live, regions, restore, runs);
    EXPECT_TRUE(runs == (restore ? diff(live, saved) : diff(saved, live)));
    ASSERT_EQ(runs.headers.size(), 2u);
    EXPECT_EQ(runs.headers[0], (RunHeader{98, 7}));
  }
}

}  // namespace
}  // namespace dmv::txn
