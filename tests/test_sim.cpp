#include <gtest/gtest.h>

#include <algorithm>
#include <deque>
#include <functional>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "sim/simulation.hpp"
#include "sim/sync.hpp"
#include "util/rng.hpp"

namespace dmv::sim {
namespace {

TEST(Simulation, EventsRunInTimeOrder) {
  Simulation sim;
  std::vector<int> order;
  sim.schedule_at(30, [&] { order.push_back(3); });
  sim.schedule_at(10, [&] { order.push_back(1); });
  sim.schedule_at(20, [&] { order.push_back(2); });
  sim.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(sim.now(), 30);
}

TEST(Simulation, TiesBreakBySubmissionOrder) {
  Simulation sim;
  std::vector<int> order;
  sim.schedule_at(5, [&] { order.push_back(1); });
  sim.schedule_at(5, [&] { order.push_back(2); });
  sim.schedule_at(5, [&] { order.push_back(3); });
  sim.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

TEST(Simulation, RunUntilStopsClock) {
  Simulation sim;
  bool ran = false;
  sim.schedule_at(100, [&] { ran = true; });
  Time t = sim.run(50);
  EXPECT_EQ(t, 50);
  EXPECT_FALSE(ran);
  sim.run();
  EXPECT_TRUE(ran);
}

// A run bound behind the clock runs nothing and leaves the clock where it
// is; moving it back would let later events be scheduled before ones that
// already ran.
TEST(Simulation, RunUntilInThePastKeepsClock) {
  Simulation sim;
  std::vector<Time> fired;
  sim.schedule_at(100, [&] { fired.push_back(sim.now()); });
  sim.schedule_at(300, [&] { fired.push_back(sim.now()); });
  EXPECT_EQ(sim.run(200), 200);
  EXPECT_EQ(sim.run(50), 200);
  EXPECT_EQ(sim.now(), 200);
  EXPECT_EQ(fired, (std::vector<Time>{100}));
  sim.schedule_at(sim.now(), [&] { fired.push_back(sim.now()); });
  EXPECT_EQ(sim.run(50), 200);  // the same-instant event waits too
  EXPECT_EQ(fired.size(), 1u);
  sim.run();
  EXPECT_EQ(fired, (std::vector<Time>{100, 200, 300}));
  EXPECT_EQ(sim.events_processed(), 3u);
}

TEST(Simulation, DelayAdvancesClock) {
  Simulation sim;
  Time observed = -1;
  sim.spawn([](Simulation& s, Time& out) -> Task<> {
    co_await s.delay(42);
    out = s.now();
  }(sim, observed));
  sim.run();
  EXPECT_EQ(observed, 42);
}

TEST(Simulation, NestedTaskAwaitPropagatesValue) {
  Simulation sim;
  int result = 0;
  auto child = [](Simulation& s) -> Task<int> {
    co_await s.delay(5);
    co_return 7;
  };
  sim.spawn([](Simulation& s, auto child, int& out) -> Task<> {
    int a = co_await child(s);
    int b = co_await child(s);
    out = a + b;
  }(sim, child, result));
  sim.run();
  EXPECT_EQ(result, 14);
  EXPECT_EQ(sim.now(), 10);
}

TEST(Simulation, ExceptionPropagatesToAwaiter) {
  Simulation sim;
  bool caught = false;
  auto thrower = [](Simulation& s) -> Task<> {
    co_await s.delay(1);
    throw std::runtime_error("boom");
  };
  sim.spawn([](Simulation& s, auto thrower, bool& caught) -> Task<> {
    try {
      co_await thrower(s);
    } catch (const std::runtime_error& e) {
      caught = std::string(e.what()) == "boom";
    }
  }(sim, thrower, caught));
  sim.run();
  EXPECT_TRUE(caught);
}

TEST(Simulation, ManyProcessesInterleaveDeterministically) {
  auto run = [] {
    Simulation sim;
    std::vector<int> trace;
    for (int i = 0; i < 5; ++i) {
      sim.spawn([](Simulation& s, std::vector<int>& tr, int id) -> Task<> {
        for (int k = 0; k < 3; ++k) {
          co_await s.delay(id + 1);
          tr.push_back(id * 10 + k);
        }
      }(sim, trace, i));
    }
    sim.run();
    return trace;
  };
  EXPECT_EQ(run(), run());
}

TEST(WaitQueue, NotifyOneWakesFifo) {
  Simulation sim;
  WaitQueue q(sim);
  std::vector<int> order;
  for (int i = 0; i < 3; ++i) {
    sim.spawn([](WaitQueue& q, std::vector<int>& o, int id) -> Task<> {
      bool ok = co_await q.wait();
      EXPECT_TRUE(ok);
      o.push_back(id);
    }(q, order, i));
  }
  sim.schedule_at(10, [&] { q.notify_one(); });
  sim.schedule_at(20, [&] { q.notify_one(); });
  sim.schedule_at(30, [&] { q.notify_one(); });
  sim.run();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2}));
}

TEST(WaitQueue, CancelDeliversFalse) {
  Simulation sim;
  WaitQueue q(sim);
  bool got = true;
  sim.spawn([](WaitQueue& q, bool& got) -> Task<> {
    got = co_await q.wait();
  }(q, got));
  sim.schedule_at(5, [&] { q.notify_all(false); });
  sim.run();
  EXPECT_FALSE(got);
}

TEST(Channel, DeliversInOrder) {
  Simulation sim;
  Channel<int> ch(sim);
  std::vector<int> got;
  sim.spawn([](Channel<int>& ch, std::vector<int>& got) -> Task<> {
    for (;;) {
      auto v = co_await ch.receive();
      if (!v) break;
      got.push_back(*v);
    }
  }(ch, got));
  sim.schedule_at(1, [&] { ch.send(1); });
  sim.schedule_at(2, [&] { ch.send(2); });
  sim.schedule_at(3, [&] { ch.send(3); });
  sim.schedule_at(4, [&] { ch.close(); });
  sim.run();
  EXPECT_EQ(got, (std::vector<int>{1, 2, 3}));
}

TEST(Channel, BufferedBeforeReceiverArrives) {
  Simulation sim;
  Channel<int> ch(sim);
  ch.send(10);
  ch.send(20);
  std::vector<int> got;
  sim.spawn([](Channel<int>& ch, std::vector<int>& got) -> Task<> {
    got.push_back(*co_await ch.receive());
    got.push_back(*co_await ch.receive());
  }(ch, got));
  sim.run();
  EXPECT_EQ(got, (std::vector<int>{10, 20}));
}

TEST(Channel, CloseWakesBlockedReceiverWithNullopt) {
  Simulation sim;
  Channel<int> ch(sim);
  bool got_nullopt = false;
  sim.spawn([](Channel<int>& ch, bool& flag) -> Task<> {
    auto v = co_await ch.receive();
    flag = !v.has_value();
  }(ch, got_nullopt));
  sim.schedule_at(7, [&] { ch.close(); });
  sim.run();
  EXPECT_TRUE(got_nullopt);
}

TEST(Channel, SendAfterCloseIsDropped) {
  Simulation sim;
  Channel<int> ch(sim);
  ch.close();
  ch.send(1);
  EXPECT_EQ(ch.size(), 0u);
  ch.reopen();
  ch.send(2);
  EXPECT_EQ(ch.size(), 1u);
}

TEST(Resource, SerializesWhenFull) {
  Simulation sim;
  Resource cpu(sim, 1);
  std::vector<Time> done;
  for (int i = 0; i < 3; ++i) {
    sim.spawn([](Simulation& s, Resource& r, std::vector<Time>& d) -> Task<> {
      co_await r.use(10);
      d.push_back(s.now());
    }(sim, cpu, done));
  }
  sim.run();
  EXPECT_EQ(done, (std::vector<Time>{10, 20, 30}));
  EXPECT_EQ(cpu.busy_time(), 30);
}

TEST(Resource, ParallelismUpToCapacity) {
  Simulation sim;
  Resource cpu(sim, 2);
  std::vector<Time> done;
  for (int i = 0; i < 4; ++i) {
    sim.spawn([](Simulation& s, Resource& r, std::vector<Time>& d) -> Task<> {
      co_await r.use(10);
      d.push_back(s.now());
    }(sim, cpu, done));
  }
  sim.run();
  EXPECT_EQ(done, (std::vector<Time>{10, 10, 20, 20}));
}

// A user that arrives at the very instant of a release queues behind the
// waiter the server was handed to: the server stays counted until that
// waiter's service starts, so a late arrival cannot barge in front of it
// (livelock under retry storms otherwise). At t=100, A's release runs
// first (scheduled at t=0), then C's arrival (scheduled at t=0 after it),
// then B's service start.
TEST(Resource, ArrivalAtReleaseInstantCannotBarge) {
  Simulation sim;
  Resource r(sim, 1);
  std::vector<std::pair<char, Time>> done;
  auto user = [](Simulation& s, Resource& r,
                 std::vector<std::pair<char, Time>>& d, char id, Time arrive,
                 Time cost) -> Task<> {
    if (arrive > 0) co_await s.delay(arrive);
    co_await r.use(cost);
    d.emplace_back(id, s.now());
  };
  sim.spawn(user(sim, r, done, 'A', 0, 100));
  sim.spawn(user(sim, r, done, 'B', 1, 50));
  sim.spawn(user(sim, r, done, 'C', 100, 10));
  sim.run();
  EXPECT_EQ(done, (std::vector<std::pair<char, Time>>{
                      {'A', 100}, {'B', 150}, {'C', 160}}));
  EXPECT_EQ(r.busy_time(), 160);
}

Task<> empty_task() { co_return; }

// A destroyed frame is kept for the next frame of its size class (the
// same coroutine function here), and under ASan it is poisoned while
// kept.
TEST(FrameCache, ReusesAFreedFrameOfItsSizeClass) {
  Simulation sim;
  const size_t before = detail::FrameCache::kept();
  auto h = empty_task().release();
  void* frame = h.address();
  h.destroy();
  EXPECT_EQ(detail::FrameCache::kept(), before + 1);
#ifdef DMV_ASAN_POISONING
  EXPECT_TRUE(__asan_address_is_poisoned(frame));
#endif
  auto again = empty_task().release();
  EXPECT_EQ(again.address(), frame);
  EXPECT_EQ(detail::FrameCache::kept(), before);
  again.destroy();
}

// At most kMaxKept frames of one size are kept, ~Simulation hands every
// kept frame back, and with no Simulation alive a destroyed frame is not
// kept.
TEST(FrameCache, EmptyAfterSimulationDestroyed) {
  {
    Simulation sim;
    std::vector<Task<>::Handle> frames;
    for (uint32_t i = 0; i < detail::FrameCache::kMaxKept + 10; ++i)
      frames.push_back(empty_task().release());
    for (auto h : frames) h.destroy();
    EXPECT_EQ(detail::FrameCache::kept(), detail::FrameCache::kMaxKept);
  }
  EXPECT_EQ(detail::FrameCache::kept(), 0u);
  empty_task().release().destroy();
  EXPECT_EQ(detail::FrameCache::kept(), 0u);
}

// Determinism of a composite scenario: full event trace must be identical
// across runs with the same structure.
TEST(Simulation, CompositeScenarioDeterministic) {
  auto run = [] {
    Simulation sim;
    Channel<int> ch(sim);
    Resource cpu(sim, 2);
    std::vector<std::pair<Time, int>> trace;
    sim.spawn([](Simulation& s, Channel<int>& ch, Resource& cpu,
                 std::vector<std::pair<Time, int>>& tr) -> Task<> {
      for (;;) {
        auto v = co_await ch.receive();
        if (!v) break;
        co_await cpu.use(7);
        tr.emplace_back(s.now(), *v);
      }
    }(sim, ch, cpu, trace));
    for (int i = 0; i < 10; ++i)
      sim.schedule_at(i * 3, [&ch, i] { ch.send(i); });
    sim.schedule_at(1000, [&] { ch.close(); });
    sim.run();
    return trace;
  };
  EXPECT_EQ(run(), run());
}

// ---- event-queue regression tests ----

// Equal-timestamp events must run strictly in schedule order, including
// events scheduled *at the draining instant* from inside an event (they
// run after everything already queued for that instant). This pins the
// FIFO contract the old const_cast/priority_queue kernel provided.
TEST(EventQueue, EqualTimestampsRunInScheduleOrder) {
  Simulation sim;
  std::vector<int> order;
  sim.schedule_at(50, [&] {
    order.push_back(0);
    // Same-instant insert during the drain of t=50.
    sim.schedule_at(50, [&] { order.push_back(3); });
  });
  sim.schedule_at(50, [&] { order.push_back(1); });
  sim.schedule_at(50, [&] { order.push_back(2); });
  sim.run();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3}));
}

// Property: on a randomized schedule mixing same-instant, short and
// far-future delays, every scheduled event fires, the firing trace is
// non-decreasing in time, and equal-time events fire in the order they
// were scheduled (ids are handed out at schedule time).
TEST(EventQueue, RandomScheduleFiresInTimeThenScheduleOrder) {
  for (uint64_t seed : {1u, 2u, 3u, 4u, 5u}) {
    Simulation sim;
    util::Rng rng(seed);
    std::vector<std::pair<Time, int>> trace;
    int next_id = 0;
    std::function<void(int)> fire = [&](int id) {
      trace.emplace_back(sim.now(), id);
      const int kids = int(rng.below(3));
      for (int k = 0; k < kids && next_id < 4000; ++k) {
        Time d = 0;
        switch (rng.below(3)) {
          case 0: d = 0; break;
          case 1: d = Time(rng.below(2000)); break;
          default: d = Time(rng.below(5'000'000)); break;
        }
        const int id2 = next_id++;
        sim.schedule_after(d, [&fire, id2] { fire(id2); });
      }
    };
    for (int i = 0; i < 64; ++i) {
      const int id = next_id++;
      sim.schedule_at(Time(rng.below(3000)), [&fire, id] { fire(id); });
    }
    sim.run();
    ASSERT_EQ(trace.size(), size_t(next_id)) << "seed " << seed;
    EXPECT_GT(trace.size(), 64u);
    for (size_t i = 1; i < trace.size(); ++i) {
      const auto& [t0, id0] = trace[i - 1];
      const auto& [t1, id1] = trace[i];
      ASSERT_LE(t0, t1) << "seed " << seed << " at " << i;
      if (t0 == t1) {
        ASSERT_LT(id0, id1) << "seed " << seed << " at " << i;
      }
    }
  }
}

// run(until) must park the clock exactly at the boundary without popping
// later events, then deliver them on the next run().
TEST(EventQueue, RunUntilBoundaryThenFarEvent) {
  Simulation sim;
  std::vector<Time> fired;
  const Time far = 3'145'745;
  sim.schedule_at(10, [&] { fired.push_back(sim.now()); });
  sim.schedule_at(far, [&] { fired.push_back(sim.now()); });
  EXPECT_EQ(sim.run(10), 10);
  EXPECT_EQ(fired.size(), 1u);
  EXPECT_EQ(sim.run(far - 1), far - 1);
  EXPECT_EQ(fired.size(), 1u);
  // Scheduling at the parked clock is legal and runs before the far event.
  sim.schedule_at(sim.now(), [&] { fired.push_back(sim.now()); });
  sim.run();
  ASSERT_EQ(fired.size(), 3u);
  EXPECT_EQ(fired[1], far - 1);
  EXPECT_EQ(fired[2], far);
}

// Park the clock before a pending event, then insert an earlier one: it
// must fire first.
TEST(EventQueue, ParkThenInsertEarlier) {
  Simulation sim;
  std::vector<int> order;
  sim.schedule_at(12'805, [&] { order.push_back(2); });
  sim.run(512);  // parks before the pending event
  sim.schedule_at(2'560, [&] { order.push_back(1); });
  sim.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2}));
}

// Park far behind a far-future event, then insert one much earlier and one
// just after the pending event: all three fire in time order.
TEST(EventQueue, ParkThenInsertEarlierAndLater) {
  Simulation sim;
  std::vector<int> order;
  sim.schedule_at(1'572'864, [&] { order.push_back(2); });
  sim.run(256);
  sim.schedule_at(524'800, [&] { order.push_back(1); });
  sim.schedule_at(1'573'120, [&] { order.push_back(3); });
  sim.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

// ---- kernel order against a reference model ----

// The kernel as it was before coroutine wakes carried their handle and
// same-instant events went to a FIFO: one (at, seq) heap of std::function
// entries, with wait lists on std::deque. Equal-timestamp events run in
// schedule order by construction.
class ReferenceQueue {
 public:
  Time now() const { return now_; }
  void schedule_at(Time at, std::function<void()> fn) {
    heap_.push_back(Entry{at, seq_++, std::move(fn)});
    std::push_heap(heap_.begin(), heap_.end(), Later{});
  }
  void schedule_after(Time d, std::function<void()> fn) {
    schedule_at(now_ + d, std::move(fn));
  }
  void spawn(Task<> task) {
    auto h = task.release();
    h.promise().detached = true;
    schedule_at(now_, [h] { h.resume(); });
  }
  auto delay(Time d) {
    struct Awaiter {
      ReferenceQueue* q;
      Time d;
      bool await_ready() const noexcept { return false; }
      void await_suspend(std::coroutine_handle<> h) {
        q->schedule_after(d, [h] { h.resume(); });
      }
      void await_resume() const noexcept {}
    };
    return Awaiter{this, d};
  }
  void run() {
    while (!heap_.empty()) {
      std::pop_heap(heap_.begin(), heap_.end(), Later{});
      Entry ev = std::move(heap_.back());
      heap_.pop_back();
      now_ = ev.at;
      ++events_;
      ev.fn();
    }
  }
  size_t events_processed() const { return events_; }
  size_t pending_events() const { return heap_.size(); }

 private:
  struct Entry {
    Time at;
    uint64_t seq;
    std::function<void()> fn;
  };
  struct Later {
    bool operator()(const Entry& a, const Entry& b) const {
      return a.at != b.at ? a.at > b.at : a.seq > b.seq;
    }
  };
  Time now_ = 0;
  uint64_t seq_ = 0;
  size_t events_ = 0;
  std::vector<Entry> heap_;
};

class RefWaitQueue {
 public:
  explicit RefWaitQueue(ReferenceQueue& q) : q_(&q) {}
  struct Waiter {
    RefWaitQueue* wq;
    bool result = false;
    bool await_ready() const noexcept { return false; }
    void await_suspend(std::coroutine_handle<> h) {
      wq->waiters_.emplace_back(this, h);
    }
    bool await_resume() const noexcept { return result; }
  };
  Waiter wait() { return Waiter{this}; }
  void notify_one(bool ok = true) {
    if (waiters_.empty()) return;
    auto [w, h] = waiters_.front();
    waiters_.pop_front();
    w->result = ok;
    q_->schedule_at(q_->now(), [h] { h.resume(); });
  }
  void notify_all(bool ok = true) {
    while (!waiters_.empty()) notify_one(ok);
  }
  size_t waiting() const { return waiters_.size(); }

 private:
  ReferenceQueue* q_;
  std::deque<std::pair<Waiter*, std::coroutine_handle<>>> waiters_;
};

class RefChannel {
 public:
  explicit RefChannel(ReferenceQueue& q) : q_(&q) {}
  void send(int item) {
    if (closed_) return;
    if (!receivers_.empty()) {
      auto [r, h] = receivers_.front();
      receivers_.pop_front();
      r->value = item;
      q_->schedule_at(q_->now(), [h] { h.resume(); });
      return;
    }
    items_.push_back(item);
  }
  struct Receiver {
    RefChannel* c;
    std::optional<int> value{};
    bool await_ready() {
      if (!c->items_.empty()) {
        value = c->items_.front();
        c->items_.pop_front();
        return true;
      }
      return c->closed_;
    }
    void await_suspend(std::coroutine_handle<> h) {
      c->receivers_.emplace_back(this, h);
    }
    std::optional<int> await_resume() noexcept { return value; }
  };
  Receiver receive() { return Receiver{this}; }
  void close() {
    closed_ = true;
    items_.clear();
    for (auto [r, h] : std::exchange(receivers_, {}))
      q_->schedule_at(q_->now(), [h] { h.resume(); });
  }
  void reopen() { closed_ = false; }

 private:
  ReferenceQueue* q_;
  std::deque<int> items_;
  std::deque<std::pair<Receiver*, std::coroutine_handle<>>> receivers_;
  bool closed_ = false;
};

// FIFO server pool with hand-off on release, as sim::Resource was before
// use() became an awaiter: use() and acquire() are coroutines, and the
// hand-off wakes the waiter's acquire() frame.
class RefResource {
 public:
  RefResource(ReferenceQueue& q, int capacity)
      : q_(&q), capacity_(capacity), queue_(q) {}
  Task<> use(Time cost) {
    co_await acquire();
    co_await q_->delay(cost);
    release();
  }
  Task<> acquire() {
    if (in_use_ < capacity_ && queue_.waiting() == 0) {
      ++in_use_;
      co_return;
    }
    co_await queue_.wait();
  }
  void release() {
    if (queue_.waiting() > 0)
      queue_.notify_one();
    else
      --in_use_;
  }

 private:
  ReferenceQueue* q_;
  int capacity_;
  int in_use_ = 0;
  RefWaitQueue queue_;
};

struct Kernel {
  using Sim = Simulation;
  using Wq = WaitQueue;
  using Chan = Channel<int>;
  using Res = Resource;
};
struct ReferenceKernel {
  using Sim = ReferenceQueue;
  using Wq = RefWaitQueue;
  using Chan = RefChannel;
  using Res = RefResource;
};

// Eight workers each take 200 random steps over every way a coroutine
// suspends or wakes another; a janitor cancels stranded waiters and
// reopens the mailbox until they are done. Each step, closure and child
// records (time, id) in the trace. Uses of the capacity-1 pool mostly
// find it taken, so they take the hand-off path.
template <typename K>
struct KernelScenario {
  static constexpr int kWorkers = 8;
  static constexpr int kSteps = 200;
  typename K::Sim sim;
  typename K::Wq wq{sim};
  typename K::Chan ch{sim};
  typename K::Res cpu{sim, 2};
  typename K::Res cpu1{sim, 1};
  util::Rng rng;
  std::vector<std::pair<Time, int>> trace;
  int live = kWorkers;
  int cpu1_users = 0;  // holding or queued
  int cpu1_uses = 0;
  int cpu1_handoffs = 0;

  explicit KernelScenario(uint64_t seed) : rng(seed) {}
  void note(int id) { trace.emplace_back(sim.now(), id); }

  static Task<> child(KernelScenario& s, int id, Time d) {
    co_await s.sim.delay(d);
    s.note(id);
  }
  static Task<> worker(KernelScenario& s, int w) {
    for (int step = 0; step < kSteps; ++step) {
      const int id = (w + 1) * 10'000 + step * 10;
      switch (s.rng.below(15)) {
        case 0: co_await s.sim.delay(0); break;
        case 1: co_await s.sim.delay(Time(1 + s.rng.below(40))); break;
        case 2: co_await s.sim.delay(Time(s.rng.below(100'000))); break;
        case 3:
          s.sim.schedule_at(s.sim.now(), [&s, id] { s.note(id + 1); });
          break;
        case 4:
          s.sim.schedule_after(Time(s.rng.below(40)),
                               [&s, id] { s.note(id + 2); });
          break;
        case 5:
          s.sim.spawn(child(s, id + 3, Time(s.rng.below(3))));
          break;
        case 6: s.note(co_await s.wq.wait() ? id + 4 : id + 5); break;
        case 7: s.wq.notify_one(s.rng.chance(0.8)); break;
        case 8: s.wq.notify_all(s.rng.chance(0.5)); break;
        case 9: s.ch.send(id); break;
        case 10: {
          const std::optional<int> v = co_await s.ch.receive();
          s.note(v ? -*v : id + 6);
          break;
        }
        case 11: s.ch.close(); break;
        case 12: co_await s.cpu.use(Time(s.rng.below(30))); break;
        default: {
          ++s.cpu1_uses;
          if (s.cpu1_users++ > 0) ++s.cpu1_handoffs;
          co_await s.cpu1.use(Time(250 * s.rng.below(32)));
          --s.cpu1_users;
          break;
        }
      }
      s.note(id);
    }
    --s.live;
  }
  static Task<> janitor(KernelScenario& s) {
    while (s.live > 0) {
      co_await s.sim.delay(500);
      s.wq.notify_all(false);
      s.ch.close();
      s.ch.reopen();
    }
  }

  std::vector<std::pair<Time, int>> run() {
    for (int w = 0; w < kWorkers; ++w) sim.spawn(worker(*this, w));
    sim.spawn(janitor(*this));
    sim.run();
    return trace;
  }
};

TEST(EventQueue, MatchesReferenceModel) {
  for (uint64_t seed : {1u, 2u, 3u, 4u, 5u}) {
    KernelScenario<Kernel> got(seed);
    KernelScenario<ReferenceKernel> want(seed);
    const auto t_got = got.run();
    const auto t_want = want.run();
    ASSERT_GT(t_want.size(), size_t(KernelScenario<Kernel>::kWorkers *
                                    KernelScenario<Kernel>::kSteps));
    const auto [a, b] = std::mismatch(t_got.begin(), t_got.end(),
                                      t_want.begin(), t_want.end());
    ASSERT_TRUE(a == t_got.end() && b == t_want.end())
        << "seed " << seed << ": traces diverge at entry "
        << (a - t_got.begin()) << " of " << t_want.size();
    EXPECT_EQ(got.sim.events_processed(), want.sim.events_processed())
        << "seed " << seed;
    EXPECT_GT(2 * got.cpu1_handoffs, got.cpu1_uses)
        << "seed " << seed << ": " << got.cpu1_handoffs << " of "
        << got.cpu1_uses << " capacity-1 uses were handed off";
    EXPECT_EQ(got.sim.pending_events(), 0u);
    EXPECT_EQ(want.sim.pending_events(), 0u);
  }
}

}  // namespace
}  // namespace dmv::sim
