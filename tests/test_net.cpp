#include <gtest/gtest.h>

#include <string>
#include <variant>
#include <vector>

#include "net/network.hpp"
#include "util/rng.hpp"

namespace dmv::net {
namespace {

struct Ping {
  int n;
};
struct Pong {
  std::string text;
};
struct Down {
  NodeId who;
};
struct Tick {
  uint64_t seq = 0;
};

// The test's closed message set, standing in for core::Message.
using TestMsg = std::variant<Ping, Pong, Down, Tick>;
using Network = BasicNetwork<TestMsg>;
using Env = Envelope<TestMsg>;

struct Fixture {
  sim::Simulation sim;
  Network net;
  Fixture(NetworkConfig cfg = {}) : net(sim, cfg) {}
};

TEST(Network, DeliversWithLatency) {
  Fixture f;
  NodeId a = f.net.add_node("a");
  NodeId b = f.net.add_node("b");
  sim::Time arrival = -1;
  int value = 0;
  f.sim.spawn([](Fixture& f, NodeId b, sim::Time& t, int& v) -> sim::Task<> {
    auto env = co_await f.net.mailbox(b).receive();
    EXPECT_TRUE(env.has_value());
    if (!env) co_return;
    t = f.sim.now();
    v = std::get<Ping>(env->msg).n;
  }(f, b, arrival, value));
  f.net.send(a, b, Ping{41}, 1024);
  f.sim.run();
  EXPECT_EQ(value, 41);
  // base 100us + 1KB * 80us/KB
  EXPECT_EQ(arrival, 180);
}

TEST(Network, FifoPerLinkEvenWithSizeSkew) {
  Fixture f;
  NodeId a = f.net.add_node("a");
  NodeId b = f.net.add_node("b");
  std::vector<int> got;
  f.sim.spawn([](Fixture& f, NodeId b, std::vector<int>& got) -> sim::Task<> {
    for (int i = 0; i < 3; ++i) {
      auto env = co_await f.net.mailbox(b).receive();
      got.push_back(std::get<Ping>(env->msg).n);
    }
  }(f, b, got));
  // Big message first: smaller later messages must not overtake it.
  f.net.send(a, b, Ping{1}, 100 * 1024);
  f.net.send(a, b, Ping{2}, 16);
  f.net.send(a, b, Ping{3}, 16);
  f.sim.run();
  EXPECT_EQ(got, (std::vector<int>{1, 2, 3}));
}

TEST(Network, KillClosesMailboxAndDropsTraffic) {
  Fixture f;
  NodeId a = f.net.add_node("a");
  NodeId b = f.net.add_node("b");
  bool saw_close = false;
  f.sim.spawn([](Fixture& f, NodeId b, bool& flag) -> sim::Task<> {
    auto env = co_await f.net.mailbox(b).receive();
    flag = !env.has_value();
  }(f, b, saw_close));
  f.sim.schedule_at(10, [&] { f.net.kill(b); });
  f.sim.schedule_at(20, [&] { f.net.send(a, b, Ping{1}); });
  f.sim.run();
  EXPECT_TRUE(saw_close);
  EXPECT_FALSE(f.net.alive(b));
}

TEST(Network, InFlightMessageToDeadNodeDropped) {
  Fixture f;
  NodeId a = f.net.add_node("a");
  NodeId b = f.net.add_node("b");
  f.net.send(a, b, Ping{1}, 1024 * 1024);  // long transfer
  f.sim.schedule_at(10, [&] { f.net.kill(b); });
  f.sim.run();  // must not crash; message silently dropped
  EXPECT_FALSE(f.net.alive(b));
}

TEST(Network, FailureSubscribersNotifiedAfterDetectDelay) {
  NetworkConfig cfg;
  cfg.detect_delay = 500;
  Fixture f(cfg);
  NodeId a = f.net.add_node("a");
  (void)a;
  NodeId b = f.net.add_node("b");
  // A flat topology: every link class detects at the configured delay,
  // so each class's wave fires at the same instant.
  std::vector<std::pair<sim::Time, NodeId>> notices;
  f.net.subscribe_failures_by_class(
      [&](NodeId n, LinkClass) { notices.emplace_back(f.sim.now(), n); });
  f.sim.schedule_at(100, [&] { f.net.kill(b); });
  f.sim.run();
  ASSERT_EQ(notices.size(), kNumLinkClasses);
  for (const auto& [at, n] : notices) {
    EXPECT_EQ(at, 600);
    EXPECT_EQ(n, b);
  }
}

TEST(Network, DeadSenderStreamSealsAtDetection) {
  // A dead node's in-flight messages model bytes already on the wire:
  // they arrive while the break is unobserved, but once detect_delay has
  // passed the receiver has seen the connection die and nothing more may
  // come out of it — late stragglers on a slowed link are dropped.
  NetworkConfig cfg;
  cfg.detect_delay = 500;
  Fixture f(cfg);
  NodeId a = f.net.add_node("a");
  NodeId b = f.net.add_node("b");
  f.net.set_link_delay(a, b, 300);
  std::vector<int> got;
  f.sim.spawn([](Fixture& f, NodeId b, std::vector<int>& got) -> sim::Task<> {
    for (;;) {
      auto env = co_await f.net.mailbox(b).receive();
      if (!env) co_return;
      got.push_back(std::get<Ping>(env->msg).n);
    }
  }(f, b, got));
  f.net.send(a, b, Ping{1});  // arrives ~400: before detection (500)
  f.sim.schedule_at(0, [&] {
    f.net.set_link_delay(a, b, 900);
    f.net.send(a, b, Ping{2});  // would arrive ~1000: after detection
    f.net.kill(a);
  });
  f.sim.run();
  EXPECT_EQ(got, (std::vector<int>{1}));

  // A restarted incarnation is a new connection: its messages flow even
  // though the old epoch's stragglers were sealed out.
  f.net.set_link_delay(a, b, 0);
  f.net.restart(a);
  f.net.send(a, b, Ping{3});
  f.sim.run();
  EXPECT_EQ(got, (std::vector<int>{1, 3}));
}

TEST(Network, RestartReopensMailbox) {
  Fixture f;
  NodeId a = f.net.add_node("a");
  NodeId b = f.net.add_node("b");
  f.net.kill(b);
  f.net.restart(b);
  EXPECT_TRUE(f.net.alive(b));
  int got = 0;
  f.sim.spawn([](Fixture& f, NodeId b, int& got) -> sim::Task<> {
    auto env = co_await f.net.mailbox(b).receive();
    got = std::get<Ping>(env->msg).n;
  }(f, b, got));
  f.net.send(a, b, Ping{5});
  f.sim.run();
  EXPECT_EQ(got, 5);
}

TEST(Network, TrafficAccounting) {
  Fixture f;
  NodeId a = f.net.add_node("a");
  NodeId b = f.net.add_node("b");
  f.net.send(a, b, Ping{1}, 100);
  f.net.send(a, b, Ping{2}, 50);
  EXPECT_EQ(f.net.messages_sent(), 2u);
  EXPECT_EQ(f.net.bytes_sent(), 150u);
}

TEST(Network, FifoPreservedAcrossManyInterleavedSenders) {
  // Property: per-link FIFO holds even when many senders with random
  // message sizes interleave (sizes would reorder naive delivery).
  Fixture f;
  NodeId dst = f.net.add_node("dst");
  std::vector<NodeId> srcs;
  for (int i = 0; i < 4; ++i)
    srcs.push_back(f.net.add_node("s" + std::to_string(i)));
  std::map<NodeId, int> last_seen;
  bool violated = false;
  f.sim.spawn([](Fixture& f, NodeId dst, std::map<NodeId, int>& last,
                 bool& violated) -> sim::Task<> {
    for (;;) {
      auto env = co_await f.net.mailbox(dst).receive();
      if (!env) break;
      const int n = std::get<Ping>(env->msg).n;
      if (last.count(env->from) && n != last[env->from] + 1)
        violated = true;
      last[env->from] = n;
    }
  }(f, dst, last_seen, violated));
  dmv::util::Rng rng(99);
  for (int k = 0; k < 200; ++k) {
    const NodeId src = srcs[rng.below(srcs.size())];
    static std::map<NodeId, int> seq;
    f.net.send(src, dst, Ping{seq[src]++}, 16 + rng.below(64 * 1024));
  }
  f.sim.schedule_at(60 * sim::kSec, [&] { f.net.kill(dst); });
  f.sim.run();
  EXPECT_FALSE(violated);
  for (auto& [src, n] : last_seen) EXPECT_GT(n, 0);
}

TEST(Topology, CrossRegionLinksPayTheirOwnCosts) {
  Fixture f;
  Topology& topo = f.net.topology();
  const RegionId west = topo.add_region("west");
  topo.link(LinkClass::Cross) = {.base_latency = 10 * sim::kMsec,
                                 .per_kb = 200,
                                 .jitter = 0,
                                 .detect_delay = 200 * sim::kMsec};
  NodeId a = f.net.add_node("a");
  NodeId b = f.net.add_node("b");
  NodeId c = f.net.add_node("c");
  topo.place(c, west);
  EXPECT_EQ(topo.link_class(a, b), LinkClass::Intra);
  EXPECT_EQ(topo.link_class(a, c), LinkClass::Cross);

  std::map<NodeId, sim::Time> arrival;
  auto sink = [](Fixture& f, NodeId me,
                 std::map<NodeId, sim::Time>& at) -> sim::Task<> {
    auto env = co_await f.net.mailbox(me).receive();
    if (env) at[me] = f.sim.now();
  };
  f.sim.spawn(sink(f, b, arrival));
  f.sim.spawn(sink(f, c, arrival));
  f.net.send(a, b, Ping{1}, 1024);
  f.net.send(a, c, Ping{2}, 1024);
  f.sim.run();
  EXPECT_EQ(arrival[b], 180);                   // LAN: 100us + 1KB*80us
  EXPECT_EQ(arrival[c], 10 * sim::kMsec + 200);  // WAN: 10ms + 1KB*200us

  // Per-class accounting split, consistent with the aggregate.
  EXPECT_EQ(f.net.stats_of<Ping>(LinkClass::Intra).messages, 1u);
  EXPECT_EQ(f.net.stats_of<Ping>(LinkClass::Cross).messages, 1u);
  EXPECT_EQ(f.net.stats_of<Ping>(LinkClass::Intra).bytes, 1024u);
  EXPECT_EQ(f.net.stats_of<Ping>(LinkClass::Cross).bytes, 1024u);
  EXPECT_EQ(f.net.stats_of<Ping>().messages, 2u);
  EXPECT_EQ(f.net.inflight_bytes(LinkClass::Cross), 0u);

  // A second payload type, of another size, is counted under its own
  // index and leaves the first type's counts alone.
  f.net.send(a, b, Pong{"x"}, 300);
  f.sim.run();
  EXPECT_EQ(f.net.stats_of<Pong>().messages, 1u);
  EXPECT_EQ(f.net.stats_of<Pong>().bytes, 300u);
  EXPECT_EQ(f.net.stats_of<Pong>(LinkClass::Intra).bytes, 300u);
  EXPECT_EQ(f.net.stats_of<Pong>(LinkClass::Cross).messages, 0u);
  EXPECT_EQ(f.net.stats_of<Ping>().messages, 2u);
  EXPECT_EQ(f.net.stats_of<Ping>().bytes, 2048u);
  EXPECT_EQ(f.net.stats_of<Tick>().messages, 0u);
}

TEST(Topology, RegionPartitionParksAndFlushesInOrder) {
  // A region cut must not lose messages (that would break the FIFO-
  // reliable contract replication depends on): traffic parks at the
  // delivery point and flushes in send order on heal.
  Fixture f;
  Topology& topo = f.net.topology();
  const RegionId west = topo.add_region("west");
  NodeId a = f.net.add_node("a");
  NodeId b = f.net.add_node("b");
  topo.place(b, west);
  std::vector<int> got;
  f.sim.spawn([](Fixture& f, NodeId b, std::vector<int>& got) -> sim::Task<> {
    for (;;) {
      auto env = co_await f.net.mailbox(b).receive();
      if (!env) break;
      got.push_back(std::get<Ping>(env->msg).n);
    }
  }(f, b, got));

  f.net.partition_regions(0, west);
  f.net.send(a, b, Ping{1}, 64);
  f.net.send(a, b, Ping{2}, 64);
  f.sim.run(sim::kSec);
  EXPECT_TRUE(got.empty());
  EXPECT_TRUE(f.net.regions_partitioned(0, west));
  EXPECT_GT(f.net.inflight_bytes(LinkClass::Cross), 0u);  // parked, not lost

  f.net.heal_partition(0, west);
  f.net.send(a, b, Ping{3}, 64);
  f.sim.run(2 * sim::kSec);
  EXPECT_EQ(got, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(f.net.inflight_bytes(LinkClass::Cross), 0u);
}

TEST(Topology, DirectedPartitionCutsOneWayOnly) {
  Fixture f;
  Topology& topo = f.net.topology();
  const RegionId west = topo.add_region("west");
  NodeId a = f.net.add_node("a");
  NodeId b = f.net.add_node("b");
  topo.place(b, west);
  int got_a = 0, got_b = 0;
  auto count = [](Fixture& f, NodeId me, int& n) -> sim::Task<> {
    for (;;) {
      auto env = co_await f.net.mailbox(me).receive();
      if (!env) break;
      ++n;
    }
  };
  f.sim.spawn(count(f, a, got_a));
  f.sim.spawn(count(f, b, got_b));
  f.net.partition_regions(0, west, /*both_ways=*/false);
  f.net.send(a, b, Ping{1});
  f.net.send(b, a, Ping{2});
  f.sim.run(sim::kSec);
  EXPECT_EQ(got_b, 0);  // local -> west parked
  EXPECT_EQ(got_a, 1);  // west -> local still flows
  f.net.heal_all_partitions();
  f.sim.run(2 * sim::kSec);
  EXPECT_EQ(got_b, 1);
}

// ---- envelopes carry one alternative of the message set ----

// Which arm a std::visit over the envelope takes: one per payload type.
int arm(const Env& env) {
  return std::visit(Overloaded{
                        [](const Ping&) { return 0; },
                        [](const Pong&) { return 1; },
                        [](const Down&) { return 2; },
                        [](const Tick&) { return 3; },
                    },
                    env.msg);
}

sim::Task<> collect(Fixture& f, NodeId at, std::vector<Env>& got) {
  for (;;) {
    auto env = co_await f.net.mailbox(at).receive();
    if (!env) co_return;
    got.push_back(std::move(*env));
  }
}

TEST(Envelope, HoldsExactlyTheSentAlternative) {
  Fixture f;
  NodeId a = f.net.add_node("a");
  NodeId b = f.net.add_node("b");
  std::vector<Env> got;
  f.sim.spawn(collect(f, b, got));
  f.net.send(a, b, Ping{5});
  f.net.send(a, b, Pong{"a payload long enough to live on the heap"});
  f.net.send(a, b, Tick{});
  f.sim.run();
  ASSERT_EQ(got.size(), 3u);
  for (auto& env : got) {
    EXPECT_EQ(env.from, a);
    EXPECT_EQ(env.to, b);
  }
  EXPECT_EQ(arm(got[0]), 0);
  EXPECT_EQ(arm(got[1]), 1);
  EXPECT_EQ(arm(got[2]), 3);
  EXPECT_EQ(got[1].msg.index(), (IndexOf<Pong, TestMsg>::value));
  EXPECT_EQ(std::get<Ping>(got[0].msg).n, 5);
  EXPECT_EQ(std::get_if<Pong>(&got[0].msg), nullptr);
  EXPECT_EQ(std::get_if<Ping>(&got[1].msg), nullptr);
  // A receiver may move the payload out of its envelope.
  std::string moved = std::move(std::get<Pong>(got[1].msg).text);
  EXPECT_EQ(moved, "a payload long enough to live on the heap");
}

TEST(Envelope, ParkedMessagesKeepTheirTypeAcrossHeal) {
  Fixture f;
  Topology& topo = f.net.topology();
  const RegionId west = topo.add_region("west");
  NodeId a = f.net.add_node("a");
  NodeId b = f.net.add_node("b");
  topo.place(b, west);
  std::vector<Env> got;
  f.sim.spawn(collect(f, b, got));
  f.net.partition_regions(0, west);
  f.net.send(a, b, Pong{"parked"}, 64);
  f.net.send(a, b, Ping{1}, 64);
  f.sim.run(sim::kSec);
  EXPECT_TRUE(got.empty());
  f.net.heal_partition(0, west);
  f.sim.run(2 * sim::kSec);
  ASSERT_EQ(got.size(), 2u);
  EXPECT_EQ(arm(got[0]), 1);
  EXPECT_EQ(std::get<Pong>(got[0].msg).text, "parked");
  EXPECT_EQ(arm(got[1]), 0);
  EXPECT_EQ(std::get<Ping>(got[1].msg).n, 1);
}

TEST(Envelope, LocallySynthesizedEnvelopeDispatches) {
  // A node's own failure notice, put straight into its mailbox the way
  // the cluster synthesizes SchedulerDown: it dispatches like any sent
  // message.
  Fixture f;
  NodeId a = f.net.add_node("a");
  std::vector<Env> got;
  f.sim.spawn(collect(f, a, got));
  f.net.mailbox(a).send(Env{a, a, Down{7}});
  f.sim.run();
  ASSERT_EQ(got.size(), 1u);
  EXPECT_EQ(arm(got[0]), 2);
  EXPECT_EQ(std::get<Down>(got[0].msg).who, 7u);
  EXPECT_EQ(got[0].from, a);
  EXPECT_EQ(f.net.messages_sent(), 0u);  // never on the wire
}

TEST(Network, FailureWavesFirePerLinkClass) {
  // Same-region peers observe a death at the intra detect delay; cross-
  // region peers only at their slower class's delay, the horizon.
  Fixture f;
  Topology& topo = f.net.topology();
  const RegionId west = topo.add_region("west");
  topo.link(LinkClass::Intra).detect_delay = 100;
  topo.link(LinkClass::Cross).detect_delay = 700;
  NodeId b = f.net.add_node("b");
  std::vector<std::pair<sim::Time, LinkClass>> waves;
  f.net.subscribe_failures_by_class(
      [&](NodeId n, LinkClass c) {
        EXPECT_EQ(n, b);
        waves.emplace_back(f.sim.now(), c);
      });
  (void)west;
  f.sim.schedule_at(50, [&] { f.net.kill(b); });
  f.sim.run();
  ASSERT_EQ(waves.size(), 2u);
  EXPECT_EQ(waves[0], (std::pair<sim::Time, LinkClass>{150, LinkClass::Intra}));
  EXPECT_EQ(waves[1], (std::pair<sim::Time, LinkClass>{750, LinkClass::Cross}));
  EXPECT_EQ(f.net.detect_horizon(), 700);  // the slowest class
  EXPECT_EQ(f.sim.now(), 750);  // nothing is scheduled past the last wave
}

}  // namespace
}  // namespace dmv::net
