// Simulated cluster network.
//
// Nodes are registered endpoints with a mailbox (Channel of Envelopes).
// Links are reliable and FIFO per (sender, receiver) pair — the in-order
// delivery a TCP connection would give the real system, which the DMV
// replication protocol depends on (write-sets from a master must apply in
// version order). Latency is a fixed per-message cost plus a per-KB
// transfer cost, both taken from the link's class in the Topology: intra-
// region pairs pay LAN costs, cross-region pairs pay WAN costs (plus
// deterministic jitter). The default topology has one region and both
// classes initialised from NetworkConfig, reproducing the flat pre-geo
// behaviour exactly.
//
// Fail-stop faults: kill() closes the node's mailbox (receivers wake with
// nullopt), drops in-flight and future traffic, and notifies failure
// subscribers after the link class's detect delay — modeling peers
// observing a broken connection, the paper's §4 failure-detection
// assumption; a cross-region peer on a slower class observes the death
// later than a same-region one. A kill is the only node fault, and it
// always breaks connections, so no heartbeat detector is modeled. A dead
// node's own in-flight messages keep arriving only until that same
// per-class detection point: once a peer has observed the broken
// connection, the stream is sealed (a TCP connection cannot deliver after
// the receiver saw it break), so e.g. a write-set lingering on a slowed
// link cannot resurrect versions a fail-over already discarded. restart()
// brings the node back with an empty mailbox and a fresh connection epoch
// (its volatile state is gone; higher layers re-join via the
// data-migration protocol).
//
// Region partitions (partition_regions / heal_partition) model a WAN cut:
// no message between live nodes is ever lost. A region partition parks
// traffic at the delivery point in per-link FIFO queues and flushes it in
// order on heal, the way TCP retransmission rides out a transient route
// loss. Parked messages still pass the sealed-
// connection check at flush time, so a sender that died mid-partition
// cannot leak stale stream data after the heal.
//
// The network is a class template over its closed message set, a
// std::variant: an envelope carries the payload by value, receivers
// dispatch with std::visit or std::get_if, and per-type statistics are
// indexed by the alternative's position. The cluster's instantiation,
// net::Network, is declared next to its message set in core/messages.hpp.
#pragma once

#include <algorithm>
#include <array>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <string_view>
#include <type_traits>
#include <utility>
#include <variant>
#include <vector>

#include "net/topology.hpp"
#include "obs/trace.hpp"
#include "sim/sync.hpp"
#include "util/assert.hpp"
#include "util/rng.hpp"

namespace dmv::net {

constexpr NodeId kNoNode = UINT32_MAX;

// A message in flight or in a mailbox.
template <typename Msg>
struct Envelope {
  NodeId from = kNoNode;
  NodeId to = kNoNode;
  Msg msg;
};

// Call operators from several lambdas, for std::visit over a message.
template <typename... Fs>
struct Overloaded : Fs... {
  using Fs::operator()...;
};

// Position of T among the alternatives of the variant Msg; a compile
// error unless T is exactly one of them.
template <typename T, typename Msg>
struct IndexOf;
template <typename T, typename... Ts>
struct IndexOf<T, std::variant<Ts...>> {
  static_assert((std::is_same_v<T, Ts> + ...) == 1,
                "not a message type of this network");
  static constexpr size_t value = [] {
    size_t i = 0;
    (void)((std::is_same_v<T, Ts> ? false : (++i, true)) && ...);
    return i;
  }();
};

struct NetworkConfig {
  sim::Time base_latency = 100 * sim::kUsec;   // per-message propagation
  sim::Time per_kb = 80 * sim::kUsec;          // transfer time per KB
  sim::Time detect_delay = 50 * sim::kMsec;    // broken-connection detection
  uint64_t jitter_seed = 0x7c4a1d6f0b9e3325ull;  // per-message jitter stream
};

template <typename Msg>
class BasicNetwork {
 public:
  BasicNetwork(sim::Simulation& sim, NetworkConfig cfg = {});

  NodeId add_node(std::string name);

  const std::string& name(NodeId id) const {
    DMV_ASSERT(id < nodes_.size());
    return nodes_[id].name;
  }
  // Reverse lookup by registered name; kNoNode if absent. Fault plans
  // address nodes by name ("master", "slave0", "sched1", ...).
  NodeId find_node(std::string_view name) const {
    for (NodeId id = 0; id < nodes_.size(); ++id)
      if (nodes_[id].name == name) return id;
    return kNoNode;
  }
  bool alive(NodeId id) const {
    DMV_ASSERT(id < nodes_.size());
    return nodes_[id].alive;
  }
  // Incarnation of the node: bumped by every restart().
  uint64_t epoch(NodeId id) const { return nodes_.at(id).epoch; }

  // Region placement and link-class parameters. Mutate before (or between)
  // runs: e.g. net.topology().add_region("west") and place(id, west).
  Topology& topology() { return topo_; }
  const Topology& topology() const { return topo_; }

  // Deliver `payload` to `to` after link latency. Silently dropped if either
  // end is dead (fail-stop model). `bytes` is the simulated wire size.
  template <typename T>
  void send(NodeId from, NodeId to, T payload, size_t bytes = 256) {
    send_envelope({from, to, Msg(std::in_place_type<T>, std::move(payload))},
                  bytes);
  }

  sim::Channel<Envelope<Msg>>& mailbox(NodeId id) {
    DMV_ASSERT(id < nodes_.size());
    return *nodes_[id].mailbox;
  }

  void kill(NodeId id);
  void restart(NodeId id) {
    DMV_ASSERT(id < nodes_.size());
    if (nodes_[id].alive) return;
    nodes_[id].alive = true;
    ++nodes_[id].epoch;  // a fresh incarnation: old connections stay dead
    nodes_[id].mailbox->reopen();
  }

  // Extra per-message latency on one link, both directions (0 to clear).
  // Per-link FIFO order is preserved; fault plans use this to stretch
  // protocol windows deterministically.
  void set_link_delay(NodeId a, NodeId b, sim::Time extra) {
    DMV_ASSERT(extra >= 0);
    DMV_ASSERT(a < nodes_.size() && b < nodes_.size());
    link(a, b).extra = link(b, a).extra = extra;
  }

  // Region partition control. Directed: traffic from `a` to `b` parks at
  // the delivery point until healed, then flushes in FIFO order (TCP rides
  // out the cut; nothing is lost unless an endpoint dies meanwhile).
  // `both_ways` cuts/heals the reverse direction too.
  void partition_regions(RegionId a, RegionId b, bool both_ways = true);
  void heal_partition(RegionId a, RegionId b, bool both_ways = true);
  void heal_all_partitions() {
    region_cuts_.clear();
    flush_parked();
  }
  bool regions_partitioned(RegionId from, RegionId to) const {
    return !region_cuts_.empty() && region_cuts_.count({from, to}) > 0;
  }

  // Subscribers are told about every node death once per link class, at
  // that class's detect delay, so callers can notify same-region observers
  // before cross-region ones.
  void subscribe_failures_by_class(
      std::function<void(NodeId, LinkClass)> cb) {
    class_failure_subs_.push_back(std::move(cb));
  }

  // The longest broken-connection detect delay over all link classes: by
  // this long after a kill, every peer has observed the death.
  sim::Time detect_horizon() const { return topo_.max_detect_delay(); }

  // Cumulative traffic accounting (for reporting replication volume).
  uint64_t bytes_sent() const { return bytes_sent_; }
  uint64_t messages_sent() const { return messages_sent_; }

  // Per-payload-type accounting: messages and bytes per payload type.
  // Benches report replication cost per committed update from these (e.g.
  // stats_of<WriteSetMsg>() + stats_of<WriteSetBatchMsg>()). The
  // class-keyed overloads separate WAN from LAN volume.
  struct PayloadStats {
    uint64_t messages = 0;
    uint64_t bytes = 0;
  };
  template <typename T>
  PayloadStats stats_of() const {
    return payload_stats_[IndexOf<T, Msg>::value];
  }
  template <typename T>
  PayloadStats stats_of(LinkClass c) const {
    return class_stats_[size_t(c)][IndexOf<T, Msg>::value];
  }

  // Bytes sent but not yet delivered (or dropped) on links of a class —
  // includes traffic parked behind an active region partition.
  uint64_t inflight_bytes(LinkClass c) const {
    return inflight_bytes_[size_t(c)];
  }

  sim::Simulation& sim() { return sim_; }
  const NetworkConfig& config() const { return cfg_; }

 private:
  using TypeStats = std::array<PayloadStats, std::variant_size_v<Msg>>;

  void send_envelope(Envelope<Msg> env, size_t bytes);

  struct Node {
    std::string name;
    bool alive = true;
    // Connection identity: bumped on restart; with killed_at it bounds
    // how long a dead incarnation's in-flight messages keep arriving.
    uint64_t epoch = 0;
    sim::Time killed_at = 0;
    std::unique_ptr<sim::Channel<Envelope<Msg>>> mailbox;
  };

  // A message between send() and its delivery point: in a slot of the
  // flight pool until its scheduled delivery, then, if the region pair is
  // partitioned, in its link's parked queue until the heal.
  struct Flight {
    uint64_t epoch = 0;  // sender epoch at send time
    Envelope<Msg> env;
    size_t bytes = 0;
    LinkClass cls = LinkClass::Intra;
  };

  sim::Time transfer_time(size_t bytes, const LinkClassConfig& lc) const {
    return lc.base_latency + sim::Time(bytes) * lc.per_kb / 1024;
  }
  // The delivery point: receiver-alive and sealed-sender checks, then park
  // (partitioned) or hand to the mailbox. Used by both the scheduled send
  // completion and the heal-time flush.
  void deliver_one(Flight fl);
  void flush_parked();
  void account_delivered(size_t bytes, LinkClass cls);

  sim::Simulation& sim_;
  NetworkConfig cfg_;
  Topology topo_;
  util::Rng jitter_rng_;
  std::vector<Node> nodes_;
  // Per directed link state, dense: links_[from][to]. set_link_delay acts
  // on both directions of a pair. A row grows only to
  // the highest peer its node has used, so the many clients, which talk
  // only to the schedulers, keep short rows.
  struct Link {
    sim::Time clock = 0;  // FIFO: next admissible delivery time
    sim::Time extra = 0;  // set_link_delay
  };
  Link& link(NodeId from, NodeId to) {
    std::vector<Link>& row = links_[from];
    if (row.size() <= to) row.resize(size_t(to) + 1);
    return row[to];
  }
  std::vector<std::vector<Link>> links_;
  std::set<std::pair<RegionId, RegionId>> region_cuts_;  // directed
  std::map<std::pair<NodeId, NodeId>, std::deque<Flight>> parked_;
  std::vector<std::function<void(NodeId, LinkClass)>> class_failure_subs_;
  uint64_t bytes_sent_ = 0;
  uint64_t messages_sent_ = 0;
  // Indexed by the payload's alternative index.
  TypeStats payload_stats_{};
  std::array<TypeStats, kNumLinkClasses> class_stats_{};
  std::array<uint64_t, kNumLinkClasses> inflight_bytes_{};
  // Flight pool: slots are free-listed, so steady-state traffic allocates
  // nothing per message. The scheduled delivery captures only (this,
  // slot), which fits std::function's inline storage. Grows to the peak
  // in-flight count once.
  std::vector<Flight> flights_;
  std::vector<uint32_t> free_flights_;
};

// The larger members, defined out of line and so not inline: a message
// set's instantiation can be declared `extern template` and built once.

template <typename Msg>
BasicNetwork<Msg>::BasicNetwork(sim::Simulation& sim, NetworkConfig cfg)
    : sim_(sim), cfg_(cfg), jitter_rng_(cfg.jitter_seed) {
  // Both link classes start flat: a topology nobody touches behaves exactly
  // like the pre-geo single-constant network.
  for (size_t c = 0; c < kNumLinkClasses; ++c) {
    LinkClassConfig& lc = topo_.link(LinkClass(c));
    lc.base_latency = cfg_.base_latency;
    lc.per_kb = cfg_.per_kb;
    lc.jitter = 0;
    lc.detect_delay = cfg_.detect_delay;
  }
}

template <typename Msg>
NodeId BasicNetwork<Msg>::add_node(std::string name) {
  const NodeId id = static_cast<NodeId>(nodes_.size());
  nodes_.push_back(Node{std::move(name), true, 0, 0,
                        std::make_unique<sim::Channel<Envelope<Msg>>>(sim_)});
  links_.emplace_back();
  obs::name_node(id, nodes_.back().name);
  return id;
}

template <typename Msg>
void BasicNetwork<Msg>::account_delivered(size_t bytes, LinkClass cls) {
  DMV_ASSERT(inflight_bytes_[size_t(cls)] >= bytes);
  inflight_bytes_[size_t(cls)] -= bytes;
  obs::gauge("net.inflight_bytes", uint32_t(cls),
             double(inflight_bytes_[size_t(cls)]));
}

template <typename Msg>
void BasicNetwork<Msg>::deliver_one(Flight fl) {
  const NodeId from = fl.env.from;
  const NodeId to = fl.env.to;
  // Receiver may have died while the message was in flight.
  if (!nodes_[to].alive) {
    account_delivered(fl.bytes, fl.cls);
    return;
  }
  // Sender may have died too. Its in-flight bytes still arrive — until the
  // receiver observes the broken connection (the link class's detect delay
  // after the kill). Past that point the connection is sealed: delivering
  // would hand the receiver data from a stream every peer has already
  // pronounced dead — e.g. a write-set batch on a slowed link resurrecting
  // versions a fail-over discarded.
  const Node& src = nodes_[from];
  if ((!src.alive || src.epoch != fl.epoch) &&
      sim_.now() >= src.killed_at + topo_.link(fl.cls).detect_delay) {
    account_delivered(fl.bytes, fl.cls);
    return;
  }
  // A region partition parks the message instead of losing it: TCP rides
  // out the cut and redelivers in order once the route heals.
  if (regions_partitioned(topo_.region_of(from), topo_.region_of(to))) {
    parked_[{from, to}].push_back(std::move(fl));
    return;
  }
  account_delivered(fl.bytes, fl.cls);
  nodes_[to].mailbox->send(std::move(fl.env));
}

template <typename Msg>
void BasicNetwork<Msg>::send_envelope(Envelope<Msg> env, size_t bytes) {
  const NodeId from = env.from;
  const NodeId to = env.to;
  DMV_ASSERT(from < nodes_.size() && to < nodes_.size());
  if (!nodes_[from].alive || !nodes_[to].alive) return;
  Link& lk = link(from, to);

  const LinkClass cls = topo_.link_class(from, to);
  const LinkClassConfig& lc = topo_.link(cls);

  bytes_sent_ += bytes;
  ++messages_sent_;
  for (TypeStats* s : {&payload_stats_, &class_stats_[size_t(cls)]}) {
    ++(*s)[env.msg.index()].messages;
    (*s)[env.msg.index()].bytes += bytes;
  }
  obs::count("net.bytes", from, double(bytes));
  obs::gauge("net.link_rtt", uint32_t(cls), double(topo_.rtt(cls)));
  inflight_bytes_[size_t(cls)] += bytes;
  obs::gauge("net.inflight_bytes", uint32_t(cls),
             double(inflight_bytes_[size_t(cls)]));

  sim::Time extra = lk.extra;
  if (lc.jitter > 0) extra += sim::Time(jitter_rng_.below(lc.jitter + 1));

  const sim::Time deliver_at =
      std::max(sim_.now() + transfer_time(bytes, lc) + extra, lk.clock);
  lk.clock = deliver_at;

  uint32_t slot;
  if (!free_flights_.empty()) {
    slot = free_flights_.back();
    free_flights_.pop_back();
  } else {
    slot = uint32_t(flights_.size());
    flights_.emplace_back();
  }
  flights_[slot] = Flight{nodes_[from].epoch, std::move(env), bytes, cls};
  sim_.schedule_at(deliver_at, [this, slot] {
    Flight fl = std::exchange(flights_[slot], Flight{});
    free_flights_.push_back(slot);
    deliver_one(std::move(fl));
  });
}

template <typename Msg>
void BasicNetwork<Msg>::kill(NodeId id) {
  DMV_ASSERT(id < nodes_.size());
  if (!nodes_[id].alive) return;
  obs::instant("node.killed", obs::Cat::Recovery, id);
  nodes_[id].alive = false;
  nodes_[id].killed_at = sim_.now();
  nodes_[id].mailbox->close();
  // Detection happens in waves: peers on each link class observe the broken
  // connection after that class's delay.
  if (!class_failure_subs_.empty()) {
    for (size_t c = 0; c < kNumLinkClasses; ++c) {
      const LinkClass cls = LinkClass(c);
      sim_.schedule_after(topo_.link(cls).detect_delay, [this, id, cls] {
        for (auto& cb : class_failure_subs_) cb(id, cls);
      });
    }
  }
}

template <typename Msg>
void BasicNetwork<Msg>::partition_regions(RegionId a, RegionId b,
                                          bool both_ways) {
  DMV_ASSERT(a < topo_.region_count() && b < topo_.region_count());
  obs::instant("net.partition", obs::Cat::Net);
  region_cuts_.insert({a, b});
  if (both_ways) region_cuts_.insert({b, a});
}

template <typename Msg>
void BasicNetwork<Msg>::heal_partition(RegionId a, RegionId b,
                                       bool both_ways) {
  region_cuts_.erase({a, b});
  if (both_ways) region_cuts_.erase({b, a});
  flush_parked();
}

template <typename Msg>
void BasicNetwork<Msg>::flush_parked() {
  obs::instant("net.heal_partition", obs::Cat::Net);
  for (auto& [link, q] : parked_) {
    if (regions_partitioned(topo_.region_of(link.first),
                            topo_.region_of(link.second)))
      continue;
    // Replay in FIFO order through the normal delivery point: the sealed-
    // connection and liveness checks re-run against heal-time state.
    std::deque<Flight> drain;
    drain.swap(q);
    for (auto& fl : drain) deliver_one(std::move(fl));
  }
}

}  // namespace dmv::net
