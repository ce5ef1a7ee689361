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
#pragma once

#include <any>
#include <array>
#include <atomic>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <type_traits>
#include <vector>

#include "net/topology.hpp"
#include "sim/sync.hpp"
#include "util/rng.hpp"

namespace dmv::net {

constexpr NodeId kNoNode = UINT32_MAX;

// Dense id of payload type T, assigned on the type's first use. Every
// envelope carries its payload's id: as<T> dispatches on it, and it
// indexes Network's per-type statistics.
namespace detail {
constexpr uint32_t kNoPayloadType = UINT32_MAX;
inline std::atomic<uint32_t> next_payload_type{0};
template <typename T>
uint32_t payload_type() {
  static const uint32_t id = next_payload_type++;
  return id;
}
}  // namespace detail

// A message in flight or in a mailbox. The payload is type-erased, and
// of<T>() is the only way to attach one, so every envelope that carries a
// payload carries its type id too. A default-constructed envelope is empty
// and matches no type.
class Envelope {
 public:
  NodeId from = kNoNode;
  NodeId to = kNoNode;

  Envelope() = default;
  template <typename T>
  static Envelope of(NodeId from, NodeId to, T payload) {
    static_assert(!std::is_same_v<T, std::any>,
                  "send a concrete payload type: dispatch is by type id");
    Envelope e;
    e.from = from;
    e.to = to;
    e.type_ = detail::payload_type<T>();
    e.payload_ = std::move(payload);
    return e;
  }
  uint32_t type() const { return type_; }

 private:
  template <typename T>
  friend const T* as(const Envelope& env);
  template <typename T>
  friend T* as(Envelope& env);

  uint32_t type_ = detail::kNoPayloadType;
  std::any payload_;
};

// Typed payload access: returns nullptr if the envelope holds another
// type. The id compare settles every miss of a dispatch chain; only the
// matching type reaches std::any_cast. The mutable form lets a receiver
// move the payload out instead of copying it.
template <typename T>
const T* as(const Envelope& env) {
  if (env.type_ != detail::payload_type<T>()) return nullptr;
  return std::any_cast<T>(&env.payload_);
}
template <typename T>
T* as(Envelope& env) {
  if (env.type_ != detail::payload_type<T>()) return nullptr;
  return std::any_cast<T>(&env.payload_);
}

struct NetworkConfig {
  sim::Time base_latency = 100 * sim::kUsec;   // per-message propagation
  sim::Time per_kb = 80 * sim::kUsec;          // transfer time per KB
  sim::Time detect_delay = 50 * sim::kMsec;    // broken-connection detection
  uint64_t jitter_seed = 0x7c4a1d6f0b9e3325ull;  // per-message jitter stream
};

class Network {
 public:
  Network(sim::Simulation& sim, NetworkConfig cfg = {});

  NodeId add_node(std::string name);

  const std::string& name(NodeId id) const;
  // Reverse lookup by registered name; kNoNode if absent. Fault plans
  // address nodes by name ("master", "slave0", "sched1", ...).
  NodeId find_node(std::string_view name) const;
  bool alive(NodeId id) const;
  // Incarnation of the node: bumped by every restart().
  uint64_t epoch(NodeId id) const { return nodes_.at(id).epoch; }

  // Region placement and link-class parameters. Mutate before (or between)
  // runs: e.g. net.topology().add_region("west") and place(id, west).
  Topology& topology() { return topo_; }
  const Topology& topology() const { return topo_; }

  // Deliver `payload` to `to` after link latency. Silently dropped if either
  // end is dead (fail-stop model).
  template <typename T>
  void send(NodeId from, NodeId to, T payload, size_t bytes = 256) {
    send_envelope(Envelope::of(from, to, std::move(payload)), bytes);
  }

  sim::Channel<Envelope>& mailbox(NodeId id);

  void kill(NodeId id);
  void restart(NodeId id);

  // Extra per-message latency on one link, both directions (0 to clear).
  // Per-link FIFO order is preserved; fault plans use this to stretch
  // protocol windows deterministically.
  void set_link_delay(NodeId a, NodeId b, sim::Time extra);

  // Region partition control. Directed: traffic from `a` to `b` parks at
  // the delivery point until healed, then flushes in FIFO order (TCP rides
  // out the cut; nothing is lost unless an endpoint dies meanwhile).
  // `both_ways` cuts/heals the reverse direction too.
  void partition_regions(RegionId a, RegionId b, bool both_ways = true);
  void heal_partition(RegionId a, RegionId b, bool both_ways = true);
  void heal_all_partitions();
  bool regions_partitioned(RegionId from, RegionId to) const;

  // Subscribers are told about every node death once per link class, at
  // that class's detect delay, so callers can notify same-region observers
  // before cross-region ones.
  void subscribe_failures_by_class(
      std::function<void(NodeId, LinkClass)> cb);

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
    return stat_at(payload_stats_, detail::payload_type<T>());
  }
  template <typename T>
  PayloadStats stats_of(LinkClass c) const {
    return stat_at(class_stats_[size_t(c)], detail::payload_type<T>());
  }

  // Bytes sent but not yet delivered (or dropped) on links of a class —
  // includes traffic parked behind an active region partition.
  uint64_t inflight_bytes(LinkClass c) const {
    return inflight_bytes_[size_t(c)];
  }

  sim::Simulation& sim() { return sim_; }
  const NetworkConfig& config() const { return cfg_; }

 private:
  static PayloadStats stat_at(const std::vector<PayloadStats>& v,
                              uint32_t type) {
    return type < v.size() ? v[type] : PayloadStats{};
  }
  void send_envelope(Envelope env, size_t bytes);

  struct Node {
    std::string name;
    bool alive = true;
    // Connection identity: bumped on restart; with killed_at it bounds
    // how long a dead incarnation's in-flight messages keep arriving.
    uint64_t epoch = 0;
    sim::Time killed_at = 0;
    std::unique_ptr<sim::Channel<Envelope>> mailbox;
  };

  // A message that reached its delivery point while the region pair was
  // partitioned: queued per directed link, flushed in order on heal.
  struct Parked {
    uint64_t epoch = 0;  // sender epoch at send time
    Envelope env;
    size_t bytes = 0;
    LinkClass cls = LinkClass::Intra;
  };

  // An in-flight message parked in the reusable slab between send() and
  // its scheduled delivery. Slots are free-listed, so steady-state traffic
  // allocates nothing per message: the scheduled closure captures only
  // (this, slot), which fits std::function's inline storage, instead of
  // moving the payload into a heap-allocated capture.
  struct Flight {
    uint64_t epoch = 0;
    Envelope env;
    size_t bytes = 0;
    LinkClass cls = LinkClass::Intra;
  };

  sim::Time transfer_time(size_t bytes, const LinkClassConfig& lc) const;
  // The delivery point: receiver-alive and sealed-sender checks, then park
  // (partitioned) or hand to the mailbox. Used by both the scheduled send
  // completion and the heal-time flush.
  void deliver_one(Envelope env, uint64_t epoch, size_t bytes,
                   LinkClass cls);
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
  std::map<std::pair<NodeId, NodeId>, std::deque<Parked>> parked_;
  std::vector<std::function<void(NodeId, LinkClass)>> class_failure_subs_;
  uint64_t bytes_sent_ = 0;
  uint64_t messages_sent_ = 0;
  // Indexed by payload_type(); grown on a type's first send.
  std::vector<PayloadStats> payload_stats_;
  std::array<std::vector<PayloadStats>, kNumLinkClasses> class_stats_;
  std::array<uint64_t, kNumLinkClasses> inflight_bytes_{};
  // Message pool (see Flight). Grows to the peak in-flight count once.
  std::vector<Flight> flights_;
  std::vector<uint32_t> free_flights_;
};

}  // namespace dmv::net
