#include "net/network.hpp"

#include <algorithm>
#include <utility>

#include "obs/trace.hpp"

namespace dmv::net {

Network::Network(sim::Simulation& sim, NetworkConfig cfg)
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

NodeId Network::add_node(std::string name) {
  const NodeId id = static_cast<NodeId>(nodes_.size());
  nodes_.push_back(Node{std::move(name), true, 0, 0,
                        std::make_unique<sim::Channel<Envelope>>(sim_)});
  links_.emplace_back();
  obs::name_node(id, nodes_.back().name);
  return id;
}

const std::string& Network::name(NodeId id) const {
  DMV_ASSERT(id < nodes_.size());
  return nodes_[id].name;
}

NodeId Network::find_node(std::string_view name) const {
  for (NodeId id = 0; id < nodes_.size(); ++id)
    if (nodes_[id].name == name) return id;
  return kNoNode;
}

bool Network::alive(NodeId id) const {
  DMV_ASSERT(id < nodes_.size());
  return nodes_[id].alive;
}

sim::Time Network::transfer_time(size_t bytes,
                                 const LinkClassConfig& lc) const {
  return lc.base_latency + sim::Time(bytes) * lc.per_kb / 1024;
}

void Network::account_delivered(size_t bytes, LinkClass cls) {
  DMV_ASSERT(inflight_bytes_[size_t(cls)] >= bytes);
  inflight_bytes_[size_t(cls)] -= bytes;
  obs::gauge("net.inflight_bytes", uint32_t(cls),
             double(inflight_bytes_[size_t(cls)]));
}

void Network::deliver_one(Envelope env, uint64_t epoch, size_t bytes,
                          LinkClass cls) {
  const NodeId from = env.from;
  const NodeId to = env.to;
  // Receiver may have died while the message was in flight.
  if (!nodes_[to].alive) {
    account_delivered(bytes, cls);
    return;
  }
  // Sender may have died too. Its in-flight bytes still arrive — until the
  // receiver observes the broken connection (the link class's detect delay
  // after the kill). Past that point the connection is sealed: delivering
  // would hand the receiver data from a stream every peer has already
  // pronounced dead — e.g. a write-set batch on a slowed link resurrecting
  // versions a fail-over discarded.
  const Node& src = nodes_[from];
  if ((!src.alive || src.epoch != epoch) &&
      sim_.now() >= src.killed_at + topo_.link(cls).detect_delay) {
    account_delivered(bytes, cls);
    return;
  }
  // A region partition parks the message instead of losing it: TCP rides
  // out the cut and redelivers in order once the route heals.
  if (regions_partitioned(topo_.region_of(from), topo_.region_of(to))) {
    parked_[{from, to}].push_back(Parked{epoch, std::move(env), bytes, cls});
    return;
  }
  account_delivered(bytes, cls);
  nodes_[to].mailbox->send(std::move(env));
}

void Network::send_envelope(Envelope env, size_t bytes) {
  const NodeId from = env.from;
  const NodeId to = env.to;
  const uint32_t type = env.type();
  DMV_ASSERT(from < nodes_.size() && to < nodes_.size());
  if (!nodes_[from].alive || !nodes_[to].alive) return;
  Link& lk = link(from, to);

  const LinkClass cls = topo_.link_class(from, to);
  const LinkClassConfig& lc = topo_.link(cls);

  bytes_sent_ += bytes;
  ++messages_sent_;
  for (std::vector<PayloadStats>* v :
       {&payload_stats_, &class_stats_[size_t(cls)]}) {
    if (v->size() <= type) v->resize(size_t(type) + 1);
    ++(*v)[type].messages;
    (*v)[type].bytes += bytes;
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

  // Park the message in the flight pool and capture only (this, slot):
  // the closure stays within std::function's inline storage, so a send
  // costs no allocation once the pool has grown to peak in-flight size.
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
    deliver_one(std::move(fl.env), fl.epoch, fl.bytes, fl.cls);
  });
}

sim::Channel<Envelope>& Network::mailbox(NodeId id) {
  DMV_ASSERT(id < nodes_.size());
  return *nodes_[id].mailbox;
}

void Network::kill(NodeId id) {
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

void Network::restart(NodeId id) {
  DMV_ASSERT(id < nodes_.size());
  if (nodes_[id].alive) return;
  nodes_[id].alive = true;
  ++nodes_[id].epoch;  // a fresh incarnation: old connections stay dead
  nodes_[id].mailbox->reopen();
}

void Network::set_link_delay(NodeId a, NodeId b, sim::Time extra) {
  DMV_ASSERT(extra >= 0);
  DMV_ASSERT(a < nodes_.size() && b < nodes_.size());
  link(a, b).extra = link(b, a).extra = extra;
}

void Network::partition_regions(RegionId a, RegionId b, bool both_ways) {
  DMV_ASSERT(a < topo_.region_count() && b < topo_.region_count());
  obs::instant("net.partition", obs::Cat::Net);
  region_cuts_.insert({a, b});
  if (both_ways) region_cuts_.insert({b, a});
}

void Network::heal_partition(RegionId a, RegionId b, bool both_ways) {
  region_cuts_.erase({a, b});
  if (both_ways) region_cuts_.erase({b, a});
  flush_parked();
}

void Network::heal_all_partitions() {
  region_cuts_.clear();
  flush_parked();
}

bool Network::regions_partitioned(RegionId from, RegionId to) const {
  return !region_cuts_.empty() && region_cuts_.count({from, to}) > 0;
}

void Network::flush_parked() {
  obs::instant("net.heal_partition", obs::Cat::Net);
  for (auto& [link, q] : parked_) {
    if (regions_partitioned(topo_.region_of(link.first),
                            topo_.region_of(link.second)))
      continue;
    // Replay in FIFO order through the normal delivery point: the sealed-
    // connection and liveness checks re-run against heal-time state.
    std::deque<Parked> drain;
    drain.swap(q);
    for (auto& m : drain)
      deliver_one(std::move(m.env), m.epoch, m.bytes, m.cls);
  }
}

void Network::subscribe_failures_by_class(
    std::function<void(NodeId, LinkClass)> cb) {
  class_failure_subs_.push_back(std::move(cb));
}

}  // namespace dmv::net
