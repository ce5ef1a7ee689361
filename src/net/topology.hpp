// WAN topology model: regions and link classes.
//
// A Topology names regions, places nodes into them, and classifies every
// (a, b) node pair into a link class — Intra (both ends in one region) or
// Cross (ends in different regions). Each class carries its own latency,
// bandwidth, jitter and broken-connection detection parameters, so a
// two-region cluster sees LAN costs inside a region and WAN costs across
// the pair, while the default single-region topology reproduces the flat
// NetworkConfig behaviour bit for bit (one region, zero jitter, identical
// class parameters).
//
// The Topology is static configuration: the Network consults it on every
// send to pick link parameters, and the chaos layer resolves region names
// through it for `partition:regionA|regionB` faults. Dynamic partition
// state (which region pairs are currently cut) lives in the Network, next
// to the parked-message queues it implies.
#pragma once

#include <array>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "sim/time.hpp"

namespace dmv::net {

using NodeId = uint32_t;
using RegionId = uint32_t;
constexpr RegionId kNoRegion = UINT32_MAX;

enum class LinkClass : uint8_t {
  Intra = 0,  // both endpoints in the same region (LAN)
  Cross = 1,  // endpoints in different regions (WAN)
};
inline constexpr size_t kNumLinkClasses = 2;

// Per-class link parameters. The defaults here are never used directly:
// Network initialises both classes from its NetworkConfig so a topology
// left untouched behaves exactly like the pre-topology flat network.
struct LinkClassConfig {
  sim::Time base_latency = 100 * sim::kUsec;  // per-message propagation
  sim::Time per_kb = 80 * sim::kUsec;         // transfer time per KB
  sim::Time jitter = 0;          // uniform extra latency in [0, jitter]
  sim::Time detect_delay = 50 * sim::kMsec;  // broken-connection detection
};

class Topology {
 public:
  // Starts with a single region ("local"); every node defaults into it.
  Topology();

  RegionId add_region(std::string name);
  RegionId find_region(std::string_view name) const;  // kNoRegion if absent
  size_t region_count() const { return regions_.size(); }

  void place(NodeId node, RegionId region);
  RegionId region_of(NodeId node) const;  // region 0 unless placed

  LinkClass link_class(NodeId a, NodeId b) const;

  LinkClassConfig& link(LinkClass c) { return links_[size_t(c)]; }
  const LinkClassConfig& link(LinkClass c) const { return links_[size_t(c)]; }

  // Round-trip estimate for a class: two propagation legs plus worst-case
  // jitter on each. Failure detectors derive per-peer timeouts from this.
  sim::Time rtt(LinkClass c) const;
  sim::Time rtt(NodeId a, NodeId b) const { return rtt(link_class(a, b)); }

  // The longest broken-connection detection delay over all classes — the
  // horizon after which every peer has observed a death.
  sim::Time max_detect_delay() const;

 private:
  std::vector<std::string> regions_;
  std::vector<RegionId> placement_;  // by NodeId; kNoRegion = region 0
  std::array<LinkClassConfig, kNumLinkClasses> links_;
};

}  // namespace dmv::net
