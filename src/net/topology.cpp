#include "net/topology.hpp"

#include <algorithm>

#include "util/assert.hpp"

namespace dmv::net {

Topology::Topology() { regions_.push_back("local"); }

RegionId Topology::add_region(std::string name) {
  const RegionId id = static_cast<RegionId>(regions_.size());
  regions_.push_back(std::move(name));
  return id;
}

RegionId Topology::find_region(std::string_view name) const {
  for (RegionId r = 0; r < regions_.size(); ++r)
    if (regions_[r] == name) return r;
  return kNoRegion;
}

void Topology::place(NodeId node, RegionId region) {
  DMV_ASSERT(region < regions_.size());
  if (placement_.size() <= node) placement_.resize(node + 1, kNoRegion);
  placement_[node] = region;
}

RegionId Topology::region_of(NodeId node) const {
  if (node < placement_.size() && placement_[node] != kNoRegion)
    return placement_[node];
  return 0;
}

LinkClass Topology::link_class(NodeId a, NodeId b) const {
  return region_of(a) == region_of(b) ? LinkClass::Intra : LinkClass::Cross;
}

sim::Time Topology::rtt(LinkClass c) const {
  const LinkClassConfig& lc = link(c);
  return 2 * (lc.base_latency + lc.jitter);
}

sim::Time Topology::max_detect_delay() const {
  sim::Time m = 0;
  for (const auto& lc : links_) m = std::max(m, lc.detect_delay);
  return m;
}

}  // namespace dmv::net
