#include "net/failure_detector.hpp"

namespace dmv::net {

HeartbeatDetector::HeartbeatDetector(Network& net, NodeId owner,
                                     HeartbeatConfig cfg)
    : net_(net), owner_(owner), cfg_(cfg) {}

HeartbeatDetector::~HeartbeatDetector() { stop(); }

void HeartbeatDetector::monitor(NodeId peer) {
  peers_[peer] = PeerState{net_.sim().now(), false};
}

void HeartbeatDetector::unmonitor(NodeId peer) { peers_.erase(peer); }

void HeartbeatDetector::on_heartbeat(NodeId from) {
  auto it = peers_.find(from);
  if (it == peers_.end()) return;
  it->second.last_heard = net_.sim().now();
  it->second.suspected = false;
}

void HeartbeatDetector::subscribe(std::function<void(NodeId)> cb) {
  subs_.push_back(std::move(cb));
}

void HeartbeatDetector::start() {
  stop();
  stop_flag_ = std::make_shared<bool>(false);
  net_.sim().spawn(sender_loop(stop_flag_));
  net_.sim().spawn(checker_loop(stop_flag_));
}

void HeartbeatDetector::stop() {
  if (stop_flag_) *stop_flag_ = true;
  stop_flag_.reset();
}

bool HeartbeatDetector::suspects(NodeId peer) const {
  auto it = peers_.find(peer);
  return it != peers_.end() && it->second.suspected;
}

sim::Time HeartbeatDetector::timeout_for(NodeId peer) const {
  const Topology& topo = net_.topology();
  const sim::Time extra =
      topo.rtt(owner_, peer) - topo.rtt(LinkClass::Intra);
  if (extra <= 0) return cfg_.timeout;
  return cfg_.timeout + kRttSlack * extra;
}

sim::Task<> HeartbeatDetector::sender_loop(std::shared_ptr<bool> stop) {
  while (!*stop && net_.alive(owner_)) {
    for (auto& [peer, st] : peers_)
      net_.send(owner_, peer, HeartbeatMsg{seq_}, 32);
    ++seq_;
    co_await net_.sim().delay(cfg_.interval);
  }
}

sim::Task<> HeartbeatDetector::checker_loop(std::shared_ptr<bool> stop) {
  while (!*stop && net_.alive(owner_)) {
    co_await net_.sim().delay(cfg_.interval);
    if (*stop) break;
    const sim::Time now = net_.sim().now();
    for (auto& [peer, st] : peers_) {
      if (!st.suspected && now - st.last_heard > timeout_for(peer)) {
        st.suspected = true;
        for (auto& cb : subs_) cb(peer);
      }
    }
  }
}

}  // namespace dmv::net
