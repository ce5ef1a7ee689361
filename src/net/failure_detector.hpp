// Heartbeat-based failure detection (the paper's backstop to broken-
// connection detection: "failures of any individual node are detected
// through missed heartbeat messages or broken connections").
//
// A HeartbeatDetector runs on behalf of one node: it periodically sends
// HeartbeatMsg to every monitored peer and expects the peer's detector to
// do the same; a peer that stays silent past its timeout is declared
// suspect exactly once (until heard from again). The owning node's receive
// loop must route HeartbeatMsg envelopes into on_heartbeat().
//
// The timeout is per peer, not one global constant: `timeout` is the base
// tuned for intra-region peers, and a peer on a slower link class is
// granted extra slack proportional to how much its topology RTT exceeds
// the intra-region RTT (scaled by kRttSlack), so a cross-region peer is
// not declared dead by LAN-tuned timers.
#pragma once

#include <functional>
#include <map>
#include <memory>

#include "net/network.hpp"

namespace dmv::net {

struct HeartbeatMsg {
  uint64_t seq = 0;
};

struct HeartbeatConfig {
  sim::Time interval = 500 * sim::kMsec;
  // Base timeout, applied to intra-region peers. Peers on slower link
  // classes get timeout + kRttSlack * (rtt(peer) - rtt(intra)).
  sim::Time timeout = 1500 * sim::kMsec;
};

class HeartbeatDetector {
 public:
  static constexpr int kRttSlack = 4;

  HeartbeatDetector(Network& net, NodeId owner, HeartbeatConfig cfg = {});
  ~HeartbeatDetector();

  void monitor(NodeId peer);
  void unmonitor(NodeId peer);

  // Called by the owner's message loop for each received HeartbeatMsg.
  void on_heartbeat(NodeId from);

  // cb(peer) fires once per suspicion episode.
  void subscribe(std::function<void(NodeId)> cb);

  void start();
  void stop();

  bool suspects(NodeId peer) const;

  // The effective timeout for one peer: base + slack for its link class's
  // RTT over the intra-region RTT. Exposed for tests and tuning reports.
  sim::Time timeout_for(NodeId peer) const;

 private:
  sim::Task<> sender_loop(std::shared_ptr<bool> stop);
  sim::Task<> checker_loop(std::shared_ptr<bool> stop);

  Network& net_;
  NodeId owner_;
  HeartbeatConfig cfg_;
  struct PeerState {
    sim::Time last_heard = 0;
    bool suspected = false;
  };
  std::map<NodeId, PeerState> peers_;
  std::vector<std::function<void(NodeId)>> subs_;
  std::shared_ptr<bool> stop_flag_;
  uint64_t seq_ = 0;
};

}  // namespace dmv::net
