#include "ctrl/slo_controller.hpp"

#include <algorithm>

namespace dmv::ctrl {
namespace {

constexpr sim::Time kPollPeriod = 500 * sim::kMsec;
// Scale-out signal: admission queue deeper than this per live slave, or
// in-flight utilization of the fleet's read capacity at kHighUtil.
constexpr double kHighHeldPerSlave = 4.0;
constexpr double kHighUtil = 0.9;
// Scale-in signal: queue empty and utilization at most kLowUtil.
constexpr double kLowUtil = 0.3;
// Hysteresis: consecutive saturated / idle polls required.
constexpr int kBreachPolls = 3;
constexpr int kIdlePolls = 16;
// No decisions for this long after any scale action.
constexpr sim::Time kCooldown = 8 * sim::kSec;
constexpr size_t kMinSlaves = 1;  // never retire below this many

}  // namespace

SloController::SloController(sim::Simulation& sim, core::DmvCluster& cluster,
                             size_t max_slaves)
    : sim_(sim), cluster_(cluster), max_slaves_(max_slaves) {}

SloController::~SloController() {
  if (alive_) *alive_ = false;
}

void SloController::start() {
  if (alive_ && *alive_) return;
  alive_ = std::make_shared<bool>(true);
  sim_.spawn(loop(alive_));
}

void SloController::stop() {
  if (alive_) *alive_ = false;
}

size_t SloController::added_live() const {
  size_t n = 0;
  for (net::NodeId id : added_)
    if (cluster_.net().alive(id)) ++n;
  return n;
}

sim::Task<> SloController::loop(std::shared_ptr<bool> alive) {
  for (;;) {
    co_await sim_.delay(kPollPeriod);
    if (!*alive) co_return;
    poll_once();
  }
}

void SloController::poll_once() {
  ++stats_.polls;
  core::Scheduler* sched = cluster_.primary_scheduler();
  if (!sched) return;  // no primary: fail-over in progress, not a capacity
                       // problem — hold fire

  // Drop dead nodes off the scale-out stack (chaos may kill an added
  // slave; it is gone, not retireable).
  added_.erase(std::remove_if(added_.begin(), added_.end(),
                              [&](net::NodeId id) {
                                return !cluster_.net().alive(id);
                              }),
               added_.end());
  if (pending_join_ != net::kNoNode) {
    if (!cluster_.net().alive(pending_join_))
      pending_join_ = net::kNoNode;
    else if (!sched->is_joining(pending_join_))
      pending_join_ = net::kNoNode;  // join complete: node is serving
  }

  const size_t fleet = cluster_.live_slave_count();
  const uint64_t cap =
      std::max<uint64_t>(1, sched->config().max_reads_inflight_per_node);
  const double held = double(sched->held_reads());
  const double inflight = double(sched->inflight_total());
  const double util =
      fleet == 0 ? 1.0 : inflight / double(fleet * cap);
  obs::gauge("ctrl.held_reads", sched->id(), held);
  obs::gauge("ctrl.util", sched->id(), util);
  obs::gauge("ctrl.fleet", sched->id(), double(fleet));

  const bool saturated = fleet == 0 ||
                         held > kHighHeldPerSlave * double(fleet) ||
                         util >= kHighUtil;
  const bool idle = held == 0 && util <= kLowUtil;

  breach_streak_ = saturated ? breach_streak_ + 1 : 0;
  idle_streak_ = idle ? idle_streak_ + 1 : 0;

  const sim::Time now = sim_.now();
  if (now < cooldown_until_) return;
  // While a controller-added node is still mid-join the extra capacity it
  // was bought for hasn't arrived yet; buying another would overshoot.
  if (pending_join_ != net::kNoNode) return;

  if (breach_streak_ >= kBreachPolls && fleet < max_slaves_) {
    pending_join_ = cluster_.add_slave();
    added_.push_back(pending_join_);
    ++stats_.scale_outs;
    if (stats_.first_scale_out < 0) stats_.first_scale_out = now;
    obs::instant("ctrl.scale_out", obs::Cat::Scheduler, pending_join_);
    breach_streak_ = 0;
    idle_streak_ = 0;
    cooldown_until_ = now + kCooldown;
    return;
  }

  if (idle_streak_ >= kIdlePolls && !added_.empty() && fleet > kMinSlaves) {
    // Pop the newest controller-added node; skip any retire_node refuses
    // (promoted to master meanwhile, or racing a death).
    while (!added_.empty()) {
      const net::NodeId victim = added_.back();
      added_.pop_back();
      if (cluster_.retire_node(victim)) {
        ++stats_.scale_ins;
        obs::instant("ctrl.scale_in", obs::Cat::Scheduler, victim);
        idle_streak_ = 0;
        breach_streak_ = 0;
        cooldown_until_ = now + kCooldown;
        break;
      }
    }
  }
}

}  // namespace dmv::ctrl
