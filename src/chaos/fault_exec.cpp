#include "chaos/fault_exec.hpp"

namespace dmv::chaos {

FaultExec::FaultExec(sim::Simulation& sim, net::Network& net,
                     core::DmvCluster& cluster, Violations* viol)
    : sim_(sim), net_(net), cluster_(cluster), viol_(viol) {
  sched_ids_ = cluster.scheduler_ids();
  for (net::NodeId id : engine_ids(cluster)) engine_ids_.insert(id);
}

void FaultExec::arm(const FaultPlan& plan) {
  for (const Fault& f : plan.faults) {
    if (f.trigger.at_point) {
      pending_.push_back({f});
    } else {
      sim_.schedule_at(f.trigger.at, [this, f] { fire(f); });
    }
  }
}

void FaultExec::observe_point(const char* name) {
  for (auto& pf : pending_) {
    if (pf.fired || pf.f.trigger.point != name) continue;
    if (int(++pf.seen) == pf.f.trigger.occurrence) {
      pf.fired = true;
      const Fault f = pf.f;
      sim_.schedule_at(sim_.now(), [this, f] { fire(f); });
    }
  }
}

void FaultExec::plan_error(const Fault& f, const char* why) {
  viol_->add(std::string("plan error: ") + why + " in '" + f.str() + "'");
}

void FaultExec::fire(const Fault& f) {
  ++fired_count_;
  switch (f.action.kind) {
    case ActionKind::Kill: {
      const net::NodeId id = net_.find_node(f.action.node);
      if (id == net::kNoNode) return plan_error(f, "unknown node");
      if (!net_.alive(id)) return;  // already dead: no-op
      for (size_t i = 0; i < sched_ids_.size(); ++i)
        if (sched_ids_[i] == id) return cluster_.kill_scheduler(i);
      if (engine_ids_.count(id)) return cluster_.kill_node(id);
      net_.kill(id);  // auxiliary endpoint (client, monitor)
      return;
    }
    case ActionKind::Restart: {
      const net::NodeId id = net_.find_node(f.action.node);
      if (id == net::kNoNode) return plan_error(f, "unknown node");
      if (!engine_ids_.count(id))
        return plan_error(f, "only engine nodes restart");
      if (net_.alive(id)) return;  // never killed: no-op
      cluster_.restart_and_rejoin(id);
      return;
    }
    case ActionKind::Drop:
    case ActionKind::Heal: {
      const net::NodeId a = net_.find_node(f.action.a);
      const net::NodeId b = net_.find_node(f.action.b);
      if (a == net::kNoNode || b == net::kNoNode)
        return plan_error(f, "unknown link endpoint");
      net_.set_link(a, b, f.action.kind == ActionKind::Heal);
      return;
    }
    case ActionKind::Slow: {
      const net::NodeId a = net_.find_node(f.action.a);
      const net::NodeId b = net_.find_node(f.action.b);
      if (a == net::kNoNode || b == net::kNoNode)
        return plan_error(f, "unknown link endpoint");
      net_.set_link_delay(a, b, f.action.extra);
      return;
    }
    case ActionKind::KillBackend:
    case ActionKind::RestartBackend: {
      auto* pb = cluster_.persistence();
      if (!pb) return plan_error(f, "no persistence tier");
      if (f.action.backend < 0 ||
          size_t(f.action.backend) >= pb->backend_count())
        return plan_error(f, "backend index out of range");
      if (f.action.kind == ActionKind::KillBackend)
        cluster_.kill_backend(size_t(f.action.backend));
      else
        cluster_.restart_backend(size_t(f.action.backend));
      return;
    }
    case ActionKind::WipeTier: {
      cluster_.wipe_tier();
      return;
    }
    case ActionKind::Partition: {
      const net::RegionId a = net_.topology().find_region(f.action.a);
      const net::RegionId b = net_.topology().find_region(f.action.b);
      if (a == net::kNoRegion || b == net::kNoRegion)
        return plan_error(f, "unknown region");
      net_.partition_regions(a, b, /*both_ways=*/!f.action.directed);
      return;
    }
    case ActionKind::HealPartition: {
      if (f.action.a.empty()) {
        net_.heal_all_partitions();
        return;
      }
      const net::RegionId a = net_.topology().find_region(f.action.a);
      const net::RegionId b = net_.topology().find_region(f.action.b);
      if (a == net::kNoRegion || b == net::kNoRegion)
        return plan_error(f, "unknown region");
      net_.heal_partition(a, b, /*both_ways=*/!f.action.directed);
      return;
    }
    case ActionKind::AddSlave: {
      // Track the new node so later kill/restart/retire verbs resolve it.
      engine_ids_.insert(cluster_.add_slave());
      return;
    }
    case ActionKind::Retire: {
      const net::NodeId id = net_.find_node(f.action.node);
      if (id == net::kNoNode) return plan_error(f, "unknown node");
      if (!engine_ids_.count(id))
        return plan_error(f, "only engine nodes retire");
      // A false return (dead node, current master) is a benign race with
      // concurrent faults/fail-over — the retiree simply stays.
      cluster_.retire_node(id);
      return;
    }
  }
}

}  // namespace dmv::chaos
