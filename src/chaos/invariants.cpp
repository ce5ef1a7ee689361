#include "chaos/invariants.hpp"

#include <algorithm>
#include <sstream>

namespace dmv::chaos {
namespace {

std::string fmt_vec(const std::vector<uint64_t>& v) {
  std::string s = "[";
  for (size_t i = 0; i < v.size(); ++i) {
    if (i) s += ",";
    s += std::to_string(v[i]);
  }
  return s + "]";
}

// A live scheduler to read the current rotation from (primary preferred).
core::Scheduler* live_scheduler(core::DmvCluster& cluster) {
  core::Scheduler* any = nullptr;
  for (size_t i = 0; i < cluster.scheduler_count(); ++i) {
    core::Scheduler& s = cluster.scheduler(i);
    if (!cluster.net().alive(s.id())) continue;
    if (s.is_primary()) return &s;
    if (!any) any = &s;
  }
  return any;
}

void check_monotone(const char* what, net::NodeId id,
                    const std::vector<uint64_t>& prev,
                    const std::vector<uint64_t>& cur, Violations* v) {
  for (size_t t = 0; t < std::min(prev.size(), cur.size()); ++t) {
    if (cur[t] < prev[t]) {
      std::ostringstream os;
      os << what << " version moved backwards on node " << id << " table "
         << t << ": " << fmt_vec(prev) << " -> " << fmt_vec(cur);
      v->add(os.str());
      return;  // one report per sample is enough
    }
  }
}

// Scheduler drain: once the event queue is empty, no live scheduler may
// hold outstanding or parked work, a recovery in flight, or a non-zero
// per-node in-flight counter.
void check_scheduler_drain(core::DmvCluster& cluster, Violations* v) {
  net::Network& net = cluster.net();
  for (size_t i = 0; i < cluster.scheduler_count(); ++i) {
    core::Scheduler& s = cluster.scheduler(i);
    if (!net.alive(s.id())) continue;
    std::ostringstream os;
    os << "scheduler " << i << " (" << net.name(s.id()) << ")";
    if (s.outstanding() != 0)
      v->add(os.str() + " has " + std::to_string(s.outstanding()) +
             " outstanding requests at quiesce");
    if (s.held_reads() != 0)
      v->add(os.str() + " has " + std::to_string(s.held_reads()) +
             " parked reads at quiesce");
    if (s.held_updates() != 0)
      v->add(os.str() + " has " + std::to_string(s.held_updates()) +
             " parked updates at quiesce");
    if (s.held_joins() != 0)
      v->add(os.str() + " has " + std::to_string(s.held_joins()) +
             " parked joins at quiesce");
    if (s.recovering())
      v->add(os.str() + " still marks a recovery in flight at quiesce");
    if (s.inflight_total() != 0)
      v->add(os.str() + " per-node in-flight counters sum to " +
             std::to_string(s.inflight_total()) + " at quiesce");
  }
}

}  // namespace

std::vector<net::NodeId> engine_ids(core::DmvCluster& cluster) {
  std::vector<net::NodeId> ids;
  for (size_t c = 0; c < cluster.master_count(); ++c)
    ids.push_back(cluster.master_id(c));
  for (size_t i = 0; i < cluster.slave_count(); ++i)
    ids.push_back(cluster.slave_id(i));
  for (size_t i = 0; i < cluster.spare_count(); ++i)
    ids.push_back(cluster.spare_id(i));
  return ids;
}

void MonotonicityProbe::sample(core::DmvCluster& cluster, Violations* v) {
  net::Network& net = cluster.net();
  // Dead nodes are skipped; a restart is a fresh process (new epoch) whose
  // vector legitimately starts over from its checkpoint.
  const auto step = [&](const char* what, std::map<net::NodeId, Last>& seen,
                        net::NodeId id, const std::vector<uint64_t>& cur) {
    const uint64_t epoch = net.epoch(id);
    auto it = seen.find(id);
    if (it != seen.end() && it->second.epoch == epoch)
      check_monotone(what, id, it->second.version, cur, v);
    seen[id] = Last{epoch, cur};
  };
  for (net::NodeId id : engine_ids(cluster))
    if (net.alive(id))
      step("engine", last_engine_, id, cluster.node(id).engine().version());
  for (size_t i = 0; i < cluster.scheduler_count(); ++i) {
    core::Scheduler& s = cluster.scheduler(i);
    if (net.alive(s.id())) step("scheduler", last_sched_, s.id(), s.version());
  }
}

void check_end_invariants(core::DmvCluster& cluster,
                          const obs::Tracer& tracer, Violations* v) {
  net::Network& net = cluster.net();
  check_scheduler_drain(cluster, v);

  // ---- span balance ----
  if (tracer.open_count() != 0) {
    std::string names;
    for (const auto& n : tracer.open_span_names()) {
      if (!names.empty()) names += ", ";
      names += n;
    }
    v->add("span leak: " + std::to_string(tracer.open_count()) +
           " span(s) still open at quiesce: " + names);
  }

  // ---- backend drain (§4.6) ----
  // Every live backend drains to the log tail before quiesce (its applier
  // only sleeps at the tail). A live backend stuck mid-reattach (its
  // snapshot source died and never came back) is exempt; what it holds is
  // checked against the oracle by the recovery-image check.
  if (auto* pb = cluster.persistence()) {
    const uint64_t total = pb->total_seq();
    for (size_t b = 0; b < pb->backend_count(); ++b)
      if (pb->backend_live(b) && pb->backend_recoverable(b) &&
          pb->backend_applied(b) < total)
        v->add("backend " + std::to_string(b) + " failed to drain: applied " +
               std::to_string(pb->backend_applied(b)) + " of " +
               std::to_string(total) + " log records at quiesce");
  }

  // ---- convergence across the read rotation ----
  core::Scheduler* sched = live_scheduler(cluster);
  if (!sched) return;
  std::vector<net::NodeId> rotation;
  for (net::NodeId m : sched->masters())
    if (m != net::kNoNode && net.alive(m)) rotation.push_back(m);
  for (net::NodeId s : sched->slaves())
    if (net.alive(s)) rotation.push_back(s);
  auto effective = [&](net::NodeId id) {
    const auto& eng = cluster.node(id).engine();
    std::vector<uint64_t> eff(eng.version().size());
    for (size_t t = 0; t < eff.size(); ++t)
      eff[t] = std::max(eng.version()[t], eng.received_version()[t]);
    return eff;
  };
  if (rotation.size() < 2) return;
  const auto ref = effective(rotation[0]);
  for (size_t i = 1; i < rotation.size(); ++i) {
    const auto got = effective(rotation[i]);
    if (got != ref) {
      std::ostringstream os;
      os << "divergence at quiesce: " << net.name(rotation[0]) << " is at "
         << fmt_vec(ref) << " but " << net.name(rotation[i]) << " is at "
         << fmt_vec(got);
      v->add(os.str());
    }
  }
}

}  // namespace dmv::chaos
