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
core::Scheduler* live_scheduler(const ClusterProbe& p) {
  core::Scheduler* any = nullptr;
  for (size_t i = 0; i < p.scheduler_count; ++i) {
    core::Scheduler& s = p.cluster->scheduler(i);
    if (!p.net->alive(s.id())) continue;
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

}  // namespace

void check_read_value(const WorkloadLedger& lg, int64_t id, int64_t value,
                      uint64_t acked_at_send, Violations* v) {
  // The interval's two sample points must themselves be monotone: the
  // lower bound was sampled at send, so by reply time the current acked
  // count can only have grown, and acks can never outrun attempts. A
  // violation here means the ledger samples were taken out of order (a
  // harness bug the interval check alone would silently absorb by widening
  // the window).
  const uint64_t hi = lg.attempted[size_t(id)];
  if (acked_at_send > lg.acked[size_t(id)] ||
      lg.acked[size_t(id)] > hi) {
    std::ostringstream os;
    os << "ledger sample order: row " << id << " acked-at-send "
       << acked_at_send << " vs acked " << lg.acked[size_t(id)]
       << " vs attempted " << hi << " (must be non-decreasing)";
    v->add(os.str());
  }
  const int64_t delta = value - id * kBalanceBase;
  if (delta < 0 || uint64_t(delta) < acked_at_send ||
      uint64_t(delta) > hi) {
    std::ostringstream os;
    os << "stale/corrupt read: row " << id << " value " << value
       << " implies delta " << delta << ", outside [" << acked_at_send
       << ", " << hi << "]";
    v->add(os.str());
  }
}

void check_sum_value(const WorkloadLedger& lg, int64_t rows_seen,
                     int64_t value, uint64_t global_acked_at_send,
                     Violations* v) {
  if (rows_seen != lg.rows) {
    std::ostringstream os;
    os << "sum scan saw " << rows_seen << " rows, expected " << lg.rows;
    v->add(os.str());
  }
  if (global_acked_at_send > lg.global_acked ||
      lg.global_acked > lg.global_attempted) {
    std::ostringstream os;
    os << "ledger sample order: global acked-at-send "
       << global_acked_at_send << " vs acked " << lg.global_acked
       << " vs attempted " << lg.global_attempted
       << " (must be non-decreasing)";
    v->add(os.str());
  }
  const int64_t base = kBalanceBase * lg.rows * (lg.rows - 1) / 2;
  const int64_t delta = value - base;
  if (delta < 0 || uint64_t(delta) < global_acked_at_send ||
      uint64_t(delta) > lg.global_attempted) {
    std::ostringstream os;
    os << "inconsistent sum: value " << value << " implies delta " << delta
       << ", outside [" << global_acked_at_send << ", "
       << lg.global_attempted << "]";
    v->add(os.str());
  }
}

void MonotonicityProbe::sample(const ClusterProbe& p, Violations* v) {
  for (net::NodeId id : p.engine_ids) {
    if (!p.net->alive(id)) {
      // Death ends this process's history; a restart is a fresh process
      // whose vector legitimately starts over from its checkpoint.
      last_engine_.erase(id);
      continue;
    }
    const auto& cur = p.cluster->node(id).engine().version();
    auto it = last_engine_.find(id);
    if (it != last_engine_.end())
      check_monotone("engine", id, it->second, cur, v);
    last_engine_[id] = cur;
  }
  for (size_t i = 0; i < p.scheduler_count; ++i) {
    core::Scheduler& s = p.cluster->scheduler(i);
    if (!p.net->alive(s.id())) {
      last_sched_.erase(s.id());
      continue;
    }
    const auto& cur = s.version();
    auto it = last_sched_.find(s.id());
    if (it != last_sched_.end())
      check_monotone("scheduler", s.id(), it->second, cur, v);
    last_sched_[s.id()] = cur;
  }
}

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

void check_end_invariants(const ClusterProbe& p,
                          const std::vector<const WorkloadLedger*>& ledgers,
                          Violations* v) {
  check_scheduler_drain(*p.cluster, v);

  // ---- span balance ----
  if (p.tracer && p.tracer->open_count() != 0) {
    std::string names;
    for (const auto& n : p.tracer->open_span_names()) {
      if (!names.empty()) names += ", ";
      names += n;
    }
    v->add("span leak: " + std::to_string(p.tracer->open_count()) +
           " span(s) still open at quiesce: " + names);
  }

  // ---- durability: row intervals on every class's live master ----
  // Each table belongs to one conflict class; its ledger intervals must
  // hold on a live master OF THAT TABLE. Inspecting only masters()[0]
  // (the old behavior) made a dead or corrupted class-1 master invisible.
  core::Scheduler* sched = live_scheduler(p);
  for (size_t tid = 0; tid < ledgers.size(); ++tid) {
    const WorkloadLedger& lg = *ledgers[tid];
    const auto tbl = storage::TableId(tid);
    net::NodeId master = net::kNoNode;
    // The master slot can legitimately be kNoNode here — e.g. a recovery
    // wedged by the very bug a fault plan is probing for — and alive()
    // asserts on it; the checker must report, not crash.
    if (sched) {
      for (net::NodeId m : sched->masters())
        if (m != net::kNoNode && p.net->alive(m) &&
            p.cluster->node(m).engine().masters(tbl)) {
          master = m;
          break;
        }
    }
    if (master == net::kNoNode) {
      for (net::NodeId id : p.engine_ids)
        if (p.net->alive(id) &&
            p.cluster->node(id).engine().masters(tbl)) {
          master = id;
          break;
        }
    }
    if (master == net::kNoNode) continue;
    const storage::Table& t =
        p.cluster->node(master).engine().db().table(tbl);
    if (int64_t(t.row_count()) != lg.rows)
      v->add("row count changed: table " + std::to_string(tid) +
             " on master has " + std::to_string(t.row_count()) +
             " rows, expected " + std::to_string(lg.rows));
    for (int64_t id = 0; id < lg.rows; ++id) {
      auto rid = t.pk_find(storage::Key{id});
      if (!rid) {
        v->add("row " + std::to_string(id) + " missing on master (table " +
               std::to_string(tid) + ")");
        continue;
      }
      const storage::Row row = t.read_row(*rid);
      const int64_t bal = std::get<int64_t>(row[1]);
      const int64_t delta = bal - id * kBalanceBase;
      const uint64_t lo = lg.acked[size_t(id)];
      const uint64_t hi = lg.attempted[size_t(id)];
      if (delta < 0 || uint64_t(delta) < lo || uint64_t(delta) > hi) {
        std::ostringstream os;
        os << "durability: table " << tid << " row " << id << " balance "
           << bal << " implies delta " << delta
           << ", outside acked/attempted [" << lo << ", " << hi
           << "] — an acknowledged update was lost "
           << "or a phantom update applied";
        v->add(os.str());
      }
    }
  }

  // ---- backend durability (§4.6): acked commits survive backend death --
  // Every live backend drains to the log tail before quiesce (its applier
  // only sleeps at the tail), so its rows must sit in the same ledger
  // intervals as a live master's — including after killbackend/
  // restartbackend faults and after the mem tier itself was wiped. A live
  // backend stuck mid-reattach (its snapshot source died and never came
  // back) cannot be checked; if no live backend is checkable at all, the
  // tier lost its durability story and that is itself a violation.
  if (auto* pb = p.cluster->persistence()) {
    const uint64_t total = pb->total_seq();
    size_t live = 0, checked = 0;
    for (size_t b = 0; b < pb->backend_count(); ++b) {
      if (!pb->backend_live(b)) continue;
      ++live;
      if (!pb->backend_recoverable(b)) continue;  // wedged mid-reattach
      if (pb->backend_applied(b) < total) {
        v->add("backend " + std::to_string(b) + " failed to drain: applied " +
               std::to_string(pb->backend_applied(b)) + " of " +
               std::to_string(total) + " log records at quiesce");
        continue;
      }
      ++checked;
      for (size_t tid = 0; tid < ledgers.size(); ++tid) {
        const WorkloadLedger& lg = *ledgers[tid];
        const storage::Table& t =
            pb->backend(b).db().table(storage::TableId(tid));
        if (int64_t(t.row_count()) != lg.rows)
          v->add("backend " + std::to_string(b) + " row count changed: " +
                 "table " + std::to_string(tid) + " has " +
                 std::to_string(t.row_count()) + " rows, expected " +
                 std::to_string(lg.rows));
        for (int64_t id = 0; id < lg.rows; ++id) {
          auto rid = t.pk_find(storage::Key{id});
          if (!rid) {
            v->add("backend " + std::to_string(b) + ": table " +
                   std::to_string(tid) + " row " + std::to_string(id) +
                   " missing");
            continue;
          }
          const int64_t bal = std::get<int64_t>(t.read_row(*rid)[1]);
          const int64_t delta = bal - id * kBalanceBase;
          const uint64_t lo = lg.acked[size_t(id)];
          const uint64_t hi = lg.attempted[size_t(id)];
          if (delta < 0 || uint64_t(delta) < lo || uint64_t(delta) > hi) {
            std::ostringstream os;
            os << "backend durability: backend " << b << " table " << tid
               << " row " << id << " balance " << bal << " implies delta "
               << delta << ", outside acked/attempted [" << lo << ", "
               << hi << "] — an acknowledged update did not survive on disk";
            v->add(os.str());
          }
        }
      }
    }
    if (live > 0 && checked == 0)
      v->add("no live backend drained and recoverable at quiesce — the "
             "persistence tier cannot reconstruct the acked prefix");
  }

  // ---- convergence across the read rotation ----
  if (sched) {
    std::vector<net::NodeId> rotation;
    for (net::NodeId m : sched->masters())
      if (m != net::kNoNode && p.net->alive(m)) rotation.push_back(m);
    for (net::NodeId s : sched->slaves())
      if (p.net->alive(s)) rotation.push_back(s);
    if (rotation.size() >= 2) {
      auto effective = [&](net::NodeId id) {
        const auto& eng = p.cluster->node(id).engine();
        std::vector<uint64_t> eff(eng.version().size());
        for (size_t t = 0; t < eff.size(); ++t)
          eff[t] =
              std::max(eng.version()[t], eng.received_version()[t]);
        return eff;
      };
      const auto ref = effective(rotation[0]);
      for (size_t i = 1; i < rotation.size(); ++i) {
        const auto got = effective(rotation[i]);
        if (got != ref) {
          std::ostringstream os;
          os << "divergence at quiesce: " << p.net->name(rotation[0])
             << " is at " << fmt_vec(ref) << " but "
             << p.net->name(rotation[i]) << " is at " << fmt_vec(got);
          v->add(os.str());
        }
      }
    }
  }
}

}  // namespace dmv::chaos
