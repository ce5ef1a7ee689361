// chaos_sweep: enumerate fault schedules against the DMV cluster and run
// each through the one fault harness, check::run_check — the sequential
// 1-copy-SR oracle plus every structural invariant (src/chaos/
// invariants.hpp) and the live-master durability check.
//
// Workload: one conflict class (one update master, named "master"), 4
// closed-loop clients x 25 ops over 64 rows, check's mixed op family.
//
// Phases:
//  1. baseline (no faults) — the harness itself must be quiet;
//  2. single faults: kill each role (master, slaves, spare, schedulers) at
//     two points in the workload; bounce (kill + restart) a slave and the
//     master through the §4.4 rejoin protocol;
//  3. double faults: run a probe schedule to learn which protocol points
//     (dmv_obs span names: failover.discard, failover.promote,
//     sched.takeover, join.*, ...) it exercises, then re-run it killing a
//     second node exactly when each point fires;
//  4. scenario schedules: read starvation with the last slave dead, a
//     standby takeover racing a dying master, a join arriving mid-recovery,
//     a master restarting before the standby takes over.
//
// Every run is deterministic in (config, plan, seed). A failing schedule is
// shrunk greedily (drop one fault at a time while the failure reproduces)
// and reported as a --fault-plan string that replays it:
//
//   chaos_sweep --fault-plan 'kill:master@t:30000;kill:slave0@p:failover.discard#1'
//
// Exit status: 0 if every schedule satisfied every invariant, 1 otherwise.
#include <cstring>
#include <iostream>
#include <set>
#include <string>
#include <vector>

#include "check/checker.hpp"

using namespace dmv;

namespace {

struct Options {
  std::string plan;
  bool plan_given = false;
  int seeds = 2;
  bool quick = false;
  bool verbose = false;
  bool list_points = false;
  check::CheckConfig base = check::chaos_config();
};

struct Entry {
  std::string name;
  check::CheckConfig cfg;
  std::string plan;
};

int g_runs = 0;

check::CheckReport run_one(const check::CheckConfig& cfg,
                           const std::string& plan, uint64_t seed) {
  check::CheckConfig c = cfg;
  c.seed = seed;
  ++g_runs;
  return check::run_check(c, plan);
}

// Greedy delta-debugging via the shared shrinker: drop one fault at a time
// as long as the failure still reproduces under the same seed.
std::string shrink(const check::CheckConfig& cfg, const std::string& plan,
                   uint64_t seed) {
  return chaos::shrink_plan(plan, [&](const std::string& cand) {
    return !run_one(cfg, cand, seed).passed;
  });
}

std::string replay_hint(const check::CheckConfig& cfg,
                        const std::string& plan, uint64_t seed) {
  // --seeds N replays seeds 1..N; the failing one is the last.
  return "chaos_sweep --fault-plan '" + plan + "' --seeds " +
         std::to_string(seed) + check::sweep_flags(cfg, check::chaos_config());
}

// Runs an entry across seeds; on failure shrinks and reports. True = pass.
bool run_entry(const Entry& e, const Options& opt) {
  for (int s = 1; s <= opt.seeds; ++s) {
    const auto rep = run_one(e.cfg, e.plan, uint64_t(s));
    if (opt.verbose)
      std::cout << "  [" << e.name << " seed " << s << "] "
                << rep.summary() << "\n";
    if (rep.passed) continue;
    std::cout << "FAIL: " << e.name << " (seed " << s << ")\n"
              << "  plan: " << (e.plan.empty() ? "<none>" : e.plan)
              << "\n";
    for (const auto& v : rep.violations)
      std::cout << "  violation: " << v << "\n";
    if (!e.plan.empty()) {
      const std::string small = shrink(e.cfg, e.plan, uint64_t(s));
      std::cout << "  shrunk plan: " << small << "\n  replay: "
                << replay_hint(e.cfg, small, uint64_t(s)) << "\n";
    }
    return false;
  }
  std::cout << "ok: " << e.name << "\n";
  return true;
}

// Protocol points worth double-faulting at: recovery, takeover, join,
// migration, and warm-up markers (not per-transaction hot-path spans).
bool interesting_point(const std::string& name) {
  return name.rfind("failover.", 0) == 0 ||
         name.rfind("sched.", 0) == 0 || name.rfind("join", 0) == 0 ||
         name.rfind("migration.", 0) == 0 ||
         name.rfind("spare.", 0) == 0;
}

std::vector<std::string> points_of(const check::CheckConfig& cfg,
                                   const std::string& plan) {
  const auto rep = run_one(cfg, plan, 1);
  std::vector<std::string> pts;
  for (const auto& [name, cnt] : rep.points_fired)
    if (cnt > 0 && interesting_point(name)) pts.push_back(name);
  return pts;
}

bool mentions(const std::string& plan, const std::string& node) {
  return plan.find(":" + node + "@") != std::string::npos;
}

}  // namespace

int main(int argc, char** argv) {
  Options opt;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    auto next = [&]() -> std::string {
      if (i + 1 >= argc) {
        std::cerr << a << " needs a value\n";
        exit(2);
      }
      return argv[++i];
    };
    if (a == "--fault-plan") {
      opt.plan = next();
      opt.plan_given = true;
    } else if (a == "--seeds") {
      opt.seeds = std::stoi(next());
    } else if (a == "--quick") {
      opt.quick = true;
    } else if (a == "--verbose") {
      opt.verbose = true;
    } else if (a == "--list-points") {
      opt.list_points = true;
    } else if (a == "--slaves") {
      opt.base.cluster.slaves = std::stoi(next());
    } else if (a == "--spares") {
      opt.base.cluster.spares = std::stoi(next());
    } else if (a == "--schedulers") {
      opt.base.cluster.schedulers = std::stoi(next());
    } else if (a == "--clients") {
      opt.base.clients = std::stoi(next());
    } else if (a == "--ops") {
      opt.base.ops_per_client = std::stoi(next());
    } else if (a == "--max-read-stall") {
      opt.base.max_read_stall = std::stoll(next());
    } else if (a == "--batched") {
      // Run every schedule with the replication pipeline's coalescing
      // windows open: acks stand for prefixes and write-sets sit in
      // master-side batch windows while faults fire.
      check::open_batch_windows(opt.base.cluster.node);
    } else {
      std::cerr << "usage: chaos_sweep [--fault-plan PLAN] [--seeds N] "
                   "[--quick] [--verbose] [--list-points] [--batched]\n"
                   "                   [--slaves N] [--spares N] "
                   "[--schedulers N] [--clients N] [--ops N] "
                   "[--max-read-stall USEC]\n";
      return 2;
    }
  }

  if (opt.list_points) {
    // Exercise recovery + takeover + rejoin once and print every
    // protocol point a plan could trigger on.
    std::vector<std::string> probes = {
        "kill:master@t:30000",
        "kill:sched0@t:30000",
        "kill:slave0@t:20000;restart:slave0@t:40000",
    };
    std::set<std::string> all;
    for (const auto& p : probes)
      for (const auto& name : points_of(opt.base, p)) all.insert(name);
    for (const auto& n : all) std::cout << n << "\n";
    return 0;
  }

  if (opt.plan_given) {
    std::string err;
    if (!chaos::FaultPlan::parse(opt.plan, &err)) {
      std::cerr << "bad fault plan: " << err << "\n";
      return 2;
    }
    bool all_ok = true;
    for (int s = 1; s <= opt.seeds; ++s) {
      const auto rep = run_one(opt.base, opt.plan, uint64_t(s));
      std::cout << "seed " << s << ": " << rep.summary() << "\n";
      for (const auto& v : rep.violations)
        std::cout << "  violation: " << v << "\n";
      all_ok = all_ok && rep.passed;
    }
    return all_ok ? 0 : 1;
  }

  std::vector<Entry> entries;
  const check::CheckConfig base = opt.base;

  // Phase 1: baseline.
  entries.push_back({"baseline", base, ""});

  // Phase 2: single faults per role, early and late in the workload.
  {
    std::vector<std::string> victims = {"master", "slave0", "slave1",
                                        "spare0", "sched0", "sched1"};
    std::vector<long> times = {20000, 60000};
    if (opt.quick) {
      victims = {"master", "slave0", "sched0"};
      times = {20000};
    }
    for (const auto& v : victims)
      for (long t : times)
        entries.push_back({"kill-" + v + "@" + std::to_string(t), base,
                           "kill:" + v + "@t:" + std::to_string(t)});
    // Bounces: death followed by §4.4 reintegration.
    entries.push_back({"bounce-slave0", base,
                       "kill:slave0@t:20000;restart:slave0@t:50000"});
    if (!opt.quick)
      entries.push_back({"bounce-master", base,
                         "kill:master@t:20000;restart:master@t:60000"});
  }

  // Phase 3: double faults at protocol points. Probe each base schedule
  // for the points it fires, then kill a second node exactly there.
  {
    struct Base {
      std::string plan;
      std::vector<std::string> second;
    };
    std::vector<Base> bases = {
        {"kill:master@t:30000", {"slave0", "sched0", "spare0"}},
        {"kill:sched0@t:30000", {"master", "slave0"}},
    };
    if (!opt.quick)
      bases.push_back({"kill:slave0@t:20000;restart:slave0@t:40000",
                       {"master", "sched0"}});
    size_t added = 0;
    const size_t cap = opt.quick ? 4 : 64;
    for (const auto& b : bases) {
      for (const auto& pt : points_of(base, b.plan)) {
        for (const auto& v : b.second) {
          if (mentions(b.plan, v)) continue;  // already dead in the base
          if (added >= cap) break;
          const std::string plan =
              b.plan + ";kill:" + v + "@p:" + pt + "#1";
          entries.push_back({"double@" + pt + "+" + v, base, plan});
          ++added;
        }
      }
    }
  }

  // Phase 4: scenario schedules.
  {
    check::CheckConfig one_slave = base;
    one_slave.cluster.slaves = 1;
    one_slave.cluster.spares = 0;
    // The read rotation empties: reads must fall back to the live master
    // instead of starving (and must NOT touch it while any slave lives).
    // The availability bound is the teeth here: a fallback gated on list
    // emptiness instead of liveness parks reads for the whole 50ms
    // detection window, which end-state invariants alone cannot see.
    check::CheckConfig starve = one_slave;
    starve.max_read_stall = 20000;  // 20ms, well under detect_delay
    entries.push_back({"starve-last-slave", starve, "kill:slave0@t:30000"});
    entries.push_back({"starve+takeover", one_slave,
                       "kill:slave0@t:30000;kill:sched0@t:30000"});
    // The master dies and restarts while the primary scheduler is dead
    // and before the standby takes over: the standby must still recover
    // the class, not keep the restarted (empty) process as its master.
    entries.push_back(
        {"master-restart-before-takeover", base,
         "kill:sched0@t:25002;kill:master@t:14762;restart:master@t:36988"});
    if (!opt.quick) {
      entries.push_back(
          {"takeover-race-master", base,
           "kill:sched0@t:30000;kill:master@p:sched.takeover#1"});
      // Slow the support slave's link so the join straddles a recovery.
      entries.push_back(
          {"join-mid-recovery", base,
           "slow:slave0~spare0:4000@t:0;kill:slave1@t:20000;"
           "restart:slave1@t:30000;kill:master@p:join.subscribe#1"});
    }
  }

  int failures = 0;
  for (const auto& e : entries)
    if (!run_entry(e, opt)) ++failures;

  std::cout << entries.size() << " schedule(s), " << g_runs
            << " run(s), " << failures << " failure(s)\n";
  return failures ? 1 : 0;
}
