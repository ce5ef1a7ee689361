// check_sweep: property-based one-copy-serializability sweep (dmv_check).
//
// Each seed runs a randomized multi-row workload (transfers, RMWs, pair
// reads, range sums across two conflict classes) against the cluster under
// a seed-derived fault schedule, records the full history at the
// client/scheduler boundary, and replays it through the sequential oracle
// (src/check/oracle.hpp). Runs alternate between one- and two-fault
// schedules, with a periodic fault-free seed as a control.
//
// Every run is deterministic in (config, plan, seed); a failure prints a
// one-line repro:
//
//   check_sweep --seed 17 --fault-plan 'kill:master0@t:21000'
//
// and greedily shrinks the plan (check::shrink_plan) to a minimal
// schedule that still fails. With --artifacts DIR the failing history and
// shrunk plan are written to DIR for CI upload.
//
// --mutations runs the planted-bug smoke: each known-critical check is
// broken one at a time and the checker must report the expected named
// violation (see check::mutation_list).
//
// --disaster runs the §4.6 whole-tier drill instead: every seed deploys
// the persistence tier, destroys every live engine node at a seed-derived
// point mid-workload (plus optional warm-up kills and backend bounces),
// and the oracle verifies that a replacement tier bootstrapped from each
// recoverable backend equals the acked sequential prefix exactly
// (recovery-mismatch). Quick mode covers 100 seeds.
//
// --geo runs the WAN variant: a two-region deployment with quorum commit
// and open pipeline windows, under seed-derived partition-heavy schedules
// (symmetric and directed region cuts, always healed, composed with the
// usual kills). One-copy serializability must hold across every cut.
//
// --elastic runs the fleet-resize variant: seed-derived schedules add
// fresh slaves mid-workload (live §4.4 joins) and usually retire one
// (drain then kill), composed with the usual master/spare kills. The
// oracle must hold while the fleet resizes in both directions.
//
// --multimaster runs the conflict-class-sharded composite: three update
// masters (one per single-table class) on a two-region deployment with
// quorum commit and open pipeline windows, under seed-derived schedules
// biased toward master kills — concurrent per-class fail-overs and
// cross-class adoptions — composed with elastic resizes and healed
// region cuts. --classes N widens any mode's class count directly.
//
// --chaos runs enumerated schedules instead of seed-derived ones, on
// check::chaos_config() (one conflict class, whose master is named
// "master"; 4 clients x 25 ops over 64 rows), each under seeds 1..N
// (default 2):
//  1. baseline (no faults) — the harness itself must be quiet;
//  2. single faults: kill each node of the base deployment (master,
//     slaves, spares, schedulers) at two points in the workload; bounce
//     (kill + restart) a slave and the master through the §4.4 rejoin
//     protocol;
//  3. double faults: run a probe schedule to learn which protocol points
//     (dmv_obs span names: failover.discard, failover.promote,
//     sched.takeover, join.*, ...) it exercises, then re-run it killing a
//     second node exactly when each point fires;
//  4. scenario schedules: read starvation with the last slave dead, a
//     standby takeover racing a dying master, a join arriving mid-recovery,
//     a master restarting before the standby takes over.
// A schedule naming a node the base deployment lacks (--slaves, --spares,
// --schedulers), or killing sched0 when it has no standby scheduler, is
// skipped. --quick runs a reduced schedule. With
// --fault-plan or --seed, --chaos only sets the base config; its repro
// lines start `check_sweep --chaos`.
//
// Exit status: 0 if every run passed (and, with --mutations, every
// mutation was caught), 1 otherwise, 2 on a usage error.
#include <algorithm>
#include <charconv>
#include <climits>
#include <fstream>
#include <iostream>
#include <string>
#include <vector>

#include "check/checker.hpp"
#include "check/fault_plan.hpp"

using namespace dmv;

namespace {

struct Options {
  int seeds = 0;        // 0: the mode's default
  long long seed = -1;  // >= 0: single-run repro mode
  std::string plan;
  bool plan_given = false;
  bool quick = false;
  bool mutations = false;
  bool chaos = false;
  bool disaster = false;
  bool geo = false;
  bool elastic = false;
  bool multimaster = false;
  bool verbose = false;
  std::string artifacts;
  check::CheckConfig base;
};

[[noreturn]] void usage() {
  std::cerr << "usage: check_sweep [--seeds N | --quick | --seed N] "
               "[--fault-plan PLAN] [--mutations] [--chaos]\n"
               "                   [--disaster] [--geo] [--elastic] "
               "[--multimaster] [--classes N] "
               "[--artifacts DIR] "
               "[--verbose] [--batched]\n"
               "                   [--workload mixed|ycsb|orders|scan] "
               "[--slaves N] [--spares N] [--schedulers N] "
               "[--clients N] [--ops N]\n"
               "                   [--max-read-stall USEC]\n";
  exit(2);
}

// Every numeric flag's value: an integer in lo..hi, else a usage error.
long long number(const std::string& flag, const std::string& value,
                 long long lo, long long hi = INT_MAX) {
  long long v = 0;
  const char* end = value.data() + value.size();
  const auto [p, ec] = std::from_chars(value.data(), end, v);
  if (ec != std::errc{} || p != end || v < lo || v > hi) {
    std::cerr << flag << " must be in " << lo << ".." << hi << ", got '"
              << value << "'\n";
    usage();
  }
  return v;
}

int g_runs = 0;  // every run_check call, probes and shrink steps included

check::CheckReport run(check::CheckConfig cfg, uint64_t seed,
                       const std::string& plan) {
  cfg.seed = seed;
  ++g_runs;
  return check::run_check(cfg, plan);
}

std::string repro_line(const Options& opt, const check::CheckConfig& cfg,
                       const std::string& plan, uint64_t seed) {
  return std::string("check_sweep") + (opt.chaos ? " --chaos" : "") +
         " --seed " + std::to_string(seed) + " --fault-plan '" + plan + "'" +
         check::sweep_flags(cfg, opt.chaos ? check::chaos_config()
                                           : check::CheckConfig{});
}

void write_artifacts(const Options& opt, const std::string& name,
                     const check::CheckConfig& cfg, uint64_t seed,
                     const std::string& plan, const std::string& shrunk,
                     const check::CheckReport& rep) {
  if (opt.artifacts.empty()) return;
  const std::string stem = opt.artifacts + "/" +
                           (name.empty() ? "" : name + "-") + "seed" +
                           std::to_string(seed);
  {
    std::ofstream f(stem + ".history");
    f << rep.history_dump;
  }
  std::ofstream f(stem + ".plan");
  f << "plan: " << plan << "\n"
    << "shrunk: " << shrunk << "\n"
    << "replay: " << repro_line(opt, cfg, shrunk, seed) << "\n";
  for (const auto& v : rep.violations) f << "violation: " << v << "\n";
}

// Runs `cfg` under `plan` at `seed`; on failure reports, shrinks, writes
// artifacts. `name` labels a --chaos schedule (empty in the seed sweep).
bool run_one(const Options& opt, const check::CheckConfig& cfg,
             uint64_t seed, const std::string& plan,
             const std::string& name = "") {
  const auto rep = run(cfg, seed, plan);
  if (opt.verbose && name.empty())
    std::cout << "seed " << seed << " plan '" << plan << "': "
              << rep.summary() << "\n";
  else if (opt.verbose)
    std::cout << "  [" << name << " seed " << seed << "] " << rep.summary()
              << "\n";
  if (rep.passed) return true;
  std::cout << "FAIL: " << (name.empty() ? "" : name + " ") << "seed "
            << seed << " plan '" << plan << "'\n";
  for (const auto& v : rep.violations)
    std::cout << "  violation: " << v << "\n";
  std::string shrunk = plan;
  if (!plan.empty()) {
    shrunk = check::shrink_plan(
        plan, check::violation_kind(rep.violations.front()),
        [&](const std::string& cand) {
          return run(cfg, seed, cand).violations;
        });
    std::cout << "  shrunk plan: " << shrunk << "\n";
  }
  std::cout << "  replay: " << repro_line(opt, cfg, shrunk, seed) << "\n";
  write_artifacts(opt, name, cfg, seed, plan, shrunk, rep);
  return false;
}

// The schedule run at `seed`: the --fault-plan if given, else the mode's
// seed-derived one (a wipe-tier drill in disaster mode; otherwise one
// fault on odd seeds, two on even ones, or none for a `control` run).
std::string plan_for(const Options& opt, uint64_t seed, bool control) {
  if (opt.plan_given) return opt.plan;
  if (opt.disaster) return check::random_disaster_plan(opt.base, seed);
  if (control) return "";
  const int faults = seed % 2 == 0 ? 2 : 1;
  if (opt.multimaster)
    return check::random_multimaster_fault_plan(opt.base, seed, faults);
  if (opt.geo) return check::random_geo_fault_plan(opt.base, seed, faults);
  if (opt.elastic)
    return check::random_elastic_fault_plan(opt.base, seed, faults);
  return check::random_fault_plan(opt.base, seed, faults);
}

// ---- --chaos: enumerated schedules ----

struct Entry {
  std::string name;
  check::CheckConfig cfg;
  std::string plan;
};

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
  const auto rep = run(cfg, 1, plan);
  std::vector<std::string> pts;
  for (const auto& [name, cnt] : rep.points_fired)
    if (cnt > 0 && interesting_point(name)) pts.push_back(name);
  return pts;
}

bool mentions(const std::string& plan, const std::string& node) {
  return plan.find(":" + node + "@") != std::string::npos;
}

// The engine and scheduler node names of `cfg`'s one-class deployment.
std::vector<std::string> node_names(const check::CheckConfig& cfg) {
  std::vector<std::string> names = {"master"};
  for (int i = 0; i < cfg.cluster.slaves; ++i)
    names.push_back("slave" + std::to_string(i));
  for (int i = 0; i < cfg.cluster.spares; ++i)
    names.push_back("spare" + std::to_string(i));
  for (int i = 0; i < cfg.cluster.schedulers; ++i)
    names.push_back("sched" + std::to_string(i));
  return names;
}

// Whether `cfg`'s deployment has every node `plan` addresses and a
// standby for any scheduler the plan kills: with no peer to take over,
// every op after the kill is a client error and the run tests nothing
// (the rule check::victims_of applies to seed-derived plans).
bool deployed(const check::CheckConfig& cfg, const std::string& plan) {
  const std::vector<std::string> names = node_names(cfg);
  const auto has = [&names](const std::string& n) {
    return n.empty() || std::ranges::find(names, n) != names.end();
  };
  const auto parsed = check::FaultPlan::parse(plan);
  for (const auto& f : parsed->faults) {
    const check::Action& a = f.action;
    const bool slow = a.kind == check::ActionKind::Slow;
    if (!has(a.node) || (slow && !(has(a.a) && has(a.b)))) return false;
    if (a.kind == check::ActionKind::Kill && a.node == "sched0" &&
        cfg.cluster.schedulers < 2)
      return false;
  }
  return true;
}

// The --chaos schedules in run order (phases 1-4 of the header comment),
// over the nodes the base deployment has.
std::vector<Entry> chaos_schedules(const Options& opt) {
  std::vector<Entry> entries;
  const check::CheckConfig& base = opt.base;

  // Phase 1: baseline.
  entries.push_back({"baseline", base, ""});

  // Phase 2: single faults per role, early and late in the workload.
  {
    std::vector<std::string> victims = node_names(base);
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
      if (!deployed(base, b.plan)) continue;
      for (const auto& pt : points_of(base, b.plan)) {
        for (const auto& v : b.second) {
          if (mentions(b.plan, v)) continue;  // already dead in the base
          const std::string plan =
              b.plan + ";kill:" + v + "@p:" + pt + "#1";
          if (!deployed(base, plan)) continue;
          if (added >= cap) break;
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
  std::erase_if(entries,
                [](const Entry& e) { return !deployed(e.cfg, e.plan); });
  return entries;
}

// Runs every --chaos schedule under seeds 1..opt.seeds; a schedule stops
// at its first failing seed. Returns the number of failed schedules.
int run_chaos(const Options& opt) {
  const std::vector<Entry> entries = chaos_schedules(opt);
  int failures = 0;
  for (const auto& e : entries) {
    bool ok = true;
    for (int s = 1; s <= opt.seeds && ok; ++s)
      ok = run_one(opt, e.cfg, uint64_t(s), e.plan, e.name);
    if (ok)
      std::cout << "ok: " << e.name << "\n";
    else
      ++failures;
  }
  std::cout << entries.size() << " schedule(s), " << g_runs << " run(s), "
            << failures << " failure(s)\n";
  return failures;
}

}  // namespace

int main(int argc, char** argv) {
  Options opt;
  // --chaos picks the base config every other flag edits, wherever it
  // stands on the command line.
  opt.chaos = std::find(argv + 1, argv + argc, std::string("--chaos")) !=
              argv + argc;
  if (opt.chaos) opt.base = check::chaos_config();
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    auto next = [&]() -> std::string {
      if (i + 1 >= argc) {
        std::cerr << a << " needs a value\n";
        usage();
      }
      return argv[++i];
    };
    if (a == "--seed") {
      opt.seed = number(a, next(), 0, LLONG_MAX);
    } else if (a == "--seeds") {
      opt.seeds = int(number(a, next(), 1));
    } else if (a == "--fault-plan") {
      opt.plan = next();
      opt.plan_given = true;
    } else if (a == "--quick") {
      opt.quick = true;
    } else if (a == "--mutations") {
      opt.mutations = true;
    } else if (a == "--chaos") {
      // Read before the loop.
    } else if (a == "--disaster") {
      opt.disaster = true;
      opt.base.cluster.enable_persistence = true;
    } else if (a == "--geo") {
      opt.geo = true;
      opt.base.cluster.regions = 2;
      opt.base.cluster.node.quorum_commit = true;
      // Open pipeline windows: lazy catch-up only matters when the
      // master can run ahead of the slow region's acks.
      check::open_batch_windows(opt.base.cluster.node);
    } else if (a == "--elastic") {
      opt.elastic = true;
    } else if (a == "--multimaster") {
      opt.multimaster = true;
      check::make_multimaster(opt.base);
    } else if (a == "--workload" || a.rfind("--workload=", 0) == 0) {
      const std::string name =
          a == "--workload" ? next()
                            : a.substr(std::string("--workload=").size());
      if (!check::parse_check_workload(name, &opt.base.workload)) {
        std::cerr << "unknown --workload '" << name
                  << "' (expected mixed, ycsb, orders or scan)\n";
        return 2;
      }
    } else if (a == "--classes") {
      // Tables acct_a .. acct_z.
      opt.base.classes = int(number(a, next(), 1, 26));
    } else if (a == "--verbose") {
      opt.verbose = true;
    } else if (a == "--artifacts") {
      opt.artifacts = next();
    } else if (a == "--slaves") {
      opt.base.cluster.slaves = int(number(a, next(), 1));
    } else if (a == "--spares") {
      opt.base.cluster.spares = int(number(a, next(), 0));
    } else if (a == "--schedulers") {
      opt.base.cluster.schedulers = int(number(a, next(), 1));
    } else if (a == "--clients") {
      opt.base.clients = int(number(a, next(), 1));
    } else if (a == "--ops") {
      opt.base.ops_per_client = int(number(a, next(), 1));
    } else if (a == "--max-read-stall") {
      opt.base.max_read_stall = number(a, next(), 0, LLONG_MAX);
    } else if (a == "--batched") {
      // Every schedule runs with the replication pipeline's coalescing
      // windows open: acks stand for prefixes and write-sets sit in
      // master-side batch windows while faults fire.
      check::open_batch_windows(opt.base.cluster.node);
    } else {
      usage();
    }
  }
  if (opt.chaos && opt.base.classes != 1) {
    // The enumerated schedules kill the one class's master by name.
    std::cerr << "--chaos runs one conflict class (no --classes or "
                 "--multimaster)\n";
    usage();
  }
  if (opt.seeds == 0) opt.seeds = opt.chaos ? 2 : 400;
  if (opt.quick && !opt.chaos)
    opt.seeds = opt.disaster || opt.geo || opt.elastic || opt.multimaster ||
                        opt.base.workload != check::CheckWorkload::Mixed
                    ? 100
                    : 200;

  if (opt.plan_given) {
    std::string err;
    if (!check::FaultPlan::parse(opt.plan, &err)) {
      std::cerr << "bad fault plan: " << err << "\n";
      return 2;
    }
  }

  int failures = 0;

  if (opt.seed >= 0) {
    // Single-run repro mode: the plan is taken verbatim (defaults to the
    // seed-derived schedule the sweep would have used).
    const uint64_t seed = uint64_t(opt.seed);
    if (!run_one(opt, opt.base, seed, plan_for(opt, seed, false)))
      ++failures;
  } else if (opt.chaos && !opt.plan_given && !opt.mutations) {
    failures = run_chaos(opt);
  } else if (!opt.mutations) {
    // Sweep: alternate single- and double-fault schedules; every 8th
    // seed runs fault-free as a control for the harness itself. Disaster
    // mode replaces the schedule with a seed-derived wipe-tier drill.
    for (int s = 1; s <= opt.seeds; ++s)
      if (!run_one(opt, opt.base, uint64_t(s),
                   plan_for(opt, uint64_t(s), s % 8 == 0)))
        ++failures;
    std::cout << opt.seeds << " seed(s), " << failures << " failure(s)\n";
  }

  if (opt.mutations) {
    std::cout << "mutation smoke: every planted bug must be caught by a "
                 "named violation\n";
    if (!check::run_mutation_smoke(std::cout, opt.verbose)) ++failures;
  }

  return failures ? 1 : 0;
}
