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
// and greedily shrinks the plan (shared chaos shrinker) to a minimal
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
// Exit status: 0 if every seed passed (and, with --mutations, every
// mutation was caught), 1 otherwise.
#include <fstream>
#include <iostream>
#include <string>
#include <vector>

#include "chaos/fault_plan.hpp"
#include "check/checker.hpp"

using namespace dmv;

namespace {

struct Options {
  int seeds = 400;
  long long seed = -1;  // >= 0: single-run repro mode
  std::string plan;
  bool plan_given = false;
  bool quick = false;
  bool mutations = false;
  bool disaster = false;
  bool geo = false;
  bool elastic = false;
  bool multimaster = false;
  bool verbose = false;
  std::string artifacts;
  check::CheckConfig base;
};

std::string repro_line(const check::CheckConfig& cfg,
                       const std::string& plan, uint64_t seed) {
  return "check_sweep --seed " + std::to_string(seed) + " --fault-plan '" +
         plan + "'" + check::sweep_flags(cfg, check::CheckConfig{});
}

void write_artifacts(const Options& opt, uint64_t seed,
                     const std::string& plan, const std::string& shrunk,
                     const check::CheckReport& rep) {
  if (opt.artifacts.empty()) return;
  const std::string stem = opt.artifacts + "/seed" + std::to_string(seed);
  {
    std::ofstream f(stem + ".history");
    f << rep.history_dump;
  }
  std::ofstream f(stem + ".plan");
  f << "plan: " << plan << "\n"
    << "shrunk: " << shrunk << "\n"
    << "replay: " << repro_line(opt.base, shrunk, seed) << "\n";
  for (const auto& v : rep.violations) f << "violation: " << v << "\n";
}

// Runs one (seed, plan); on failure reports, shrinks, writes artifacts.
bool run_one(const Options& opt, uint64_t seed, const std::string& plan) {
  check::CheckConfig cfg = opt.base;
  cfg.seed = seed;
  const auto rep = check::run_check(cfg, plan);
  if (opt.verbose)
    std::cout << "seed " << seed << " plan '" << plan << "': "
              << rep.summary() << "\n";
  if (rep.passed) return true;
  std::cout << "FAIL: seed " << seed << " plan '" << plan << "'\n";
  for (const auto& v : rep.violations)
    std::cout << "  violation: " << v << "\n";
  std::string shrunk = plan;
  if (!plan.empty()) {
    shrunk = chaos::shrink_plan(plan, [&](const std::string& cand) {
      check::CheckConfig c = opt.base;
      c.seed = seed;
      return !check::run_check(c, cand).passed;
    });
    std::cout << "  shrunk plan: " << shrunk << "\n";
  }
  std::cout << "  replay: " << repro_line(opt.base, shrunk, seed) << "\n";
  write_artifacts(opt, seed, plan, shrunk, rep);
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
    if (a == "--seed") {
      opt.seed = std::stoll(next());
    } else if (a == "--seeds") {
      opt.seeds = std::stoi(next());
    } else if (a == "--fault-plan") {
      opt.plan = next();
      opt.plan_given = true;
    } else if (a == "--quick") {
      opt.quick = true;
    } else if (a == "--mutations") {
      opt.mutations = true;
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
      opt.base.elastic = true;
    } else if (a == "--multimaster") {
      opt.multimaster = true;
      opt.base.multimaster = true;
      opt.base.classes = 3;
      opt.base.cluster.regions = 2;
      opt.base.cluster.node.quorum_commit = true;
      // Open pipeline windows: dying masters must hold unconfirmed
      // write-sets so per-class discard/quorum reconciliation is real.
      check::open_batch_windows(opt.base.cluster.node);
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
      opt.base.classes = std::stoi(next());
    } else if (a == "--verbose") {
      opt.verbose = true;
    } else if (a == "--artifacts") {
      opt.artifacts = next();
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
    } else if (a == "--batched") {
      check::open_batch_windows(opt.base.cluster.node);
    } else {
      std::cerr
          << "usage: check_sweep [--seeds N | --quick | --seed N] "
             "[--fault-plan PLAN] [--mutations]\n"
             "                   [--disaster] [--geo] [--elastic] "
             "[--multimaster] [--classes N] "
             "[--artifacts DIR] "
             "[--verbose] [--batched]\n"
             "                   [--workload mixed|ycsb|orders|scan] "
             "[--slaves N] [--spares N] [--schedulers N] "
             "[--clients N] [--ops N]\n";
      return 2;
    }
  }
  if (opt.base.classes < 1 || opt.base.classes > 26) {
    std::cerr << "--classes must be in 1..26 (tables acct_a .. acct_z)\n";
    return 2;
  }
  if (opt.quick)
    opt.seeds = opt.disaster || opt.geo || opt.elastic || opt.multimaster ||
                        opt.base.workload != check::CheckWorkload::Mixed
                    ? 100
                    : 200;

  if (opt.plan_given) {
    std::string err;
    if (!chaos::FaultPlan::parse(opt.plan, &err)) {
      std::cerr << "bad fault plan: " << err << "\n";
      return 2;
    }
  }

  int failures = 0;

  if (opt.seed >= 0) {
    // Single-run repro mode: the plan is taken verbatim (defaults to the
    // seed-derived schedule the sweep would have used).
    const uint64_t seed = uint64_t(opt.seed);
    if (!run_one(opt, seed, plan_for(opt, seed, false))) ++failures;
  } else if (!opt.mutations) {
    // Sweep: alternate single- and double-fault schedules; every 8th
    // seed runs fault-free as a control for the harness itself. Disaster
    // mode replaces the schedule with a seed-derived wipe-tier drill.
    for (int s = 1; s <= opt.seeds; ++s)
      if (!run_one(opt, uint64_t(s), plan_for(opt, uint64_t(s), s % 8 == 0)))
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
