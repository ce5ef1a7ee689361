// FaultPlan: a tiny DSL describing deterministic fault schedules.
//
// A plan is a ';'-separated list of faults; each fault is an action plus a
// trigger:
//
//   plan    := fault (';' fault)*
//   fault   := action '@' trigger
//   action  := 'kill:' node            fail-stop a node (engine or scheduler)
//            | 'restart:' node         reboot + rejoin a killed engine node
//            | 'slow:' a '~' b ':' us  add `us` usec latency to one link
//            | 'killbackend:' i        fail-stop on-disk backend i (§4.6)
//            | 'restartbackend:' i     resume a killed backend (replays or
//                                      re-attaches past the truncation
//                                      horizon)
//            | 'wipe-tier'             kill every in-memory engine node at
//                                      once (the §4.6 disaster scenario)
//            | 'partition:' rA '|' rB  cut both directions between regions
//                                      (traffic parks and replays on heal)
//            | 'partition:' rA '>' rB  cut only rA-to-rB traffic
//                                      (asymmetric partition)
//            | 'heal-partition'        heal every region partition
//            | 'heal-partition:' rA '|' rB   heal one region pair
//                                      ('>' heals one direction)
//            | 'addslave'              elastic scale-out: allocate a fresh
//                                      slave on the live network and run
//                                      the §4.4 join under load
//            | 'retire:' node          elastic scale-in: drain the node's
//                                      in-flight reads, then remove it
//                                      (no-op on masters/dead nodes)
//   trigger := 't:' usec               at absolute virtual time
//            | 'p:' point ['#' occ]    when trace point `point` fires for
//                                      the occ'th time (default 1)
//
// Nodes are addressed by their network-registered names ("master",
// "slave0", "sched1", ...). Protocol points are dmv_obs span/instant names
// ("failover.discard", "sched.takeover", "join.pages", ...), so a plan can
// say "kill the support slave inside the discard phase" without knowing
// when that phase happens to start:
//
//   kill:master@t:30000;kill:slave0@p:failover.discard#1
//
// Plans round-trip through parse()/str() exactly, which is what lets the
// sweep shrink a failure and print a --fault-plan string that replays it.
#pragma once

#include <functional>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "sim/time.hpp"

namespace dmv::check {

enum class ActionKind {
  Kill,
  Restart,
  Slow,
  KillBackend,
  RestartBackend,
  WipeTier,
  Partition,      // region partition (a, b are region names)
  HealPartition,  // heal one region pair, or all when a/b are empty
  AddSlave,       // elastic scale-out (operand-less)
  Retire,         // elastic scale-in: drain + remove `node`
};

struct Action {
  ActionKind kind = ActionKind::Kill;
  std::string node;          // Kill / Restart
  std::string a, b;          // Slow endpoints; regions for
                             // Partition / HealPartition
  sim::Time extra = 0;       // Slow: added latency (usec)
  int backend = -1;          // KillBackend / RestartBackend index
  bool directed = false;     // Partition / HealPartition: one direction only
};

struct Trigger {
  bool at_point = false;
  sim::Time at = 0;          // timed trigger (virtual usec)
  std::string point;         // point trigger: span/instant name
  int occurrence = 1;        // fire on the n'th emission (1-based)
};

struct Fault {
  Action action;
  Trigger trigger;
  std::string str() const;
};

struct FaultPlan {
  std::vector<Fault> faults;

  bool empty() const { return faults.empty(); }
  std::string str() const;

  // Parse a plan string; on failure returns nullopt and, if `err` is given,
  // a message naming the offending fragment.
  static std::optional<FaultPlan> parse(std::string_view s,
                                        std::string* err = nullptr);
};

// The kind of a violation: its text before the first ':'
// ("recovery-mismatch", "plan error", ...).
std::string_view violation_kind(std::string_view violation);

// Greedy delta-debugging: drop one fault at a time as long as the candidate
// plan still fails the same way. `violations_of` runs a candidate plan
// string and returns its violations (empty: it passed). A candidate is kept
// only if its first violation has kind `kind` (the original run's first
// violation kind) and none is a plan error, so the result reproduces the
// failure it came from, not some other one. A region partition and the
// heal-partition faults that heal exactly it are dropped together: a cut
// left unhealed wedges the run by design. Returns the smallest such plan
// (the input itself if nothing could be dropped or it doesn't parse).
// check_sweep shrinks every failing plan with it.
std::string shrink_plan(
    const std::string& plan, std::string_view kind,
    const std::function<std::vector<std::string>(const std::string&)>&
        violations_of);

}  // namespace dmv::check
