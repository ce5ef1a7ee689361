#include "check/fault_plan.hpp"

#include <charconv>

namespace dmv::check {
namespace {

bool parse_time(std::string_view s, sim::Time* out) {
  int64_t v = 0;
  auto [p, ec] = std::from_chars(s.data(), s.data() + s.size(), v);
  if (ec != std::errc{} || p != s.data() + s.size() || v < 0) return false;
  *out = v;
  return true;
}

bool parse_int(std::string_view s, int* out) {
  int v = 0;
  auto [p, ec] = std::from_chars(s.data(), s.data() + s.size(), v);
  if (ec != std::errc{} || p != s.data() + s.size()) return false;
  *out = v;
  return true;
}

// Node and point names: anything non-empty without DSL metacharacters.
bool valid_name(std::string_view s) {
  if (s.empty()) return false;
  for (char c : s)
    if (c == ';' || c == '@' || c == '~' || c == ':' || c == '#')
      return false;
  return true;
}

bool fail(std::string* err, std::string_view frag, const char* why) {
  if (err) *err = std::string(why) + ": '" + std::string(frag) + "'";
  return false;
}

bool parse_trigger(std::string_view trig, Fault* f, std::string* err) {
  if (trig.size() < 3 || trig[1] != ':')
    return fail(err, trig, "trigger needs 't:usec' or 'p:point'");
  const std::string_view body = trig.substr(2);
  if (trig[0] == 't') {
    f->trigger.at_point = false;
    if (!parse_time(body, &f->trigger.at))
      return fail(err, trig, "bad trigger time");
  } else if (trig[0] == 'p') {
    f->trigger.at_point = true;
    f->trigger.occurrence = 1;
    std::string_view point = body;
    const size_t hash = body.rfind('#');
    if (hash != std::string_view::npos) {
      point = body.substr(0, hash);
      if (!parse_int(body.substr(hash + 1), &f->trigger.occurrence) ||
          f->trigger.occurrence < 1)
        return fail(err, trig, "bad occurrence");
    }
    if (!valid_name(point)) return fail(err, trig, "bad point name");
    // Point names may legitimately contain '.' but not DSL chars; ':' is
    // excluded by valid_name which is fine for dmv_obs names.
    f->trigger.point = std::string(point);
  } else {
    return fail(err, trig, "unknown trigger kind");
  }
  return true;
}

bool parse_fault(std::string_view s, Fault* f, std::string* err) {
  const size_t at = s.rfind('@');
  if (at == std::string_view::npos)
    return fail(err, s, "fault needs 'action@trigger'");
  std::string_view act = s.substr(0, at);
  std::string_view trig = s.substr(at + 1);

  // ---- action ----
  if (act == "wipe-tier") {
    // Operand-less verb: it targets the whole mem tier.
    f->action.kind = ActionKind::WipeTier;
    return parse_trigger(trig, f, err);
  }
  if (act == "heal-partition") {
    // Operand-less form: heal every region partition.
    f->action.kind = ActionKind::HealPartition;
    return parse_trigger(trig, f, err);
  }
  if (act == "addslave") {
    // Operand-less verb: the cluster names the new node itself.
    f->action.kind = ActionKind::AddSlave;
    return parse_trigger(trig, f, err);
  }
  const size_t colon = act.find(':');
  if (colon == std::string_view::npos)
    return fail(err, act, "action needs 'verb:operand'");
  const std::string_view verb = act.substr(0, colon);
  const std::string_view rest = act.substr(colon + 1);
  auto split_link = [&](std::string_view lnk, std::string_view* a,
                        std::string_view* b) {
    const size_t tilde = lnk.find('~');
    if (tilde == std::string_view::npos) return false;
    *a = lnk.substr(0, tilde);
    *b = lnk.substr(tilde + 1);
    return valid_name(*a) && valid_name(*b);
  };
  if (verb == "kill" || verb == "restart" || verb == "retire") {
    if (!valid_name(rest)) return fail(err, act, "bad node name");
    f->action.kind = verb == "kill"      ? ActionKind::Kill
                     : verb == "restart" ? ActionKind::Restart
                                         : ActionKind::Retire;
    f->action.node = std::string(rest);
  } else if (verb == "killbackend" || verb == "restartbackend") {
    int idx = -1;
    if (!parse_int(rest, &idx) || idx < 0)
      return fail(err, act, "bad backend index");
    f->action.kind = verb == "killbackend" ? ActionKind::KillBackend
                                           : ActionKind::RestartBackend;
    f->action.backend = idx;
  } else if (verb == "partition" || verb == "heal-partition") {
    // Regions: 'rA|rB' cuts/heals both directions, 'rA>rB' only one.
    size_t sep = rest.find('|');
    bool directed = false;
    if (sep == std::string_view::npos) {
      sep = rest.find('>');
      directed = true;
    }
    if (sep == std::string_view::npos)
      return fail(err, act, "bad region pair 'rA|rB'");
    const std::string_view a = rest.substr(0, sep);
    const std::string_view b = rest.substr(sep + 1);
    if (!valid_name(a) || !valid_name(b) ||
        a.find('|') != std::string_view::npos ||
        b.find('|') != std::string_view::npos ||
        a.find('>') != std::string_view::npos ||
        b.find('>') != std::string_view::npos)
      return fail(err, act, "bad region name");
    f->action.kind = verb == "partition" ? ActionKind::Partition
                                         : ActionKind::HealPartition;
    f->action.a = std::string(a);
    f->action.b = std::string(b);
    f->action.directed = directed;
  } else if (verb == "slow") {
    const size_t c2 = rest.rfind(':');
    if (c2 == std::string_view::npos)
      return fail(err, act, "slow needs 'a~b:usec'");
    std::string_view a, b;
    if (!split_link(rest.substr(0, c2), &a, &b))
      return fail(err, act, "bad link 'a~b'");
    sim::Time extra = 0;
    if (!parse_time(rest.substr(c2 + 1), &extra))
      return fail(err, act, "bad latency");
    f->action.kind = ActionKind::Slow;
    f->action.a = std::string(a);
    f->action.b = std::string(b);
    f->action.extra = extra;
  } else {
    return fail(err, act, "unknown action");
  }

  // ---- trigger ----
  return parse_trigger(trig, f, err);
}

}  // namespace

std::string Fault::str() const {
  std::string s;
  switch (action.kind) {
    case ActionKind::Kill:
      s = "kill:" + action.node;
      break;
    case ActionKind::Restart:
      s = "restart:" + action.node;
      break;
    case ActionKind::Slow:
      s = "slow:" + action.a + "~" + action.b + ":" +
          std::to_string(action.extra);
      break;
    case ActionKind::KillBackend:
      s = "killbackend:" + std::to_string(action.backend);
      break;
    case ActionKind::RestartBackend:
      s = "restartbackend:" + std::to_string(action.backend);
      break;
    case ActionKind::WipeTier:
      s = "wipe-tier";
      break;
    case ActionKind::Partition:
      s = "partition:" + action.a + (action.directed ? ">" : "|") + action.b;
      break;
    case ActionKind::HealPartition:
      s = action.a.empty() ? "heal-partition"
                           : "heal-partition:" + action.a +
                                 (action.directed ? ">" : "|") + action.b;
      break;
    case ActionKind::AddSlave:
      s = "addslave";
      break;
    case ActionKind::Retire:
      s = "retire:" + action.node;
      break;
  }
  s += '@';
  if (trigger.at_point) {
    s += "p:" + trigger.point;
    if (trigger.occurrence != 1)
      s += "#" + std::to_string(trigger.occurrence);
  } else {
    s += "t:" + std::to_string(trigger.at);
  }
  return s;
}

std::string FaultPlan::str() const {
  std::string s;
  for (size_t i = 0; i < faults.size(); ++i) {
    if (i) s += ';';
    s += faults[i].str();
  }
  return s;
}

std::optional<FaultPlan> FaultPlan::parse(std::string_view s,
                                          std::string* err) {
  FaultPlan plan;
  if (s.empty()) return plan;  // empty plan: run fault-free
  size_t pos = 0;
  while (pos <= s.size()) {
    size_t semi = s.find(';', pos);
    if (semi == std::string_view::npos) semi = s.size();
    Fault f;
    if (!parse_fault(s.substr(pos, semi - pos), &f, err))
      return std::nullopt;
    plan.faults.push_back(std::move(f));
    if (semi == s.size()) break;
    pos = semi + 1;
  }
  return plan;
}

std::string_view violation_kind(std::string_view violation) {
  return violation.substr(0, violation.find(':'));
}

namespace {

// Does heal-partition `h` heal exactly the cut partition `p` makes?
bool heals(const Action& h, const Action& p) {
  if (h.kind != ActionKind::HealPartition || p.kind != ActionKind::Partition ||
      h.a.empty() || h.directed != p.directed)
    return false;
  return (h.a == p.a && h.b == p.b) ||
         (!p.directed && h.a == p.b && h.b == p.a);
}

// Fault i plus the faults that must go with it: a partition's heals, or a
// heal's partitions.
FaultPlan without(const FaultPlan& plan, size_t i) {
  const Action& dropped = plan.faults[i].action;
  FaultPlan out;
  for (size_t j = 0; j < plan.faults.size(); ++j) {
    const Action& a = plan.faults[j].action;
    if (j == i || heals(a, dropped) || heals(dropped, a)) continue;
    out.faults.push_back(plan.faults[j]);
  }
  return out;
}

}  // namespace

std::string shrink_plan(
    const std::string& plan, std::string_view kind,
    const std::function<std::vector<std::string>(const std::string&)>&
        violations_of) {
  auto parsed = FaultPlan::parse(plan);
  if (!parsed) return plan;
  const auto same_failure = [&](const FaultPlan& cand) {
    const std::vector<std::string> v = violations_of(cand.str());
    if (v.empty() || violation_kind(v.front()) != kind) return false;
    for (const auto& s : v)
      if (violation_kind(s) == "plan error") return false;
    return true;
  };
  FaultPlan cur = *parsed;
  bool shrunk = true;
  while (shrunk && cur.faults.size() > 1) {
    shrunk = false;
    for (size_t i = 0; i < cur.faults.size(); ++i) {
      FaultPlan cand = without(cur, i);
      if (cand.empty()) continue;
      if (same_failure(cand)) {
        cur = std::move(cand);
        shrunk = true;
        break;
      }
    }
  }
  return cur.str();
}

}  // namespace dmv::check
