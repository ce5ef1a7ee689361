#include "check/oracle.hpp"

#include <algorithm>
#include <sstream>

#include "net/network.hpp"

namespace dmv::check {
namespace {

std::string fmt_vec(const std::vector<uint64_t>& v) {
  std::string s = "[";
  for (size_t i = 0; i < v.size(); ++i) {
    if (i) s += ",";
    s += std::to_string(v[i]);
  }
  return s + "]";
}

std::string fmt_cells(const std::vector<int64_t>& v) {
  std::string s = "[";
  for (size_t i = 0; i < v.size(); ++i) {
    if (i) s += ",";
    s += std::to_string(v[i]);
  }
  return s + "]";
}

std::string fmt_params(const api::Params& p) {
  std::string s = "{";
  bool first = true;
  for (const auto& [k, v] : p.raw()) {
    if (!first) s += ",";
    first = false;
    s += k + "=";
    if (const auto* i = std::get_if<int64_t>(&v))
      s += std::to_string(*i);
    else if (const auto* d = std::get_if<double>(&v))
      s += std::to_string(*d);
    else
      s += "'" + std::get<std::string>(v) + "'";
  }
  return s + "}";
}

}  // namespace

std::optional<int64_t> StateView::get(storage::TableId t,
                                      int64_t key) const {
  const uint64_t v = t < tag_->size() ? (*tag_)[t] : 0;
  return oracle_->value_at(t, key, v);
}

std::vector<std::pair<int64_t, int64_t>> StateView::scan(
    storage::TableId t) const {
  const uint64_t v = t < tag_->size() ? (*tag_)[t] : 0;
  std::vector<std::pair<int64_t, int64_t>> out;
  if (t >= oracle_->chains_.size()) return out;
  for (const auto& [key, chain] : oracle_->chains_[t]) {
    (void)chain;
    if (auto val = oracle_->value_at(t, key, v))
      out.emplace_back(key, *val);
  }
  return out;
}

Oracle::Oracle(OracleConfig cfg) : cfg_(std::move(cfg)) {
  chains_.resize(cfg_.tables);
  head_.assign(cfg_.tables, 0);
  for (size_t t = 0; t < cfg_.tables && t < cfg_.initial.size(); ++t)
    for (const auto& [key, value] : cfg_.initial[t])
      chains_[t][key].push_back(Entry{0, value});
}

std::optional<int64_t> Oracle::value_at(storage::TableId t, int64_t key,
                                        uint64_t version) const {
  if (t >= chains_.size()) return std::nullopt;
  auto it = chains_[t].find(key);
  if (it == chains_[t].end()) return std::nullopt;
  const Chain& c = it->second;
  // Last entry with entry.version <= version. Duplicated versions (a
  // revert publishing at the current head) resolve to the latest push.
  auto pos = std::upper_bound(
      c.begin(), c.end(), version,
      [](uint64_t v, const Entry& e) { return v < e.version; });
  if (pos == c.begin()) return std::nullopt;
  return std::prev(pos)->value;
}

void Oracle::apply_commit(const CommitEvent& c, Violations* v) {
  ++commits_applied_;
  // ---- at-most-once ----
  if (c.origin != net::kNoNode) {
    const auto key = std::make_pair(c.origin, c.origin_req);
    auto [it, fresh] = committed_.emplace(key, c.db_version);
    if (!fresh) {
      v->add("at-most-once: client " + std::to_string(c.origin) + " req " +
             std::to_string(c.origin_req) + " committed twice (first at " +
             fmt_vec(it->second) + ", again at " + fmt_vec(c.db_version) +
             ") — resubmission was not deduplicated");
    }
  }
  // ---- version-gap: each touched table's stamp extends its chain ----
  std::vector<storage::TableId> touched;
  for (const auto& op : c.ops)
    if (std::find(touched.begin(), touched.end(), op.table) ==
        touched.end())
      touched.push_back(op.table);
  for (storage::TableId t : touched) {
    if (t >= head_.size() || t >= c.db_version.size()) continue;
    const uint64_t stamp = c.db_version[t];
    if (stamp == head_[t]) continue;  // byte-identical revert: no bump
    if (stamp != head_[t] + 1) {
      v->add("version-gap: table " + std::to_string(t) +
             " commit stamped " + std::to_string(stamp) +
             " but the model chain head is " + std::to_string(head_[t]) +
             " — a write-set was lost, reordered, or survived a discard");
    }
    head_[t] = std::max(head_[t], stamp);
  }
  // ---- fold post-images into the chains ----
  for (const auto& op : c.ops) {
    if (op.table >= chains_.size() || op.pk.empty()) continue;
    const int64_t key = std::get<int64_t>(op.pk[0]);
    std::optional<int64_t> value;
    if (op.kind != txn::OpRecord::Kind::Delete && op.row.size() > 1)
      value = std::get<int64_t>(op.row[1]);
    const uint64_t stamp =
        op.table < c.db_version.size() ? c.db_version[op.table] : 0;
    chains_[op.table][key].push_back(Entry{stamp, value});
  }
}

void Oracle::apply_discard(const DiscardEvent& d) {
  for (storage::TableId t : d.tables) {
    if (t >= chains_.size() || t >= d.confirmed.size()) continue;
    const uint64_t keep = d.confirmed[t];
    head_[t] = std::min(head_[t], keep);
    for (auto& [key, chain] : chains_[t]) {
      (void)key;
      while (!chain.empty() && chain.back().version > keep)
        chain.pop_back();
    }
  }
  // A pruned commit may legitimately commit again after resubmission.
  for (auto it = committed_.begin(); it != committed_.end();) {
    bool pruned = false;
    for (storage::TableId t : d.tables)
      if (t < it->second.size() && t < d.confirmed.size() &&
          it->second[t] > d.confirmed[t])
        pruned = true;
    it = pruned ? committed_.erase(it) : std::next(it);
  }
}

void Oracle::check_read(const ReadEvent& r, Violations* v) {
  ++reads_checked_;
  StateView view;
  view.oracle_ = this;
  view.tag_ = &r.tag;
  const std::vector<int64_t> expected =
      cfg_.expect(view, r.proc, r.params);
  if (expected != r.result.values) {
    std::ostringstream os;
    os << "snapshot-mismatch: " << r.proc << fmt_params(r.params)
       << " served by node " << r.node << " tagged " << fmt_vec(r.tag)
       << " observed " << fmt_cells(r.result.values)
       << " but the model at that tag holds " << fmt_cells(expected)
       << " — the read saw a stale, dirty, or torn snapshot";
    v->add(os.str());
  }
}

void Oracle::check_recovered_state(
    const std::map<storage::TableId, std::map<storage::Key, storage::Row>>&
        state,
    const std::vector<uint64_t>& logged, const std::string& who,
    Violations* v, const std::vector<storage::TableId>& tables) const {
  for (storage::TableId t = 0; t < chains_.size(); ++t) {
    if (!tables.empty() &&
        std::find(tables.begin(), tables.end(), t) == tables.end())
      continue;
    const uint64_t vt = t < logged.size() ? logged[t] : 0;
    // The model prefix: every key's value at the logged frontier. Chain
    // entries above vt are commits whose ack never reached a scheduler —
    // they are legitimately absent from the reconstruction.
    std::map<int64_t, int64_t> expect;
    for (const auto& [key, chain] : chains_[t]) {
      (void)chain;
      if (auto val = value_at(t, key, vt)) expect[key] = *val;
    }
    std::map<int64_t, int64_t> got;
    if (auto ts = state.find(t); ts != state.end())
      for (const auto& [k, row] : ts->second) {
        if (k.empty() || !std::holds_alternative<int64_t>(k[0])) continue;
        if (row.size() < 2 || !std::holds_alternative<int64_t>(row[1]))
          continue;
        got[std::get<int64_t>(k[0])] = std::get<int64_t>(row[1]);
      }
    for (const auto& [key, val] : expect) {
      auto it = got.find(key);
      if (it == got.end()) {
        v->add("recovery-mismatch: " + who + " table " + std::to_string(t) +
               " lost row " + std::to_string(key) +
               " — the acked prefix at version " + std::to_string(vt) +
               " holds " + std::to_string(val));
      } else if (it->second != val) {
        v->add("recovery-mismatch: " + who + " table " + std::to_string(t) +
               " row " + std::to_string(key) + " holds " +
               std::to_string(it->second) +
               " but the acked prefix at version " + std::to_string(vt) +
               " holds " + std::to_string(val) +
               " — the reconstructed state is not the sequential prefix up "
               "to the last acked commit");
      }
    }
    for (const auto& [key, val] : got)
      if (!expect.count(key))
        v->add("recovery-mismatch: " + who + " table " + std::to_string(t) +
               " has phantom row " + std::to_string(key) + " = " +
               std::to_string(val) + ", absent from the acked prefix at "
               "version " + std::to_string(vt));
  }
}

void Oracle::check(const std::vector<Event>& events, Violations* v) {
  for (const Event& e : events) {
    if (const auto* c = std::get_if<CommitEvent>(&e))
      apply_commit(*c, v);
    else if (const auto* d = std::get_if<DiscardEvent>(&e))
      apply_discard(*d);
    else if (const auto* r = std::get_if<ReadEvent>(&e))
      check_read(*r, v);
  }
}

}  // namespace dmv::check
