#include "check/history.hpp"

#include "core/version.hpp"

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

std::string fmt_value(const storage::Value& v) {
  if (const auto* i = std::get_if<int64_t>(&v)) return std::to_string(*i);
  if (const auto* d = std::get_if<double>(&v)) return std::to_string(*d);
  return "'" + std::get<std::string>(v) + "'";
}

std::string fmt_row(const storage::Row& r) {
  std::string s = "(";
  for (size_t i = 0; i < r.size(); ++i) {
    if (i) s += ",";
    s += fmt_value(r[i]);
  }
  return s + ")";
}

}  // namespace

void Recorder::update_commit(uint32_t node, uint32_t origin,
                             uint64_t origin_req,
                             const std::vector<txn::OpRecord>& ops,
                             const std::vector<uint64_t>& db_version) {
  ++commits_;
  events_.push_back(
      CommitEvent{sim_.now(), node, origin, origin_req, ops, db_version});
}

void Recorder::read_tag(uint32_t scheduler,
                        const std::vector<uint64_t>& tag) {
  auto it = acked_floor_.find(scheduler);
  if (it == acked_floor_.end()) return;  // nothing acked through it yet
  if (!core::covers(tag, it->second)) {
    online_.add("tag-coverage: scheduler " + std::to_string(scheduler) +
                " dispatched a read tagged " + fmt_vec(tag) +
                " below its acked-update floor " + fmt_vec(it->second) +
                " (session order: reads must see acked updates)");
  }
}

void Recorder::read_done(uint32_t scheduler, uint32_t node,
                         const std::string& proc, const api::Params& params,
                         const std::vector<uint64_t>& read_tag,
                         const api::TxnResult& result) {
  events_.push_back(ReadEvent{sim_.now(), scheduler, node, proc, params,
                              read_tag, result});
}

void Recorder::update_ack(uint32_t scheduler,
                          const std::vector<uint64_t>& db_version) {
  auto& floor = acked_floor_[scheduler];
  if (floor.size() < db_version.size()) floor.resize(db_version.size(), 0);
  core::merge_max(floor, db_version);
}

void Recorder::discard(uint32_t scheduler,
                       const std::vector<uint64_t>& confirmed,
                       const std::vector<storage::TableId>& tables) {
  events_.push_back(DiscardEvent{sim_.now(), scheduler, confirmed, tables});
  // The failed class's unconfirmed commits are gone cluster-wide; clamp
  // every scheduler floor so later reads aren't held to acks that were
  // themselves discarded. (Floors only matter per-scheduler, but a discard
  // is a cluster-wide truncation of history.)
  for (auto& [sid, floor] : acked_floor_)
    for (storage::TableId t : tables)
      if (t < floor.size() && floor[t] > confirmed[t])
        floor[t] = confirmed[t];
}

void Recorder::dump(std::ostream& os) const {
  for (const Event& e : events_) {
    if (const auto* c = std::get_if<CommitEvent>(&e)) {
      os << c->t << " commit node=" << c->node << " origin=" << c->origin
         << "/" << c->origin_req << " v=" << fmt_vec(c->db_version);
      for (const auto& op : c->ops) {
        const char* k = op.kind == txn::OpRecord::Kind::Insert   ? "ins"
                        : op.kind == txn::OpRecord::Kind::Update ? "upd"
                                                                 : "del";
        os << " " << k << ":t" << op.table << ":" << fmt_row(op.pk);
        if (!op.row.empty()) os << "=" << fmt_row(op.row);
      }
      os << "\n";
    } else if (const auto* r = std::get_if<ReadEvent>(&e)) {
      os << r->t << " read sched=" << r->scheduler << " node=" << r->node
         << " proc=" << r->proc
         << " tag=" << fmt_vec(r->tag) << " params{";
      bool first = true;
      for (const auto& [k, v] : r->params.raw()) {
        if (!first) os << ",";
        first = false;
        os << k << "=" << fmt_value(v);
      }
      os << "} values=[";
      for (size_t i = 0; i < r->result.values.size(); ++i) {
        if (i) os << ",";
        os << r->result.values[i];
      }
      os << "] rows=" << r->result.rows << "\n";
    } else if (const auto* d = std::get_if<DiscardEvent>(&e)) {
      os << d->t << " discard sched=" << d->scheduler
         << " confirmed=" << fmt_vec(d->confirmed) << " tables=[";
      for (size_t i = 0; i < d->tables.size(); ++i) {
        if (i) os << ",";
        os << d->tables[i];
      }
      os << "]\n";
    }
  }
}

}  // namespace dmv::check
