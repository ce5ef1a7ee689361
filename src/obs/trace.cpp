#include "obs/trace.hpp"

#include <algorithm>

#include "sim/simulation.hpp"
#include "util/assert.hpp"

namespace dmv::obs {

namespace detail {
Tracer* g_tracer = nullptr;
}

Tracer* set_tracer(Tracer* t) {
  Tracer* prev = detail::g_tracer;
  detail::g_tracer = t;
  return prev;
}

const char* cat_name(Cat c) {
  switch (c) {
    case Cat::Client: return "client";
    case Cat::Scheduler: return "scheduler";
    case Cat::Txn: return "txn";
    case Cat::Lock: return "lock";
    case Cat::Replication: return "replication";
    case Cat::Apply: return "apply";
    case Cat::Disk: return "disk";
    case Cat::Migration: return "migration";
    case Cat::Recovery: return "recovery";
    case Cat::Warmup: return "warmup";
    case Cat::Checkpoint: return "checkpoint";
    case Cat::Net: return "net";
    case Cat::Other: return "other";
  }
  return "other";
}

Tracer::Tracer(sim::Simulation& sim, size_t max_spans)
    : sim_(sim), max_spans_(max_spans), counters_(sim) {}

SpanId Tracer::begin(const char* name, Cat cat, uint32_t node, uint64_t txn) {
  if (!(cat_mask_ & mask_of(cat))) return 0;
  if (done_.size() + open_.size() >= max_spans_) {
    ++dropped_;
    return 0;
  }
  SpanId id = next_id_++;
  SpanRec& rec = open_[id];
  rec.name = name;
  rec.cat = cat;
  rec.node = node;
  rec.txn = txn;
  rec.start = sim_.now();
  if (observer_) observer_(name, cat, node);
  return id;
}

void Tracer::attr(SpanId id, const char* key, std::string value) {
  if (id == 0) return;
  auto it = open_.find(id);
  if (it == open_.end()) return;
  it->second.attrs.push_back(Attr{key, std::move(value)});
}

void Tracer::end(SpanId id) {
  if (id == 0) return;
  auto it = open_.find(id);
  if (it == open_.end()) return;  // double-end is benign
  SpanRec rec = std::move(it->second);
  open_.erase(it);
  rec.end = sim_.now();
  done_.push_back(std::move(rec));
}

void Tracer::instant(const char* name, Cat cat, uint32_t node, uint64_t txn) {
  if (!(cat_mask_ & mask_of(cat))) return;
  if (done_.size() + open_.size() >= max_spans_) {
    ++dropped_;
    return;
  }
  SpanRec rec;
  rec.name = name;
  rec.cat = cat;
  rec.node = node;
  rec.txn = txn;
  rec.start = rec.end = sim_.now();
  done_.push_back(std::move(rec));
  if (observer_) observer_(name, cat, node);
}

std::vector<std::string> Tracer::open_span_names() const {
  std::vector<std::string> names;
  names.reserve(open_.size());
  for (const auto& [id, rec] : open_) names.emplace_back(rec.name);
  std::sort(names.begin(), names.end());
  return names;
}

void Tracer::set_node_name(uint32_t node, std::string name) {
  node_names_[node] = std::move(name);
}

const SpanRec* Tracer::find_first(std::string_view name) const {
  for (const SpanRec& rec : done_)
    if (name == rec.name) return &rec;
  return nullptr;
}

const SpanRec* Tracer::find_last(std::string_view name) const {
  for (auto it = done_.rbegin(); it != done_.rend(); ++it)
    if (name == it->name) return &*it;
  return nullptr;
}

size_t Tracer::count(std::string_view name) const {
  size_t n = 0;
  for (const SpanRec& rec : done_)
    if (name == rec.name) ++n;
  return n;
}

sim::Time Tracer::total_duration(std::string_view name) const {
  sim::Time total = 0;
  for (const SpanRec& rec : done_)
    if (name == rec.name) total += rec.duration();
  return total;
}

}  // namespace dmv::obs
