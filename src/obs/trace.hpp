// Structured tracing against the virtual clock.
//
// A Tracer records nestable spans (name, category, node, txn, attrs) with
// virtual-time start/end stamps, plus zero-duration instant events, and owns
// a CounterRegistry for numeric time series. Spans come in two flavours:
//  - SpanGuard: RAII, for spans that open and close inside one coroutine
//    frame (safe across co_await — the guard lives in the frame).
//  - explicit begin()/end() SpanIds, for spans that cross coroutines (e.g. a
//    scheduler request span opened on dispatch and closed on completion).
//
// One tracer is installed process-wide via set_tracer(); instrumentation
// sites call obs::tracer(), which returns nullptr unless a tracer is both
// installed and enabled — the disabled path is a load and a branch, with no
// allocation. Exporters (Chrome trace JSON, span-stats table) live in
// obs/export.hpp.
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <string_view>
#include <unordered_map>
#include <utility>
#include <vector>

#include "obs/counters.hpp"
#include "sim/time.hpp"

namespace dmv::sim {
class Simulation;
}

namespace dmv::obs {

// Matches net::kNoNode; spans not tied to a cluster node (clients) use it.
inline constexpr uint32_t kNoNode = UINT32_MAX;

enum class Cat : uint8_t {
  Client,       // TPC-W client think/interaction
  Scheduler,    // request routing, admission, tagging
  Txn,          // master/slave transaction execution
  Lock,         // lock-manager waits
  Replication,  // diff, broadcast, ack
  Apply,        // slave pending-mod application, version waits
  Disk,         // WAL, buffer pool
  Migration,    // data migration (page transfer) during reintegration
  Recovery,     // fail-over: election, discard, promote
  Warmup,       // spare activation / cache warm-up markers
  Checkpoint,   // fuzzy checkpointing
  Net,          // message-level events
  Other,
};
inline constexpr size_t kNumCats = size_t(Cat::Other) + 1;

const char* cat_name(Cat c);

// Bitmask helpers for Tracer::set_category_mask().
inline constexpr uint32_t mask_of(Cat c) { return 1u << uint32_t(c); }
inline constexpr uint32_t kAllCats = (1u << kNumCats) - 1;

using SpanId = uint64_t;  // 0 = invalid / dropped

struct Attr {
  const char* key;  // string literal
  std::string value;
};

struct SpanRec {
  const char* name = "";  // string literal
  Cat cat = Cat::Other;
  uint32_t node = kNoNode;
  uint64_t txn = 0;
  sim::Time start = 0;
  sim::Time end = 0;
  std::vector<Attr> attrs;

  sim::Time duration() const { return end - start; }
};

class Tracer {
 public:
  explicit Tracer(sim::Simulation& sim, size_t max_spans = size_t(1) << 21);

  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  void enable() { enabled_ = true; }
  void disable() { enabled_ = false; }
  bool enabled() const { return enabled_; }

  // Restrict recording to the given categories (begin()/instant() of a
  // masked-out category return 0 / no-op). Counters are unaffected.
  void set_category_mask(uint32_t mask) { cat_mask_ = mask; }

  // Open a span. Returns 0 (and counts a drop) past max_spans or for a
  // masked-out category; attr()/end() accept 0 as a no-op.
  SpanId begin(const char* name, Cat cat, uint32_t node = kNoNode,
               uint64_t txn = 0);
  void attr(SpanId id, const char* key, std::string value);
  void end(SpanId id);

  // Zero-duration marker event.
  void instant(const char* name, Cat cat, uint32_t node = kNoNode,
               uint64_t txn = 0);

  // Protocol-point observer: invoked synchronously on every recorded
  // begin() and instant() (after mask/capacity checks). check::run_check
  // hooks fault injection (its FaultExec) onto span names with this —
  // e.g. "kill the support slave when `failover.discard` opens". The
  // observer must not mutate the tracer; scheduling simulation events is
  // the intended use.
  using PointObserver =
      std::function<void(const char* name, Cat cat, uint32_t node)>;
  void set_point_observer(PointObserver fn) { observer_ = std::move(fn); }

  CounterRegistry& counters() { return counters_; }
  const CounterRegistry& counters() const { return counters_; }

  // Export metadata: human-readable node names (Chrome "process_name").
  // Works while disabled so topology registered at setup isn't lost.
  void set_node_name(uint32_t node, std::string name);
  const std::unordered_map<uint32_t, std::string>& node_names() const {
    return node_names_;
  }

  // ---- queries over completed spans ----
  const std::vector<SpanRec>& completed() const { return done_; }
  const SpanRec* find_first(std::string_view name) const;
  const SpanRec* find_last(std::string_view name) const;
  size_t count(std::string_view name) const;
  sim::Time total_duration(std::string_view name) const;

  size_t open_count() const { return open_.size(); }
  // Names of still-open spans, sorted — for span-balance diagnostics (a
  // non-empty list at quiesce means a request or protocol span leaked).
  std::vector<std::string> open_span_names() const;
  size_t dropped() const { return dropped_; }

  sim::Simulation& sim() { return sim_; }
  const sim::Simulation& sim() const { return sim_; }

 private:
  sim::Simulation& sim_;
  bool enabled_ = false;
  uint32_t cat_mask_ = kAllCats;
  size_t max_spans_;
  SpanId next_id_ = 1;
  size_t dropped_ = 0;
  std::unordered_map<SpanId, SpanRec> open_;
  std::vector<SpanRec> done_;
  std::unordered_map<uint32_t, std::string> node_names_;
  CounterRegistry counters_;
  PointObserver observer_;
};

namespace detail {
extern Tracer* g_tracer;
}

// The enabled tracer, or nullptr. This is the hot-path check: a load and a
// (predictable) branch when tracing is off.
inline Tracer* tracer() {
  Tracer* t = detail::g_tracer;
  return (t && t->enabled()) ? t : nullptr;
}

// The installed tracer regardless of enablement — for closing spans that
// were opened before a disable(), and for setup-time metadata.
inline Tracer* installed_tracer() { return detail::g_tracer; }

// Install a tracer (nullptr to uninstall); returns the previous one so
// nested experiments can save/restore.
Tracer* set_tracer(Tracer* t);

// ---- free helpers: no-ops when no enabled tracer is installed ----

inline void instant(const char* name, Cat cat, uint32_t node = kNoNode,
                    uint64_t txn = 0) {
  if (Tracer* t = tracer()) t->instant(name, cat, node, txn);
}

inline void count(const char* name, uint32_t node, double delta = 1) {
  if (Tracer* t = tracer()) t->counters().add(name, node, delta);
}

inline void gauge(const char* name, uint32_t node, double value) {
  if (Tracer* t = tracer()) t->counters().set(name, node, value);
}

// Registers a node name with the installed tracer even while disabled (node
// setup usually happens before the run is enabled for tracing).
inline void name_node(uint32_t node, std::string_view name) {
  if (Tracer* t = installed_tracer()) t->set_node_name(node, std::string(name));
}

// RAII span for the common single-coroutine case. Move-only; done() closes
// early (e.g. before a tail co_await that shouldn't be attributed).
class SpanGuard {
 public:
  SpanGuard(const char* name, Cat cat, uint32_t node = kNoNode,
            uint64_t txn = 0) {
    if (Tracer* t = tracer()) {
      id_ = t->begin(name, cat, node, txn);
      if (id_ != 0) t_ = t;
    }
  }
  SpanGuard(SpanGuard&& o) noexcept
      : t_(std::exchange(o.t_, nullptr)), id_(std::exchange(o.id_, 0)) {}
  SpanGuard& operator=(SpanGuard&& o) noexcept {
    if (this != &o) {
      done();
      t_ = std::exchange(o.t_, nullptr);
      id_ = std::exchange(o.id_, 0);
    }
    return *this;
  }
  SpanGuard(const SpanGuard&) = delete;
  SpanGuard& operator=(const SpanGuard&) = delete;
  ~SpanGuard() { done(); }

  void attr(const char* key, std::string value) {
    if (t_) t_->attr(id_, key, std::move(value));
  }
  // Literal-value overload: no std::string is constructed when the span is
  // inactive, keeping the disabled path allocation-free.
  void attr(const char* key, const char* value) {
    if (t_) t_->attr(id_, key, std::string(value));
  }
  void done() {
    if (t_) {
      t_->end(id_);
      t_ = nullptr;
      id_ = 0;
    }
  }
  bool active() const { return t_ != nullptr; }

 private:
  Tracer* t_ = nullptr;
  SpanId id_ = 0;
};

}  // namespace dmv::obs
