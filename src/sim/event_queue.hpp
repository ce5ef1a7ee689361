// Pending-event set for the simulation kernel: a binary min-heap ordered
// by (time, seq), so equal-timestamp events run strictly FIFO.
//
// Popping via std::pop_heap + vector::pop_back moves the element out of a
// mutable vector slot, never through priority_queue::top()'s const
// reference.
#pragma once

#include <algorithm>
#include <cstdint>
#include <functional>
#include <vector>

#include "sim/time.hpp"
#include "util/assert.hpp"

namespace dmv::sim {

struct Event {
  Time at;
  uint64_t seq;
  std::function<void()> fn;
};

class EventQueue {
 public:
  void push(Event ev) {
    heap_.push_back(std::move(ev));
    std::push_heap(heap_.begin(), heap_.end(), Later{});
  }

  // Earliest (at, seq) event. Both require !empty().
  Time peek_time() const {
    DMV_ASSERT(!heap_.empty());
    return heap_.front().at;
  }
  Event pop() {
    DMV_ASSERT(!heap_.empty());
    std::pop_heap(heap_.begin(), heap_.end(), Later{});
    Event ev = std::move(heap_.back());
    heap_.pop_back();
    return ev;
  }

  bool empty() const { return heap_.empty(); }
  size_t size() const { return heap_.size(); }

 private:
  struct Later {  // min-heap comparator (std:: heap algorithms are max-)
    bool operator()(const Event& a, const Event& b) const {
      if (a.at != b.at) return a.at > b.at;
      return a.seq > b.seq;
    }
  };

  std::vector<Event> heap_;
};

}  // namespace dmv::sim
