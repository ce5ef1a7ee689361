// Pending-event heap for the simulation kernel: a binary min-heap ordered
// by (time, seq), so equal-timestamp events run strictly FIFO.
//
// An entry is three words and trivially copyable. Its payload is one
// tagged word (see Simulation): the address of a suspended coroutine to
// resume, the address of an Action node with bit 1 set, or, with the low
// bit set, the index of a closure slot owned by the Simulation. Sifting
// the heap therefore moves no std::function and allocates nothing beyond
// the vector's own growth.
#pragma once

#include <algorithm>
#include <cstdint>
#include <type_traits>
#include <vector>

#include "sim/time.hpp"
#include "util/assert.hpp"

namespace dmv::sim {

struct Event {
  Time at;
  uint64_t seq;
  uintptr_t what;  // coroutine, Action | 2, or (closure slot << 1) | 1
};
static_assert(std::is_trivially_copyable_v<Event>);

class EventQueue {
 public:
  void push(Event ev) {
    heap_.push_back(ev);
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
    const Event ev = heap_.back();
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
