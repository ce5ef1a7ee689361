// Buffer pool with LRU replacement and dirty write-back.
//
// Capacity below the working set is what gives the on-disk baseline its
// steady-state page misses; a freshly started (or failed-over) node starts
// empty, producing the multi-minute warm-up ramps of Figure 5(a).
#pragma once

#include <unordered_set>

#include "disk/sim_disk.hpp"
#include "obs/trace.hpp"
#include "storage/page.hpp"
#include "util/lru.hpp"

namespace dmv::disk {

class BufferPool {
 public:
  BufferPool(SimDisk& disk, size_t frames)
      : disk_(disk), lru_(frames) {}

  // Make the page resident (reading it from disk on a miss, writing back a
  // dirty victim if one is evicted).
  sim::Task<> fetch(storage::PageId pid) {
    const auto r = lru_.touch(pid);
    if (r.hit) {
      ++hits_;
      obs::count("bp.hits", trace_node_);
    } else {
      ++misses_;
      obs::count("bp.misses", trace_node_);
      co_await disk_.read_page();
    }
    if (r.evicted) {
      ++evictions_;
      if (dirty_.erase(*r.evicted) > 0) {
        ++writebacks_;
        co_await disk_.write_page();
      }
    }
  }

  // Mark resident without charging (experiment warm start; the paper
  // excludes initial warm-up from measurements).
  void prefill(storage::PageId pid) { lru_.touch(pid); }

  // Caller must have fetched the page in this transaction already.
  void mark_dirty(storage::PageId pid) {
    if (lru_.contains(pid)) dirty_.insert(pid);
  }

  bool resident(storage::PageId pid) const { return lru_.contains(pid); }
  size_t resident_pages() const { return lru_.size(); }
  uint64_t hits() const { return hits_; }
  uint64_t misses() const { return misses_; }
  uint64_t evictions() const { return evictions_; }
  uint64_t writebacks() const { return writebacks_; }
  void set_trace_node(uint32_t node) { trace_node_ = node; }

 private:
  SimDisk& disk_;
  util::LruSet<storage::PageId, storage::PageIdCoords> lru_;
  std::unordered_set<storage::PageId, storage::PageIdHash> dirty_;
  uint64_t hits_ = 0;
  uint64_t misses_ = 0;
  uint64_t evictions_ = 0;
  uint64_t writebacks_ = 0;
  uint32_t trace_node_ = obs::kNoNode;
};

}  // namespace dmv::disk
