// Buffer-cache residency model for in-memory nodes.
//
// The paper's in-memory databases mmap the database file; a node whose
// buffer cache is cold pays page faults until its working set is resident.
// That effect is the whole story of the warm-up phases in Figures 4-9, so
// we model it explicitly: an LRU set of resident page ids with a capacity;
// touching a non-resident page charges CostModel::mem_page_fault.
//
// The two spare-backup warm-up techniques map onto this model directly:
// serving 1% of reads touches pages through normal execution, and page-id
// transfer calls touch() without executing anything.
#pragma once

#include <cstdint>

#include "sim/time.hpp"
#include "storage/page.hpp"
#include "util/lru.hpp"

namespace dmv::mem {

class CacheModel {
 public:
  CacheModel(size_t capacity_pages, sim::Time fault_cost)
      : lru_(capacity_pages), fault_cost_(fault_cost) {}

  // Returns the latency charge for accessing this page (0 on hit).
  sim::Time touch(storage::PageId pid) {
    const auto r = lru_.touch(pid);
    if (r.hit) {
      ++hits_;
      return 0;
    }
    ++faults_;
    return fault_cost_;
  }

  // Counts the hit that touch() would return for the page touched last:
  // that page is the most recently used, so a re-touch only counts.
  void repeat_hit() { ++hits_; }

  // Touch without charging (used when modeling prefetch done off the
  // critical path, e.g. page-id warm-up hints processed at idle priority).
  void prefetch(storage::PageId pid) { lru_.touch(pid); }

  bool resident(storage::PageId pid) const { return lru_.contains(pid); }

  size_t resident_pages() const { return lru_.size(); }
  uint64_t hits() const { return hits_; }
  uint64_t faults() const { return faults_; }

  // Most-recently-used page ids, for the paper's page-id-transfer warm-up
  // (an active slave ships its hot set to the spare backup).
  std::vector<storage::PageId> hot_pages(size_t limit) const {
    auto keys = lru_.keys_mru();
    if (keys.size() > limit) keys.resize(limit);
    return keys;
  }

 private:
  util::LruSet<storage::PageId, storage::PageIdCoords> lru_;
  sim::Time fault_cost_;
  uint64_t hits_ = 0;
  uint64_t faults_ = 0;
};

}  // namespace dmv::mem
