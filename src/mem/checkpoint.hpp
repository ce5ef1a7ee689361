// Fuzzy checkpointing to node-local stable storage (§4.4).
//
// Each node periodically walks its pages and persists (image, version)
// pairs atomically, skipping pages that are X-locked (written but not
// committed). The system never quiesces: pages in one checkpoint carry
// different versions, which is fine because reintegration is page-granular
// — a recovering node offers its per-page checkpoint versions to a support
// slave, which sends back only pages that are newer ("collapsed chains of
// modifications"), plus the still-queued replication stream.
#pragma once

#include <unordered_map>

#include "mem/engine.hpp"

namespace dmv::mem {

// A page image at a version. The image is a copy-on-write handle on the
// table's page: taking a snapshot copies nothing, and the table's next
// write to the page clones it, leaving the snapshot's image as it was.
struct PageSnapshot {
  storage::PageId pid;
  uint64_t version = 0;
  std::shared_ptr<const storage::Page> image;
};

// Stand-in for a node's local disk: survives process restarts (the object
// outlives the MemEngine), with write costs charged by the checkpointer.
class StableStore {
 public:
  void put(const PageSnapshot& snap) { pages_[snap.pid] = snap; }
  const PageSnapshot* get(storage::PageId pid) const {
    auto it = pages_.find(pid);
    return it == pages_.end() ? nullptr : &it->second;
  }
  size_t page_count() const { return pages_.size(); }
  std::map<storage::PageId, uint64_t> page_versions() const {
    std::map<storage::PageId, uint64_t> out;
    for (auto& [pid, snap] : pages_) out[pid] = snap.version;
    return out;
  }
  void clear() { pages_.clear(); }

  template <typename Fn>
  void for_each(Fn&& fn) const {
    for (auto& [pid, snap] : pages_) fn(snap);
  }

 private:
  std::unordered_map<storage::PageId, PageSnapshot, storage::PageIdHash>
      pages_;
};

class Checkpointer {
 public:
  Checkpointer(sim::Simulation& sim, MemEngine& engine, StableStore& store,
               sim::Time period)
      : sim_(sim), engine_(engine), store_(store), period_(period) {}

  // Spawn the periodic checkpoint loop; stops when `alive` turns false.
  void start(std::shared_ptr<bool> alive);

  // One fuzzy pass: flush pages whose version advanced since the last
  // pass, skipping X-locked (uncommitted) pages. Returns pages flushed.
  sim::Task<size_t> checkpoint_once();

  uint64_t passes() const { return passes_; }

 private:
  sim::Task<> loop(std::shared_ptr<bool> alive);

  sim::Simulation& sim_;
  MemEngine& engine_;
  StableStore& store_;
  sim::Time period_;
  uint64_t passes_ = 0;
};

// Reload a restarted node's state from its local checkpoint. Indexes are
// rebuilt from the installed pages; version state is *not* adopted — the
// reintegration protocol (§4.4) brings the node current from a support
// slave and the masters' replication stream.
void restore_from_checkpoint(MemEngine& engine, const StableStore& store);

}  // namespace dmv::mem
