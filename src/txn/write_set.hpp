// Replicated write-sets: per-page byte-range modification encodings.
//
// At pre-commit the master diffs each dirty page against its before-image
// into runs of changed bytes (Figure 2's CreateWriteSet), comparing only
// the regions the transaction saved (see txn::PageUndo). A write-set also
// carries the per-page new version and the full post-commit database
// version vector. Slaves queue PageMods per page and apply them lazily in
// version order (dynamic multiversioning); apply_runs is also the redo path
// for rolling a checkpointed page forward.
//
// Encoding: a run is a header (offset, length) and its bytes. A write-set
// owns two flat buffers, every mod's run headers and every run's bytes,
// both in mod order; each PageMod views its own stretch of them (Runs).
// The diffs append to a RunBuffer, and WriteSetBuilder copies one commit's
// runs into a write-set with exactly sized storage.
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "storage/page.hpp"
#include "storage/table.hpp"
#include "txn/transaction.hpp"

namespace dmv::txn {

// `len` changed bytes at `offset` of a page.
struct RunHeader {
  uint32_t offset = 0;
  uint32_t len = 0;

  bool operator==(const RunHeader&) const = default;
};

// One run as read: where it goes and its bytes.
struct Run {
  uint32_t offset = 0;
  std::span<const std::byte> bytes;
};

// A read-only view of one page's runs: the headers, and their bytes back
// to back in header order from `bytes`. It does not own them.
class Runs {
 public:
  class iterator {
   public:
    iterator(const RunHeader* h, const std::byte* b) : h_(h), b_(b) {}
    Run operator*() const { return {h_->offset, {b_, h_->len}}; }
    iterator& operator++() {
      b_ += h_->len;
      ++h_;
      return *this;
    }
    bool operator==(const iterator& o) const { return h_ == o.h_; }

   private:
    const RunHeader* h_;
    const std::byte* b_;
  };

  Runs() = default;
  Runs(std::span<const RunHeader> headers, const std::byte* bytes)
      : headers_(headers.data()), bytes_(bytes), count_(headers.size()) {}

  size_t size() const { return count_; }
  std::span<const RunHeader> headers() const { return {headers_, count_}; }
  // Bytes of all runs together.
  size_t byte_count() const;
  iterator begin() const { return {headers_, bytes_}; }
  iterator end() const { return {headers_ + count_, nullptr}; }

  // Same runs: the same headers and the same bytes.
  bool operator==(const Runs& o) const;

 private:
  const RunHeader* headers_ = nullptr;
  const std::byte* bytes_ = nullptr;
  size_t count_ = 0;
};

// Runs being built: every header in one buffer and every run's bytes in
// another, in header order. The diffs append to it.
struct RunBuffer {
  std::vector<RunHeader> headers;
  std::vector<std::byte> bytes;

  Runs view() const { return {headers, bytes.data()}; }
  void clear() {
    headers.clear();
    bytes.clear();
  }
  bool operator==(const RunBuffer&) const = default;
};

// All modifications one transaction made to one page.
struct PageMod {
  storage::PageId pid;
  // The per-table version this mod advances the page to.
  uint64_t version = 0;
  // Into the write-set's run buffers (or any RunBuffer that outlives it).
  Runs runs;

  // The replicated size: pid and version, and 8 bytes of header per run
  // plus its bytes.
  size_t byte_size() const {
    return 16 + 8 * runs.size() + runs.byte_count();
  }
};

struct WriteSet {
  WriteSet() = default;
  // The mods view the write-set's own buffers: a copy would view the
  // original's.
  WriteSet(const WriteSet&) = delete;
  WriteSet& operator=(const WriteSet&) = delete;

  uint64_t txn_id = 0;
  std::vector<PageMod> mods;
  // Post-commit database version vector (one entry per table).
  std::vector<uint64_t> db_version;
  // Every mod's runs, mod by mod; each mod's `runs` views its stretch.
  std::vector<RunHeader> run_headers;
  std::vector<std::byte> run_bytes;

  size_t byte_size() const;
};

// A committed write-set is immutable. The master builds it once and every
// holder shares it: the outgoing messages, and each replica's queue of
// pending mods until the last of them is applied or discarded.
using WriteSetPtr = std::shared_ptr<const WriteSet>;

// Builds write-sets one commit at a time: each page's diff appends to
// runs(), add_mod() claims what was appended for one page, and build()
// copies the lot into a write-set whose storage has exactly its size. A
// builder kept for many commits stops allocating for itself, so a
// write-set costs five allocations: itself, its mods, its version vector
// and its two run buffers.
class WriteSetBuilder {
 public:
  RunBuffer& runs() { return runs_; }
  // The runs appended since the last add_mod (or build) become page
  // `pid`'s mod at `version`. Returns false and adds nothing if there are
  // none (a page written and then reverted).
  bool add_mod(storage::PageId pid, uint64_t version);
  // The write-set of the mods added since the last build, still open for
  // its db_version. The builder is then empty.
  std::shared_ptr<WriteSet> build(uint64_t txn_id);

 private:
  struct Staged {
    storage::PageId pid;
    uint64_t version = 0;
    uint32_t header_end = 0;  // one past the mod's last header
  };
  RunBuffer runs_;
  std::vector<Staged> mods_;
};

// `size` bytes of a page from `offset`, as saved at `saved`.
struct SavedRegion {
  size_t offset = 0;
  size_t size = 0;
  const std::byte* saved = nullptr;
};

// The default merge gap of the diffs below.
constexpr size_t kMergeGap = 8;

// Diff a live page against saved regions of it into byte runs, appended to
// `out`; returns the number of runs appended. Runs separated by at most
// `merge_gap` unchanged bytes are merged (fewer, larger runs compress the
// encoding of clustered row updates). The regions ascend without overlap,
// and every byte outside them must be the same in both images: then the
// runs are those of a whole-page diff. They carry the live bytes (they
// turn the saved image into the live page) or, with `restore`, the saved
// ones (they turn the live page back).
size_t diff_regions(const storage::Page& live,
                    std::span<const SavedRegion> regions, bool restore,
                    RunBuffer& out, size_t merge_gap = kMergeGap);

// Diff two whole page images: diff_regions with one region.
size_t diff_pages(const storage::Page& before, const storage::Page& after,
                  RunBuffer& out, size_t merge_gap = kMergeGap);

// Diff the live page against what a transaction saved of it: the page's
// write-set runs at pre-commit, or with `restore` its rollback.
size_t diff_undo(const PageUndo& undo, const storage::Page& live,
                 bool restore, RunBuffer& out);

void apply_runs(storage::Page& target, Runs runs);

// The slots of one page, ascending, in a fixed buffer. Only the first
// size() entries are ever written or read, so the buffer is left
// uninitialized.
class SlotList {
 public:
  size_t size() const { return size_; }
  uint16_t operator[](size_t i) const { return slots_[i]; }
  const uint16_t* begin() const { return slots_; }
  const uint16_t* end() const { return slots_ + size_; }
  void push_back(uint16_t s) { slots_[size_++] = s; }

 private:
  uint16_t slots_[storage::kMaxSlots];
  size_t size_ = 0;
};

// Slots whose bytes or occupancy bit are touched by `runs`, ascending —
// the slots whose index entries may change when the runs are applied.
SlotList affected_slots(Runs runs, size_t row_size, size_t slots_per_page);

// Apply runs to an existing page of a table *with index maintenance*, the
// way replicas apply write-sets and install migrated pages: the index
// entries of the affected slots are recorded before the bytes change, and
// afterwards only the entries whose key bytes or slot occupancy changed are
// dropped and re-added. Free-space bookkeeping is refreshed. Returns the
// number of affected slots (for cost accounting).
size_t apply_runs_indexed(storage::Table& table, storage::PageNo p,
                          Runs runs);

// As apply_runs_indexed, but every affected slot is unindexed before the
// bytes change and re-indexed after. Rollback restores pages this way: a
// master charges index_rotation for the rotations its trees make, so its
// trees must keep the shape this full re-index gives them.
size_t apply_runs_reindex_all(storage::Table& table, storage::PageNo p,
                              Runs runs);

// apply_runs_indexed for a PageMod, creating the page if needed and
// advancing the page's version meta.
size_t apply_mod_indexed(storage::Table& table, const PageMod& mod);

}  // namespace dmv::txn
