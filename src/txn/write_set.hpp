// Replicated write-sets: per-page byte-range modification encodings.
//
// At pre-commit the master diffs each dirty page against its before-image
// into runs of changed bytes (Figure 2's CreateWriteSet), comparing only
// the regions the transaction saved (see txn::PageUndo). A write-set also
// carries the per-page new version and the full post-commit database
// version vector. Slaves queue PageMods per page and apply them lazily in
// version order (dynamic multiversioning); apply_runs is also the redo path
// for rolling a checkpointed page forward.
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "storage/page.hpp"
#include "storage/table.hpp"
#include "txn/transaction.hpp"

namespace dmv::txn {

struct ByteRun {
  uint32_t offset = 0;
  std::vector<std::byte> bytes;

  bool operator==(const ByteRun&) const = default;
};

// All modifications one transaction made to one page.
struct PageMod {
  storage::PageId pid;
  // The per-table version this mod advances the page to.
  uint64_t version = 0;
  std::vector<ByteRun> runs;

  size_t byte_size() const;
};

struct WriteSet {
  uint64_t txn_id = 0;
  std::vector<PageMod> mods;
  // Post-commit database version vector (one entry per table).
  std::vector<uint64_t> db_version;

  size_t byte_size() const;
};

// A committed write-set is immutable. The master builds it once and every
// holder shares it: the outgoing messages, and each replica's queue of
// pending mods until the last of them is applied or discarded.
using WriteSetPtr = std::shared_ptr<const WriteSet>;

// `size` bytes of a page from `offset`, as saved at `saved`.
struct SavedRegion {
  size_t offset = 0;
  size_t size = 0;
  const std::byte* saved = nullptr;
};

// Diff a live page against saved regions of it into byte runs. Runs
// separated by at most `merge_gap` unchanged bytes are merged (fewer,
// larger runs compress the encoding of clustered row updates). The
// regions ascend without overlap, and every byte outside them must be the
// same in both images: then the runs are those of a whole-page diff. They
// carry the live bytes (they turn the saved image into the live page) or,
// with `restore`, the saved ones (they turn the live page back).
std::vector<ByteRun> diff_regions(const storage::Page& live,
                                  std::span<const SavedRegion> regions,
                                  bool restore, size_t merge_gap = 8);

// Diff two whole page images: diff_regions with one region.
std::vector<ByteRun> diff_pages(const storage::Page& before,
                                const storage::Page& after,
                                size_t merge_gap = 8);

// Diff the live page against what a transaction saved of it: the page's
// write-set runs at pre-commit, or with `restore` its rollback.
std::vector<ByteRun> diff_undo(const PageUndo& undo,
                               const storage::Page& live, bool restore);

void apply_runs(storage::Page& target, const std::vector<ByteRun>& runs);

// Slots whose bytes or occupancy bit are touched by `runs`, ascending —
// the slots whose index entries may change when the runs are applied.
std::vector<uint16_t> affected_slots(const std::vector<ByteRun>& runs,
                                     size_t row_size, size_t slots_per_page);

// Apply runs to an existing page of a table *with index maintenance*, the
// way replicas apply write-sets and install migrated pages: the index
// entries of the affected slots are recorded before the bytes change, and
// afterwards only the entries whose key bytes or slot occupancy changed are
// dropped and re-added. Free-space bookkeeping is refreshed. Returns the
// number of affected slots (for cost accounting).
size_t apply_runs_indexed(storage::Table& table, storage::PageNo p,
                          const std::vector<ByteRun>& runs);

// As apply_runs_indexed, but every affected slot is unindexed before the
// bytes change and re-indexed after. Rollback restores pages this way: a
// master charges index_rotation for the rotations its trees make, so its
// trees must keep the shape this full re-index gives them.
size_t apply_runs_reindex_all(storage::Table& table, storage::PageNo p,
                              const std::vector<ByteRun>& runs);

// apply_runs_indexed for a PageMod, creating the page if needed and
// advancing the page's version meta.
size_t apply_mod_indexed(storage::Table& table, const PageMod& mod);

}  // namespace dmv::txn
