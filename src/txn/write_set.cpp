#include "txn/write_set.hpp"

#include <algorithm>
#include <array>
#include <bit>
#include <bitset>
#include <cstring>
#include <memory>

namespace dmv::txn {

size_t PageMod::byte_size() const {
  size_t n = 16;  // pid + version
  for (const auto& r : runs) n += 8 + r.bytes.size();
  return n;
}

size_t WriteSet::byte_size() const {
  size_t n = 8 + 8 * db_version.size();
  for (const auto& m : mods) n += m.byte_size();
  return n;
}

namespace {

// Length of the common prefix of two n-byte stretches. Equal 8-byte words
// are skipped whole; bytes are compared only inside a changed word and in
// the tail.
size_t common_prefix(const std::byte* a, const std::byte* b, size_t n) {
  size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    uint64_t wa, wb;
    std::memcpy(&wa, a + i, 8);
    std::memcpy(&wb, b + i, 8);
    if (wa != wb) break;
  }
  while (i < n && a[i] == b[i]) ++i;
  return i;
}

}  // namespace

std::vector<ByteRun> diff_regions(const storage::Page& live,
                                  std::span<const SavedRegion> regions,
                                  bool restore, size_t merge_gap) {
  const std::byte* now = live.raw().data();
  // First offset >= i where the images differ, or kPageSize. `i` never
  // decreases, so regions before `k` are done with.
  size_t k = 0;
  const auto next_diff = [&](size_t i) {
    for (; k < regions.size(); ++k) {
      const SavedRegion& r = regions[k];
      const size_t lo = std::max(i, r.offset);
      const size_t hi = r.offset + r.size;
      if (lo >= hi) continue;
      const size_t d =
          common_prefix(now + lo, r.saved + (lo - r.offset), hi - lo);
      if (d < hi - lo) return lo + d;
    }
    return storage::kPageSize;
  };
  std::vector<ByteRun> runs;
  size_t i = next_diff(0);
  while (i < storage::kPageSize) {
    // Start of a changed run; extend it through every following change
    // separated from it by at most `merge_gap` unchanged bytes.
    const size_t start = i;
    size_t end = i + 1;
    for (;;) {
      i = next_diff(end);
      if (i == storage::kPageSize || i - end > merge_gap) break;
      end = i + 1;
    }
    ByteRun run;
    run.offset = uint32_t(start);
    run.bytes.assign(now + start, now + end);
    runs.push_back(std::move(run));
  }
  if (restore) {
    // Outside the regions both images agree; inside, take the saved bytes.
    size_t j = 0;
    for (ByteRun& run : runs) {
      const size_t lo = run.offset;
      const size_t hi = lo + run.bytes.size();
      while (j < regions.size() && regions[j].offset + regions[j].size <= lo)
        ++j;
      for (size_t r = j; r < regions.size() && regions[r].offset < hi; ++r) {
        const size_t a = std::max(lo, regions[r].offset);
        const size_t b = std::min(hi, regions[r].offset + regions[r].size);
        std::memcpy(run.bytes.data() + (a - lo),
                    regions[r].saved + (a - regions[r].offset), b - a);
      }
    }
  }
  return runs;
}

std::vector<ByteRun> diff_pages(const storage::Page& before,
                                const storage::Page& after,
                                size_t merge_gap) {
  const SavedRegion whole{0, storage::kPageSize, before.raw().data()};
  return diff_regions(after, {&whole, 1}, false, merge_gap);
}

std::vector<ByteRun> diff_undo(const PageUndo& undo,
                               const storage::Page& live, bool restore) {
  // The bitmap, then the saved slots in ascending order.
  std::vector<SavedRegion> regions;
  regions.reserve(1 + undo.slots.size());
  regions.push_back({0, storage::kPageHeader, undo.bitmap.data()});
  for (size_t i = 0; i < undo.slots.size(); ++i)
    regions.push_back({storage::kPageHeader + undo.slots[i] * undo.row_size,
                       undo.row_size, undo.rows.data() + i * undo.row_size});
  return diff_regions(live, regions, restore);
}

void apply_runs(storage::Page& target, const std::vector<ByteRun>& runs) {
  for (const auto& r : runs) {
    DMV_ASSERT(r.offset + r.bytes.size() <= storage::kPageSize);
    std::memcpy(target.raw().data() + r.offset, r.bytes.data(),
                r.bytes.size());
  }
}

std::vector<uint16_t> affected_slots(const std::vector<ByteRun>& runs,
                                     size_t row_size, size_t slots_per_page) {
  // A fixed bitmap of the page's slots, read out in ascending order.
  std::array<uint64_t, storage::kMaxSlots / 64> bits{};
  const auto mark = [&](size_t lo, size_t hi) {  // slots [lo, hi)
    for (size_t s = lo; s < std::min(hi, slots_per_page); ++s)
      bits[s / 64] |= uint64_t{1} << (s % 64);
  };
  for (const auto& r : runs) {
    const size_t lo = r.offset;
    const size_t hi = r.offset + r.bytes.size();  // exclusive
    // Bitmap bytes touched: every slot whose bit lives in [lo, hi) within
    // the header may have flipped occupancy.
    if (lo < storage::kPageHeader)
      mark(lo * 8, std::min(hi, storage::kPageHeader) * 8);
    // Row bytes touched.
    if (hi > storage::kPageHeader)
      mark((std::max(lo, storage::kPageHeader) - storage::kPageHeader) /
               row_size,
           (hi - storage::kPageHeader + row_size - 1) / row_size);
  }
  std::vector<uint16_t> slots;
  for (size_t w = 0; w < bits.size(); ++w)
    for (uint64_t b = bits[w]; b != 0; b &= b - 1)
      slots.push_back(uint16_t(w * 64 + size_t(std::countr_zero(b))));
  return slots;
}

size_t apply_runs_indexed(storage::Table& table, storage::PageNo p,
                          const std::vector<ByteRun>& runs) {
  const size_t row_size = table.schema().row_size();
  const auto slots = affected_slots(runs, row_size, table.slots_per_page());
  storage::Page& page = table.page(p);
  // Index ids run from -1 (the primary key) to secondary_count() - 1; a
  // slot's keys are kept back to back in that order, `width` bytes in all.
  const int end = int(table.secondary_count());
  DMV_ASSERT(end < 32);  // one bit per index in `insert` below
  size_t width = 0;
  for (int i = -1; i < end; ++i) width += table.index_layout(i).width();
  const auto encode = [&](size_t k, int i, char* out) {
    table.index_layout(i).encode_image(page.slot_bytes(slots[k], row_size),
                                       out);
  };

  // Before: each affected slot's occupancy and keys. The keys stay on the
  // stack unless a whole-page install of many slots needs more room.
  constexpr size_t kStackKeyBytes = 4096;
  char stack_keys[kStackKeyBytes];
  std::unique_ptr<char[]> heap_keys;
  char* keys = stack_keys;
  if (slots.size() * width > kStackKeyBytes) {
    heap_keys = std::make_unique_for_overwrite<char[]>(slots.size() * width);
    keys = heap_keys.get();
  }
  std::bitset<storage::kMaxSlots> was;  // by position in `slots`
  for (size_t k = 0; k < slots.size(); ++k) {
    if (!page.occupied(slots[k])) continue;
    was.set(k);
    char* out = keys + k * width;
    for (int i = -1; i < end; ++i) {
      encode(k, i, out);
      out += table.index_layout(i).width();
    }
  }

  apply_runs(page, runs);

  // After: drop every changed entry before adding any, because a key can
  // move between slots of one page. A changed entry's new key overwrites
  // its old one in `keys`, and its bit in insert[k] marks it to be added.
  uint32_t insert[storage::kMaxSlots] = {};
  ptrdiff_t rows = 0;
  char fresh[storage::kMaxKeyWidth];
  for (size_t k = 0; k < slots.size(); ++k) {
    const bool now = page.occupied(slots[k]);
    if (!was[k] && !now) continue;
    rows += int(now) - int(was[k]);
    char* key = keys + k * width;
    for (int i = -1; i < end; ++i) {
      const size_t w = table.index_layout(i).width();
      if (now) {
        encode(k, i, fresh);
        if (!was[k] || std::memcmp(fresh, key, w) != 0) {
          if (was[k]) table.erase_entry(i, {key, w});
          std::memcpy(key, fresh, w);
          insert[k] |= 1u << (i + 1);
        }
      } else {
        table.erase_entry(i, {key, w});
      }
      key += w;
    }
  }
  for (size_t k = 0; k < slots.size(); ++k) {
    if (insert[k] == 0) continue;
    const char* key = keys + k * width;
    for (int i = -1; i < end; ++i) {
      const size_t w = table.index_layout(i).width();
      if (insert[k] & (1u << (i + 1)))
        table.insert_entry(i, {key, w}, storage::RowId{p, slots[k]});
      key += w;
    }
  }
  table.add_row_count(rows);
  table.refresh_page_bookkeeping(p);
  return slots.size();
}

size_t apply_runs_reindex_all(storage::Table& table, storage::PageNo p,
                              const std::vector<ByteRun>& runs) {
  const auto slots =
      affected_slots(runs, table.schema().row_size(), table.slots_per_page());
  for (uint16_t s : slots) table.unindex_slot(p, s);
  apply_runs(table.page(p), runs);
  for (uint16_t s : slots) table.index_slot(p, s);
  table.refresh_page_bookkeeping(p);
  return slots.size();
}

size_t apply_mod_indexed(storage::Table& table, const PageMod& mod) {
  table.ensure_page(mod.pid.page);
  const size_t slots = apply_runs_indexed(table, mod.pid.page, mod.runs);
  DMV_ASSERT_MSG(mod.version >= table.meta(mod.pid.page).version,
                 "write-set applied out of order");
  table.meta(mod.pid.page).version = mod.version;
  return slots;
}

}  // namespace dmv::txn
