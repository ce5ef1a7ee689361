#include "txn/write_set.hpp"

#include <algorithm>
#include <array>
#include <bit>
#include <bitset>
#include <cstring>
#include <memory>

namespace dmv::txn {

size_t Runs::byte_count() const {
  size_t n = 0;
  for (const RunHeader& h : headers()) n += h.len;
  return n;
}

bool Runs::operator==(const Runs& o) const {
  if (!std::ranges::equal(headers(), o.headers())) return false;
  const size_t n = byte_count();
  return n == 0 || std::memcmp(bytes_, o.bytes_, n) == 0;
}

size_t WriteSet::byte_size() const {
  size_t n = 8 + 8 * db_version.size();
  for (const auto& m : mods) n += m.byte_size();
  return n;
}

bool WriteSetBuilder::add_mod(storage::PageId pid, uint64_t version) {
  const uint32_t end = uint32_t(runs_.headers.size());
  if (end == (mods_.empty() ? 0 : mods_.back().header_end)) return false;
  mods_.push_back({pid, version, end});
  return true;
}

std::shared_ptr<WriteSet> WriteSetBuilder::build(uint64_t txn_id) {
  DMV_ASSERT(runs_.headers.size() ==
             (mods_.empty() ? 0 : mods_.back().header_end));
  auto ws = std::make_shared<WriteSet>();
  ws->txn_id = txn_id;
  ws->run_headers.assign(runs_.headers.begin(), runs_.headers.end());
  ws->run_bytes.assign(runs_.bytes.begin(), runs_.bytes.end());
  ws->mods.reserve(mods_.size());
  const RunHeader* h = ws->run_headers.data();
  const std::byte* b = ws->run_bytes.data();
  uint32_t first = 0;
  for (const Staged& m : mods_) {
    const Runs runs({h + first, h + m.header_end}, b);
    ws->mods.push_back({m.pid, m.version, runs});
    b += runs.byte_count();
    first = m.header_end;
  }
  runs_.clear();
  mods_.clear();
  return ws;
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

// The saved regions of a PageUndo, computed as they are read: the bitmap,
// then the saved slots in ascending order.
class UndoRegions {
 public:
  explicit UndoRegions(const PageUndo& undo) : undo_(undo) {}
  size_t size() const { return 1 + undo_.slots.size(); }
  SavedRegion operator[](size_t k) const {
    if (k == 0) return {0, storage::kPageHeader, undo_.bitmap.data()};
    const size_t i = k - 1;
    return {storage::kPageHeader + undo_.slots[i] * undo_.row_size,
            undo_.row_size, undo_.rows.data() + i * undo_.row_size};
  }

 private:
  const PageUndo& undo_;
};

// diff_regions over any ascending sequence of regions with size() and
// operator[] (by value).
template <typename Regions>
size_t diff_into(const storage::Page& live, const Regions& regions,
                 bool restore, RunBuffer& out, size_t merge_gap) {
  const std::byte* now = live.raw().data();
  // First offset >= i where the images differ, or kPageSize. `i` never
  // decreases, so regions before `k` are done with.
  size_t k = 0;
  const auto next_diff = [&](size_t i) {
    for (; k < regions.size(); ++k) {
      const SavedRegion r = regions[k];
      const size_t lo = std::max(i, r.offset);
      const size_t hi = r.offset + r.size;
      if (lo >= hi) continue;
      const size_t d =
          common_prefix(now + lo, r.saved + (lo - r.offset), hi - lo);
      if (d < hi - lo) return lo + d;
    }
    return storage::kPageSize;
  };
  const size_t first_header = out.headers.size();
  const size_t first_byte = out.bytes.size();
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
    out.headers.push_back({uint32_t(start), uint32_t(end - start)});
    out.bytes.insert(out.bytes.end(), now + start, now + end);
  }
  if (restore) {
    // Outside the regions both images agree; inside, take the saved bytes.
    size_t j = 0;
    std::byte* bytes = out.bytes.data() + first_byte;
    for (size_t h = first_header; h < out.headers.size(); ++h) {
      const size_t lo = out.headers[h].offset;
      const size_t hi = lo + out.headers[h].len;
      while (j < regions.size() &&
             regions[j].offset + regions[j].size <= lo)
        ++j;
      for (size_t r = j; r < regions.size(); ++r) {
        const SavedRegion reg = regions[r];
        if (reg.offset >= hi) break;
        const size_t a = std::max(lo, reg.offset);
        const size_t b = std::min(hi, reg.offset + reg.size);
        std::memcpy(bytes + (a - lo), reg.saved + (a - reg.offset), b - a);
      }
      bytes += hi - lo;
    }
  }
  return out.headers.size() - first_header;
}

}  // namespace

size_t diff_regions(const storage::Page& live,
                    std::span<const SavedRegion> regions, bool restore,
                    RunBuffer& out, size_t merge_gap) {
  return diff_into(live, regions, restore, out, merge_gap);
}

size_t diff_pages(const storage::Page& before, const storage::Page& after,
                  RunBuffer& out, size_t merge_gap) {
  const SavedRegion whole{0, storage::kPageSize, before.raw().data()};
  return diff_regions(after, {&whole, 1}, false, out, merge_gap);
}

size_t diff_undo(const PageUndo& undo, const storage::Page& live,
                 bool restore, RunBuffer& out) {
  return diff_into(live, UndoRegions(undo), restore, out, kMergeGap);
}

void apply_runs(storage::Page& target, Runs runs) {
  for (const Run r : runs) {
    DMV_ASSERT(r.offset + r.bytes.size() <= storage::kPageSize);
    std::memcpy(target.raw().data() + r.offset, r.bytes.data(),
                r.bytes.size());
  }
}

SlotList affected_slots(Runs runs, size_t row_size, size_t slots_per_page) {
  // A fixed bitmap of the page's slots, read out in ascending order.
  std::array<uint64_t, storage::kMaxSlots / 64> bits{};
  const auto mark = [&](size_t lo, size_t hi) {  // slots [lo, hi)
    for (size_t s = lo; s < std::min(hi, slots_per_page); ++s)
      bits[s / 64] |= uint64_t{1} << (s % 64);
  };
  for (const RunHeader& r : runs.headers()) {
    const size_t lo = r.offset;
    const size_t hi = r.offset + r.len;  // exclusive
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
  SlotList slots;
  for (size_t w = 0; w < bits.size(); ++w)
    for (uint64_t b = bits[w]; b != 0; b &= b - 1)
      slots.push_back(uint16_t(w * 64 + size_t(std::countr_zero(b))));
  return slots;
}

size_t apply_runs_indexed(storage::Table& table, storage::PageNo p,
                          Runs runs) {
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
                              Runs runs) {
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
