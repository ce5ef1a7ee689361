#include "txn/write_set.hpp"

#include <algorithm>
#include <cstring>
#include <set>

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

// First offset >= i where the pages differ, or kPageSize. Equal 8-byte
// words are skipped whole; bytes are compared only inside a changed word
// and in the tail.
size_t next_diff(const std::byte* a, const std::byte* b, size_t i) {
  for (; i + 8 <= storage::kPageSize; i += 8) {
    uint64_t wa, wb;
    std::memcpy(&wa, a + i, 8);
    std::memcpy(&wb, b + i, 8);
    if (wa != wb) break;
  }
  while (i < storage::kPageSize && a[i] == b[i]) ++i;
  return i;
}

}  // namespace

std::vector<ByteRun> diff_pages(const storage::Page& before,
                                const storage::Page& after,
                                size_t merge_gap) {
  std::vector<ByteRun> runs;
  const std::byte* a = before.raw().data();
  const std::byte* b = after.raw().data();
  size_t i = next_diff(a, b, 0);
  while (i < storage::kPageSize) {
    // Start of a changed run; extend it through every following change
    // separated from it by at most `merge_gap` unchanged bytes.
    const size_t start = i;
    size_t end = i + 1;
    for (;;) {
      i = next_diff(a, b, end);
      if (i == storage::kPageSize || i - end > merge_gap) break;
      end = i + 1;
    }
    ByteRun run;
    run.offset = uint32_t(start);
    run.bytes.assign(b + start, b + end);
    runs.push_back(std::move(run));
  }
  return runs;
}

void apply_runs(storage::Page& target, const std::vector<ByteRun>& runs) {
  for (const auto& r : runs) {
    DMV_ASSERT(r.offset + r.bytes.size() <= storage::kPageSize);
    std::memcpy(target.raw().data() + r.offset, r.bytes.data(),
                r.bytes.size());
  }
}

std::vector<uint16_t> PageMod::affected_slots(size_t row_size,
                                              size_t slots_per_page) const {
  std::set<uint16_t> slots;
  for (const auto& r : runs) {
    const size_t lo = r.offset;
    const size_t hi = r.offset + r.bytes.size();  // exclusive
    // Bitmap bytes touched: every slot whose bit lives in [lo, hi) within
    // the header may have flipped occupancy.
    if (lo < storage::kPageHeader) {
      const size_t bm_lo = lo;
      const size_t bm_hi = std::min(hi, storage::kPageHeader);
      for (size_t byte = bm_lo; byte < bm_hi; ++byte)
        for (size_t bit = 0; bit < 8; ++bit) {
          const size_t slot = byte * 8 + bit;
          if (slot < slots_per_page) slots.insert(uint16_t(slot));
        }
    }
    // Row bytes touched.
    if (hi > storage::kPageHeader) {
      const size_t row_lo =
          (std::max(lo, storage::kPageHeader) - storage::kPageHeader) /
          row_size;
      const size_t row_hi =
          (hi - storage::kPageHeader + row_size - 1) / row_size;
      for (size_t s = row_lo; s < std::min(row_hi, slots_per_page); ++s)
        slots.insert(uint16_t(s));
    }
  }
  return {slots.begin(), slots.end()};
}

size_t apply_mod_indexed(storage::Table& table, const PageMod& mod) {
  table.ensure_page(mod.pid.page);
  const auto slots =
      mod.affected_slots(table.schema().row_size(), table.slots_per_page());
  for (uint16_t s : slots) table.unindex_slot(mod.pid.page, s);
  apply_runs(table.page(mod.pid.page), mod.runs);
  for (uint16_t s : slots) table.index_slot(mod.pid.page, s);
  table.refresh_page_bookkeeping(mod.pid.page);
  DMV_ASSERT_MSG(mod.version >= table.meta(mod.pid.page).version,
                 "write-set applied out of order");
  table.meta(mod.pid.page).version = mod.version;
  return slots.size();
}

}  // namespace dmv::txn
