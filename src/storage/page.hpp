// Physical pages: the unit of concurrency control, versioning, diffing,
// checkpointing and migration throughout the system (as in the paper).
//
// Layout: a 64-byte slot-occupancy bitmap (up to 512 slots) followed by
// fixed-width row slots. The bitmap lives *inside* the page image so that
// replicating byte diffs also replicates slot allocation exactly.
#pragma once

#include <array>
#include <bit>
#include <cstdint>
#include <cstring>
#include <span>
#include <utility>

#include "util/assert.hpp"

namespace dmv::storage {

constexpr size_t kPageSize = 8192;
constexpr size_t kPageHeader = 64;  // occupancy bitmap, 512 slots max
constexpr size_t kMaxSlots = kPageHeader * 8;

using TableId = uint32_t;

// Page index within one table's page array.
using PageNo = uint32_t;

// Globally unique page identifier.
struct PageId {
  TableId table = 0;
  PageNo page = 0;

  friend auto operator<=>(const PageId&, const PageId&) = default;
};

struct PageIdHash {
  size_t operator()(const PageId& p) const {
    return (size_t(p.table) << 40) ^ p.page;
  }
};

// Dense (table, page) coordinates, for util::LruSet's per-table index.
struct PageIdCoords {
  std::pair<uint32_t, uint32_t> operator()(const PageId& p) const {
    return {p.table, p.page};
  }
};

// Row address within a table.
struct RowId {
  PageNo page = 0;
  uint16_t slot = 0;

  friend auto operator<=>(const RowId&, const RowId&) = default;
};

class Page {
 public:
  Page() { bytes_.fill(std::byte{0}); }

  static size_t slots_per_page(size_t row_size) {
    DMV_ASSERT(row_size > 0 && row_size <= kPageSize - kPageHeader);
    return std::min(kMaxSlots, (kPageSize - kPageHeader) / row_size);
  }

  bool occupied(size_t slot) const {
    DMV_ASSERT(slot < kMaxSlots);
    return (std::to_integer<uint8_t>(bytes_[slot / 8]) >> (slot % 8)) & 1;
  }

  void set_occupied(size_t slot, bool on) {
    DMV_ASSERT(slot < kMaxSlots);
    uint8_t b = std::to_integer<uint8_t>(bytes_[slot / 8]);
    if (on)
      b |= uint8_t(1u << (slot % 8));
    else
      b &= uint8_t(~(1u << (slot % 8)));
    bytes_[slot / 8] = std::byte{b};
  }

  // Occupied slots among the first `nslots`, a bitmap word at a time.
  size_t occupied_count(size_t nslots) const {
    DMV_ASSERT(nslots <= kMaxSlots);
    size_t n = 0;
    for (size_t w = 0; w * 64 < nslots; ++w)
      n += size_t(std::popcount(bitmap_word(w) & word_mask(w, nslots)));
    return n;
  }

  // The lowest free slot below `nslots`, or `nslots` if all are occupied.
  size_t first_free(size_t nslots) const {
    DMV_ASSERT(nslots <= kMaxSlots);
    for (size_t w = 0; w * 64 < nslots; ++w) {
      const uint64_t free = ~bitmap_word(w) & word_mask(w, nslots);
      if (free != 0) return w * 64 + size_t(std::countr_zero(free));
    }
    return nslots;
  }

  std::span<std::byte> slot_bytes(size_t slot, size_t row_size) {
    DMV_ASSERT(kPageHeader + (slot + 1) * row_size <= kPageSize);
    return {bytes_.data() + kPageHeader + slot * row_size, row_size};
  }
  std::span<const std::byte> slot_bytes(size_t slot, size_t row_size) const {
    DMV_ASSERT(kPageHeader + (slot + 1) * row_size <= kPageSize);
    return {bytes_.data() + kPageHeader + slot * row_size, row_size};
  }

  std::span<std::byte> raw() { return bytes_; }
  std::span<const std::byte> raw() const { return bytes_; }

  bool operator==(const Page& o) const {
    return std::memcmp(bytes_.data(), o.bytes_.data(), kPageSize) == 0;
  }

 private:
  // Bitmap word `w`: slot w*64 + i is bit i (slot s is bit s%8 of byte
  // s/8, so the word is the header's eight bytes read little-endian).
  uint64_t bitmap_word(size_t w) const {
    static_assert(std::endian::native == std::endian::little);
    uint64_t word;
    std::memcpy(&word, bytes_.data() + w * 8, 8);
    return word;
  }
  // The bits of word `w` that fall below `nslots`.
  static uint64_t word_mask(size_t w, size_t nslots) {
    const size_t left = nslots - w * 64;
    return left >= 64 ? ~uint64_t{0} : (uint64_t{1} << left) - 1;
  }

  std::array<std::byte, kPageSize> bytes_;
};

// Per-page bookkeeping kept *outside* the page image (not diffed): the
// database version this page was last modified at (master) or brought up to
// (slave). Checkpoints persist (image, version) pairs atomically.
struct PageMeta {
  uint64_t version = 0;
};

}  // namespace dmv::storage
