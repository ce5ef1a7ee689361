// Fixed-capacity LRU set, used for buffer-cache residency models and the
// on-disk engine's buffer-pool eviction policy.
#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>
#include <utility>
#include <vector>

#include "util/assert.hpp"

namespace dmv::util {

// Dense coordinates of a key: a group (e.g. a table) and a position in it
// (e.g. a page number), both small and dense. The default serves unsigned
// integral keys, one group.
template <typename K>
struct DenseCoords {
  std::pair<uint32_t, uint32_t> operator()(K k) const {
    return {0, uint32_t(k)};
  }
};

// Tracks the `capacity` most recently touched keys. touch() returns whether
// the key was already resident; when an insertion overflows capacity the
// least recently used key is evicted (and returned so callers can write it
// back, pin-check it, etc.).
//
// Layout: the resident keys live in one vector, doubly linked in MRU order
// by 32-bit positions; a key finds its entry through a per-group vector
// indexed by its position. Neither allocates per entry: the entry vector
// stops growing at capacity (a miss then reuses the victim's entry) and
// the index vectors grow only to the largest position seen.
template <typename K, typename Coords = DenseCoords<K>>
class LruSet {
 public:
  explicit LruSet(size_t capacity) : capacity_(capacity) {
    DMV_ASSERT(capacity > 0 && capacity < kNil);
  }

  struct TouchResult {
    bool hit = false;
    std::optional<K> evicted;
  };

  // Inline for the common case, a re-touch of the MRU key (a scan reading
  // a run of rows on one page): a hit with no other work.
  TouchResult touch(const K& key) {
    if (head_ != kNil && entries_[head_].key == key) return {true, {}};
    return touch_other(key);
  }

  bool contains(const K& key) const {
    const auto [g, p] = Coords{}(key);
    return g < index_.size() && p < index_[g].size() &&
           index_[g][p] != kNil;
  }

  void clear() {
    for (const Entry& en : entries_) slot(en.key) = kNil;
    entries_.clear();
    head_ = tail_ = kNil;
  }

  size_t size() const { return entries_.size(); }

  // Most-recently-used first.
  std::vector<K> keys_mru() const {
    std::vector<K> out;
    out.reserve(entries_.size());
    for (uint32_t e = head_; e != kNil; e = entries_[e].next)
      out.push_back(entries_[e].key);
    return out;
  }

 private:
  static constexpr uint32_t kNil = UINT32_MAX;
  struct Entry {
    K key;
    uint32_t prev;
    uint32_t next;
  };

  TouchResult touch_other(const K& key) {
    TouchResult r;
    const auto [g, p] = Coords{}(key);
    if (g >= index_.size()) index_.resize(size_t(g) + 1);
    std::vector<uint32_t>& group = index_[g];
    if (p >= group.size()) group.resize(size_t(p) + 1, kNil);
    uint32_t e = group[p];
    if (e != kNil) {
      unlink(e);
      push_front(e);
      r.hit = true;
      return r;
    }
    if (entries_.size() < capacity_) {
      e = uint32_t(entries_.size());
      entries_.push_back(Entry{key, kNil, kNil});
    } else {
      e = tail_;
      r.evicted = entries_[e].key;
      slot(entries_[e].key) = kNil;
      unlink(e);
      entries_[e].key = key;
    }
    index_[g][p] = e;
    push_front(e);
    return r;
  }
  // Index cell of a resident key.
  uint32_t& slot(const K& key) {
    const auto [g, p] = Coords{}(key);
    return index_[g][p];
  }
  void unlink(uint32_t e) {
    Entry& en = entries_[e];
    (en.prev == kNil ? head_ : entries_[en.prev].next) = en.next;
    (en.next == kNil ? tail_ : entries_[en.next].prev) = en.prev;
  }
  void push_front(uint32_t e) {
    entries_[e].prev = kNil;
    entries_[e].next = head_;
    (head_ == kNil ? tail_ : entries_[head_].prev) = e;
    head_ = e;
  }

  size_t capacity_;
  std::vector<Entry> entries_;
  std::vector<std::vector<uint32_t>> index_;
  uint32_t head_ = kNil;
  uint32_t tail_ = kNil;
};

}  // namespace dmv::util
