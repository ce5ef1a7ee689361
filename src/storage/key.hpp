// Encoded index keys.
//
// An index key is stored as the concatenation of its columns' byte
// encodings, chosen so that memcmp order equals value order:
//  - int64: big-endian with the sign bit flipped;
//  - double: big-endian IEEE bits, all flipped for negatives and only the
//    sign flipped otherwise, with -0.0 canonicalised to +0.0;
//  - CHAR(n): the bytes up to the first NUL and at most n of them,
//    zero-padded to n — exactly what the row codec stores and decodes.
// Every key of one index has the same width, so the RB-tree compares
// keys in one bytewise pass with no per-column dispatch. A shorter key is a
// prefix of whole columns: as a lower bound it sorts before every key it
// prefixes, and as an upper bound it admits them (a prefix bound).
#pragma once

#include <cstddef>
#include <span>
#include <string_view>
#include <vector>

#include "storage/schema.hpp"

namespace dmv::storage {

// Widest encoded key an index may have.
inline constexpr size_t kMaxKeyWidth = 256;

// One encoded key, built on the stack: index maintenance and lookups
// build keys without touching the heap.
class KeyBuf {
 public:
  KeyBuf() {}  // an empty key; the buffer is left uninitialised
  std::string_view view() const { return {data_, size_}; }
  size_t size() const { return size_; }

 private:
  friend class KeyLayout;
  char data_[kMaxKeyWidth];
  size_t size_ = 0;
};

// How one index's key is laid out: which row columns, in which order.
// Builds encoded keys from stored row images, from Rows, and from API
// Keys (whose values may be a prefix of the index's columns).
class KeyLayout {
 public:
  KeyLayout(const Schema& schema, const std::vector<size_t>& cols);

  // Encoded width of a full key.
  size_t width() const { return width_; }
  // The row columns the key is made of, in key order.
  const std::vector<size_t>& cols() const { return cols_; }

  // Key of the row image `slot` (row_size() bytes as the codec wrote it).
  KeyBuf from_image(std::span<const std::byte> slot) const;
  // The same key, written as width() bytes at `out`.
  void encode_image(std::span<const std::byte> slot, char* out) const;
  KeyBuf from_row(const Row& row) const;
  // Key of the first key.size() columns (a full key or a prefix bound).
  KeyBuf from_key(const Key& key) const;

 private:
  struct Field {
    ColType type;
    size_t width;   // encoded and stored width
    size_t offset;  // in the row image
  };
  std::vector<Field> fields_;
  std::vector<size_t> cols_;
  size_t width_ = 0;
};

// Column encoders; `out` receives exactly the column's width.
void encode_int(int64_t v, char* out);
void encode_double(double v, char* out);
// Up to the first NUL and at most `width` bytes of s, zero-padded.
void encode_chars(std::string_view s, size_t width, char* out);

}  // namespace dmv::storage
