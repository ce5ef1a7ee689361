// Scan results: row images packed back to back.
//
// A scan copies each matching row's fixed-width image out of its page
// into one flat buffer, so reading a result costs no per-row heap
// allocation and no variant decoding. Rows holds the schema it was cut
// with by shared_ptr, so a result outlives the table it came from (and
// any transaction or page change after the scan returned). Columns are
// read through RowRef, which points into the Rows it came from and is
// valid only as long as that Rows is unchanged.
#pragma once

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <memory>
#include <span>
#include <string_view>

#include "storage/schema.hpp"

namespace dmv::storage {

class RowRef {
 public:
  RowRef(const Schema& schema, const std::byte* image)
      : schema_(&schema), image_(image) {}

  int64_t i(size_t col) const {
    DMV_ASSERT(schema_->column(col).type == ColType::Int64);
    int64_t v;
    std::memcpy(&v, at(col), 8);
    return v;
  }
  double d(size_t col) const {
    DMV_ASSERT(schema_->column(col).type == ColType::Double);
    double v;
    std::memcpy(&v, at(col), 8);
    return v;
  }
  // CHAR(n) value: up to the first NUL, at most n bytes.
  std::string_view s(size_t col) const {
    const Column& c = schema_->column(col);
    DMV_ASSERT(c.type == ColType::Chars);
    const char* p = reinterpret_cast<const char*>(at(col));
    const void* nul = std::memchr(p, 0, c.width);
    return {p, nul ? size_t(static_cast<const char*>(nul) - p) : c.width};
  }
  // Decoded copy, for callers that need a Row of values.
  Row row() const { return schema_->decode({image_, schema_->row_size()}); }

 private:
  const std::byte* at(size_t col) const {
    return image_ + schema_->offset(col);
  }
  const Schema* schema_;
  const std::byte* image_;
};

class Rows {
 public:
  Rows() = default;
  explicit Rows(std::shared_ptr<const Schema> schema)
      : schema_(std::move(schema)) {}

  size_t size() const { return count_; }
  bool empty() const { return count_ == 0; }
  RowRef operator[](size_t i) const {
    DMV_ASSERT(i < count_);
    return RowRef(*schema_, images_.get() + i * schema_->row_size());
  }

  // The row images back to back, for byte-exact comparison.
  std::span<const std::byte> bytes() const { return {images_.get(), used_}; }

  // Room for `rows` rows in all, so appends up to that do not reallocate.
  void reserve(size_t rows) { grow_to(rows * schema_->row_size()); }

  void push_back(std::span<const std::byte> image) {
    DMV_ASSERT(schema_ && image.size() == schema_->row_size());
    append_images(image.data(), image.size(), 1);
  }
  // Concatenate the first `n` rows of `other` after these rows. Both must
  // share one schema; an empty Rows without one takes other's.
  void append(const Rows& other, size_t n = SIZE_MAX) {
    n = std::min(n, other.count_);
    if (n == 0) return;
    if (!schema_) schema_ = other.schema_;
    DMV_ASSERT_MSG(schema_ == other.schema_,
                   "concatenating rows of two schemas");
    append_images(other.images_.get(), n * schema_->row_size(), n);
  }

  // For range-for: yields a RowRef per row.
  class iterator {
   public:
    iterator(const Rows* rows, size_t i) : rows_(rows), i_(i) {}
    RowRef operator*() const { return (*rows_)[i_]; }
    iterator& operator++() {
      ++i_;
      return *this;
    }
    bool operator==(const iterator& o) const { return i_ == o.i_; }

   private:
    const Rows* rows_;
    size_t i_;
  };
  iterator begin() const { return {this, 0}; }
  iterator end() const { return {this, count_}; }

 private:
  void append_images(const std::byte* images, size_t bytes, size_t rows) {
    if (used_ + bytes > cap_) grow_to(std::max(2 * cap_, used_ + bytes));
    std::memcpy(images_.get() + used_, images, bytes);
    used_ += bytes;
    count_ += rows;
  }
  void grow_to(size_t bytes) {
    if (bytes <= cap_) return;
    auto next = std::make_unique_for_overwrite<std::byte[]>(bytes);
    if (used_ > 0) std::memcpy(next.get(), images_.get(), used_);
    images_ = std::move(next);
    cap_ = bytes;
  }

  std::shared_ptr<const Schema> schema_;
  // A plain buffer, not a vector: appends copy with one memcpy, and
  // neither reserving nor growing zero-fills bytes about to be written.
  // Rows is move-only as a result.
  std::unique_ptr<std::byte[]> images_;
  size_t used_ = 0;
  size_t cap_ = 0;
  size_t count_ = 0;
};

}  // namespace dmv::storage
