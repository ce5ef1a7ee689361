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
#include <vector>

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
    return RowRef(*schema_, images_.data() + i * schema_->row_size());
  }

  void push_back(std::span<const std::byte> image) {
    DMV_ASSERT(schema_ && image.size() == schema_->row_size());
    images_.insert(images_.end(), image.begin(), image.end());
    ++count_;
  }
  // Concatenate the first `n` rows of `other` after these rows. Both must
  // share one schema; an empty Rows without one takes other's.
  void append(const Rows& other, size_t n = SIZE_MAX) {
    n = std::min(n, other.count_);
    if (n == 0) return;
    if (!schema_) schema_ = other.schema_;
    DMV_ASSERT_MSG(schema_ == other.schema_,
                   "concatenating rows of two schemas");
    const auto first = other.images_.begin();
    images_.insert(images_.end(), first,
                   first + std::ptrdiff_t(n * schema_->row_size()));
    count_ += n;
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
  std::shared_ptr<const Schema> schema_;
  std::vector<std::byte> images_;
  size_t count_ = 0;
};

}  // namespace dmv::storage
