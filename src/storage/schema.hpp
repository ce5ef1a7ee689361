// Table schemas and the fixed-width row codec.
#pragma once

#include <cstddef>
#include <span>
#include <string>
#include <vector>

#include "storage/value.hpp"

namespace dmv::storage {

enum class ColType { Int64, Double, Chars };

struct Column {
  std::string name;
  ColType type = ColType::Int64;
  size_t width = 8;  // bytes on the page; fixed 8 for Int64/Double
};

inline Column int_col(std::string name) {
  return Column{std::move(name), ColType::Int64, 8};
}
inline Column double_col(std::string name) {
  return Column{std::move(name), ColType::Double, 8};
}
inline Column char_col(std::string name, size_t width) {
  return Column{std::move(name), ColType::Chars, width};
}

class Schema {
 public:
  Schema() = default;
  explicit Schema(std::vector<Column> cols);

  size_t row_size() const { return row_size_; }
  size_t column_count() const { return cols_.size(); }
  const Column& column(size_t i) const { return cols_[i]; }
  size_t offset(size_t i) const { return offsets_[i]; }

  // Serialize `row` into a row-sized buffer / parse it back.
  void encode(const Row& row, std::span<std::byte> out) const;
  Row decode(std::span<const std::byte> in) const;

  // Extract the given columns from an encoded row without full decode.
  Key extract(std::span<const std::byte> in,
              const std::vector<size_t>& col_idxs) const;

 private:
  std::vector<Column> cols_;
  std::vector<size_t> offsets_;
  size_t row_size_ = 0;
};

// Index definition: the indexed column positions. Secondary (non-unique)
// indexes get the primary key appended internally to make entries unique.
struct IndexDef {
  std::string name;
  std::vector<size_t> cols;
  bool unique = false;
};

}  // namespace dmv::storage
