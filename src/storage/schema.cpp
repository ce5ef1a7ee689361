#include "storage/schema.hpp"

#include <cstring>

namespace dmv::storage {

Schema::Schema(std::vector<Column> cols) : cols_(std::move(cols)) {
  offsets_.reserve(cols_.size());
  for (auto& c : cols_) {
    if (c.type != ColType::Chars) c.width = 8;
    DMV_ASSERT(c.width > 0);
    offsets_.push_back(row_size_);
    row_size_ += c.width;
  }
  DMV_ASSERT(row_size_ > 0);
}

void Schema::encode(const Row& row, std::span<std::byte> out) const {
  DMV_ASSERT(row.size() == cols_.size());
  DMV_ASSERT(out.size() >= row_size_);
  for (size_t i = 0; i < cols_.size(); ++i) {
    std::byte* dst = out.data() + offsets_[i];
    switch (cols_[i].type) {
      case ColType::Int64: {
        const int64_t v = std::get<int64_t>(row[i]);
        std::memcpy(dst, &v, 8);
        break;
      }
      case ColType::Double: {
        const double v = std::get<double>(row[i]);
        std::memcpy(dst, &v, 8);
        break;
      }
      case ColType::Chars: {
        const auto& s = std::get<std::string>(row[i]);
        const size_t n = std::min(s.size(), cols_[i].width);
        std::memcpy(dst, s.data(), n);
        if (n < cols_[i].width) std::memset(dst + n, 0, cols_[i].width - n);
        break;
      }
    }
  }
}

Row Schema::decode(std::span<const std::byte> in) const {
  DMV_ASSERT(in.size() >= row_size_);
  Row row;
  row.reserve(cols_.size());
  for (size_t i = 0; i < cols_.size(); ++i) {
    const std::byte* src = in.data() + offsets_[i];
    switch (cols_[i].type) {
      case ColType::Int64: {
        int64_t v;
        std::memcpy(&v, src, 8);
        row.emplace_back(v);
        break;
      }
      case ColType::Double: {
        double v;
        std::memcpy(&v, src, 8);
        row.emplace_back(v);
        break;
      }
      case ColType::Chars: {
        const char* p = reinterpret_cast<const char*>(src);
        const size_t len = ::strnlen(p, cols_[i].width);
        row.emplace_back(std::string(p, len));
        break;
      }
    }
  }
  return row;
}

Key Schema::extract(std::span<const std::byte> in,
                    const std::vector<size_t>& col_idxs) const {
  Key key;
  key.reserve(col_idxs.size());
  Row full = decode(in);
  for (size_t i : col_idxs) {
    DMV_ASSERT(i < full.size());
    key.push_back(full[i]);
  }
  return key;
}

}  // namespace dmv::storage
