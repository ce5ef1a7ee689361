#include "storage/key.hpp"

#include <bit>
#include <cstring>

namespace dmv::storage {

namespace {

void put_be64(uint64_t u, char* out) {
  if constexpr (std::endian::native == std::endian::little)
    u = __builtin_bswap64(u);
  std::memcpy(out, &u, 8);
}

constexpr uint64_t kSign = uint64_t{1} << 63;

}  // namespace

void encode_int(int64_t v, char* out) { put_be64(uint64_t(v) ^ kSign, out); }

void encode_double(double v, char* out) {
  if (v == 0.0) v = 0.0;  // -0.0 == +0.0 in value order
  const uint64_t bits = std::bit_cast<uint64_t>(v);
  put_be64(bits & kSign ? ~bits : bits ^ kSign, out);
}

void encode_chars(std::string_view s, size_t width, char* out) {
  size_t n = s.size() < width ? s.size() : width;
  if (const void* nul = std::memchr(s.data(), 0, n))
    n = size_t(static_cast<const char*>(nul) - s.data());
  std::memcpy(out, s.data(), n);
  std::memset(out + n, 0, width - n);
}

KeyLayout::KeyLayout(const Schema& schema, const std::vector<size_t>& cols)
    : cols_(cols) {
  for (size_t c : cols) {
    DMV_ASSERT(c < schema.column_count());
    const Column& col = schema.column(c);
    fields_.push_back(Field{col.type, col.width, schema.offset(c)});
    width_ += col.width;
  }
  DMV_ASSERT_MSG(width_ <= kMaxKeyWidth, "index key of " << width_
                                                         << " bytes");
}

KeyBuf KeyLayout::from_image(std::span<const std::byte> slot) const {
  KeyBuf k;
  encode_image(slot, k.data_);
  k.size_ = width_;
  return k;
}

void KeyLayout::encode_image(std::span<const std::byte> slot,
                             char* out) const {
  for (const Field& f : fields_) {
    const char* src = reinterpret_cast<const char*>(slot.data()) + f.offset;
    switch (f.type) {
      case ColType::Int64: {
        int64_t v;
        std::memcpy(&v, src, 8);
        encode_int(v, out);
        break;
      }
      case ColType::Double: {
        double v;
        std::memcpy(&v, src, 8);
        encode_double(v, out);
        break;
      }
      case ColType::Chars:
        encode_chars(std::string_view(src, f.width), f.width, out);
        break;
    }
    out += f.width;
  }
}

namespace {

void encode_value(ColType type, size_t width, const Value& v, char* out) {
  switch (type) {
    case ColType::Int64:
      DMV_ASSERT_MSG(std::holds_alternative<int64_t>(v),
                     "key value is not an int");
      encode_int(std::get<int64_t>(v), out);
      break;
    case ColType::Double:
      DMV_ASSERT_MSG(std::holds_alternative<double>(v),
                     "key value is not a double");
      encode_double(std::get<double>(v), out);
      break;
    case ColType::Chars:
      DMV_ASSERT_MSG(std::holds_alternative<std::string>(v),
                     "key value is not a string");
      encode_chars(std::get<std::string>(v), width, out);
      break;
  }
}

}  // namespace

KeyBuf KeyLayout::from_row(const Row& row) const {
  KeyBuf k;
  for (size_t i = 0; i < fields_.size(); ++i) {
    const Field& f = fields_[i];
    encode_value(f.type, f.width, row[cols_[i]], k.data_ + k.size_);
    k.size_ += f.width;
  }
  return k;
}

KeyBuf KeyLayout::from_key(const Key& key) const {
  DMV_ASSERT_MSG(key.size() <= fields_.size(),
                 "key of " << key.size() << " values for an index of "
                           << fields_.size() << " columns");
  KeyBuf k;
  for (size_t i = 0; i < key.size(); ++i) {
    encode_value(fields_[i].type, fields_[i].width, key[i],
                 k.data_ + k.size_);
    k.size_ += fields_[i].width;
  }
  return k;
}

}  // namespace dmv::storage
