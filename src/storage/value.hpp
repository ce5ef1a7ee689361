// Column values, rows and index keys.
//
// All columns are fixed-width (ints, doubles, CHAR(n)), mirroring the MySQL
// HEAP table format the paper modified: fixed-width rows are what make
// page-level byte diffs and slot arithmetic exact.
#pragma once

#include <cstdint>
#include <string>
#include <variant>
#include <vector>

#include "util/assert.hpp"

namespace dmv::storage {

using Value = std::variant<int64_t, double, std::string>;
using Row = std::vector<Value>;

// A key as callers give it: one value per index column, or fewer for a
// prefix bound. Indexes store keys encoded (storage/key.hpp).
using Key = std::vector<Value>;

}  // namespace dmv::storage
