#include "txn/transaction.hpp"

#include <algorithm>

namespace dmv::txn {

void TxnCtx::capture_undo(storage::PageId pid, const storage::Page& page,
                          uint16_t slot, size_t row_size) {
  if (kind_ == TxnKind::ReadOnly) return;
  auto u = std::lower_bound(
      undo_.begin(), undo_.end(), pid,
      [](const PageUndo& a, const storage::PageId& b) { return a.pid < b; });
  if (u == undo_.end() || u->pid != pid) {
    u = undo_.emplace(u);
    u->pid = pid;
    u->row_size = row_size;
    std::copy_n(page.raw().begin(), storage::kPageHeader,
                u->bitmap.begin());
  }
  DMV_ASSERT(u->row_size == row_size);
  const auto at = std::lower_bound(u->slots.begin(), u->slots.end(), slot);
  if (at != u->slots.end() && *at == slot) return;
  const auto bytes = page.slot_bytes(slot, row_size);
  const ptrdiff_t i = at - u->slots.begin();
  u->rows.insert(u->rows.begin() + i * ptrdiff_t(row_size), bytes.begin(),
                 bytes.end());
  u->slots.insert(at, slot);
}

}  // namespace dmv::txn
