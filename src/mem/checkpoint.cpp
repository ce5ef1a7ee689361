#include "mem/checkpoint.hpp"

namespace dmv::mem {

void Checkpointer::start(std::shared_ptr<bool> alive) {
  sim_.spawn(loop(std::move(alive)));
}

sim::Task<> Checkpointer::loop(std::shared_ptr<bool> alive) {
  while (*alive) {
    co_await sim_.delay(period_);
    if (!*alive) break;
    co_await checkpoint_once();
  }
}

sim::Task<size_t> Checkpointer::checkpoint_once() {
  size_t flushed = 0;
  const storage::Database& db = engine_.db();
  for (storage::TableId t = 0; t < db.table_count(); ++t) {
    const storage::Table& tb = db.table(t);
    for (storage::PageNo p = 0; p < tb.page_count(); ++p) {
      const storage::PageId pid{t, p};
      if (engine_.locks().x_locked(pid)) continue;  // dirty: skip (fuzzy)
      const uint64_t ver = tb.meta(p).version;
      const PageSnapshot* prev = store_.get(pid);
      if (prev && prev->version == ver) continue;  // unchanged
      // The (image, version) pair is taken in one simulation step: the
      // per-page flush is atomic, as §4.4 requires.
      store_.put(PageSnapshot{pid, ver, tb.page_handle(p)});
      ++flushed;
      co_await sim_.delay(engine_.costs().checkpoint_page_write);
    }
  }
  ++passes_;
  co_return flushed;
}

void restore_from_checkpoint(MemEngine& engine, const StableStore& store) {
  store.for_each([&](const PageSnapshot& snap) {
    engine.install_page(snap.pid, *snap.image, snap.version);
  });
}

}  // namespace dmv::mem
