// Tables: slotted pages + primary/secondary RB-tree indexes.
//
// Table offers *raw* row operations with index maintenance and no
// concurrency control — the transactional engines (mem::Engine,
// disk::Engine) layer locking, undo and write-set capture on top.
//
// Two mutation paths exist, and tests assert they converge byte-for-byte:
//  - logical ops (insert_row/update_row/delete_row), used by masters;
//  - raw byte application (slaves applying replicated page diffs), after
//    which unindex_slot/index_slot/refresh_page_bookkeeping resynchronize
//    the indexes and free-space accounting with the new page image.
#pragma once

#include <memory>
#include <optional>
#include <set>
#include <string>
#include <vector>

#include "storage/key.hpp"
#include "storage/page.hpp"
#include "storage/rbtree.hpp"
#include "storage/rows.hpp"
#include "storage/schema.hpp"

namespace dmv::storage {

class Table {
 public:
  Table(TableId id, std::string name, Schema schema, IndexDef primary,
        std::vector<IndexDef> secondaries = {});
  // An exact copy: page images, metas, free-space set, row count, and
  // index trees of the same shape (RbTree's copy), sharing the immutable
  // schema. The copy's later operations behave byte for byte, rotation
  // for rotation, as the original's would.
  Table(const Table& o);
  Table& operator=(const Table&) = delete;

  TableId id() const { return id_; }
  const std::string& name() const { return name_; }
  const Schema& schema() const { return *schema_; }
  // Shared with every Rows a scan of this table returns.
  const std::shared_ptr<const Schema>& schema_ptr() const { return schema_; }
  size_t slots_per_page() const { return slots_per_page_; }

  // --- logical row operations (master / stand-alone path) ---

  // Where the next insert will land, without side effects. The returned
  // page may not exist yet (fresh page at the end of the table). Engines
  // lock this page *before* calling insert_row.
  RowId peek_insert_slot() const;
  // Fails (nullopt) on primary-key duplicate.
  std::optional<RowId> insert_row(const Row& row);
  void update_row(RowId rid, const Row& row);
  void delete_row(RowId rid);
  Row read_row(RowId rid) const;
  // The row's bytes on its page, as the codec wrote them.
  std::span<const std::byte> row_image(RowId rid) const;
  bool slot_occupied(RowId rid) const;
  size_t row_count() const { return row_count_; }

  // --- index access ---

  std::optional<RowId> pk_find(const Key& key) const {
    return primary_tree_.find(primary_layout_.from_key(key).view());
  }
  size_t secondary_count() const { return secondary_trees_.size(); }
  // Index `index`: -1 is the primary key, else a secondary position.
  // Secondary keys carry the PK appended.
  const RbTree& index_tree(int index) const {
    return const_cast<Table*>(this)->tree(index);
  }
  const KeyLayout& index_layout(int index) const {
    DMV_ASSERT(index < int(secondary_layouts_.size()));
    return index < 0 ? primary_layout_ : secondary_layouts_[size_t(index)];
  }
  // Range scan over index `index` in ascending or, with `reverse`,
  // descending key order; null bounds are open, and `hi` is a prefix
  // bound. Calls fn(std::string_view encoded_key, RowId) until it returns
  // false.
  template <typename Fn>
  void scan(int index, const Key* lo, const Key* hi, bool reverse,
            Fn&& fn) const {
    const KeyLayout& layout = index_layout(index);
    const KeyBuf lo_key = lo ? layout.from_key(*lo) : KeyBuf{};
    const KeyBuf hi_key = hi ? layout.from_key(*hi) : KeyBuf{};
    if (reverse)
      index_tree(index).scan_desc(lo_key.view(), hi_key.view(), fn);
    else
      index_tree(index).scan(lo_key.view(), hi_key.view(), fn);
  }
  const RbTree& primary_tree() const { return primary_tree_; }
  uint64_t index_rotations() const;

  // --- page access (replication / checkpoint / migration path) ---

  size_t page_count() const { return pages_.size(); }
  Page& page(PageNo p);
  const Page& page(PageNo p) const;
  PageMeta& meta(PageNo p);
  const PageMeta& meta(PageNo p) const;
  // Grow the page array so that `p` exists (slaves receiving diffs for
  // fresh pages allocated on the master).
  void ensure_page(PageNo p);

  // Raw-application index maintenance: call unindex before overwriting a
  // slot's bytes, index after. No-ops on unoccupied slots.
  void unindex_slot(PageNo p, uint16_t slot);
  void index_slot(PageNo p, uint16_t slot);
  // Entry-level raw-application maintenance, for callers that know which
  // entries changed (txn::apply_runs_indexed): drop or add one entry of
  // index `index` (as in index_tree()), and count rows that appeared or
  // vanished. The caller keeps entries and count in step with the pages.
  void erase_entry(int index, std::string_view key) {
    tree(index).erase(key);
  }
  void insert_entry(int index, std::string_view key, RowId rid) {
    tree(index).insert(key, rid);
  }
  void add_row_count(ptrdiff_t delta) { row_count_ += size_t(delta); }
  // Recompute free-space accounting for a page after raw byte application.
  void refresh_page_bookkeeping(PageNo p);

  // Drop and rebuild every index and the free list from page contents
  // (after checkpoint restore or bulk page migration).
  void rebuild_indexes();

  // Deep equality of page images (convergence tests).
  bool pages_equal(const Table& other) const;

  Key primary_key_of(const Row& row) const;

 private:
  RbTree& tree(int index) {
    DMV_ASSERT(index < int(secondary_trees_.size()));
    return index < 0 ? primary_tree_ : secondary_trees_[size_t(index)];
  }
  RowId allocate_slot();
  std::span<std::byte> slot_bytes(RowId rid);
  // Add or drop the index entries of the row image in `rid`'s slot.
  void index_image(RowId rid);
  void unindex_image(RowId rid);

  TableId id_;
  std::string name_;
  std::shared_ptr<const Schema> schema_;
  IndexDef primary_def_;
  size_t slots_per_page_;
  // Key layouts: the PK columns, and each secondary's columns followed by
  // the PK columns.
  KeyLayout primary_layout_;
  std::vector<KeyLayout> secondary_layouts_;

  std::vector<std::unique_ptr<Page>> pages_;
  std::vector<PageMeta> metas_;
  std::set<PageNo> pages_with_space_;
  size_t row_count_ = 0;

  RbTree primary_tree_;
  std::vector<RbTree> secondary_trees_;
};

// A database: an ordered set of tables. Table ids are dense and stable, and
// double as positions in the replication version vector.
class Database {
 public:
  Database() = default;
  // Table-by-table exact copies (see Table's copy constructor): how every
  // node of a deployment gets the one generated base image.
  Database(const Database& o);
  Database& operator=(const Database& o) { return *this = Database(o); }
  Database(Database&&) = default;
  Database& operator=(Database&&) = default;

  TableId add_table(std::string name, Schema schema, IndexDef primary,
                    std::vector<IndexDef> secondaries = {});
  Table& table(TableId id);
  const Table& table(TableId id) const;
  size_t table_count() const { return tables_.size(); }

  size_t total_pages() const;
  size_t total_rows() const;

  bool pages_equal(const Database& other) const;

 private:
  std::vector<std::unique_ptr<Table>> tables_;
};

}  // namespace dmv::storage
