#include "storage/table.hpp"

#include <algorithm>

namespace dmv::storage {

Table::Table(TableId id, std::string name, Schema schema, IndexDef primary,
             std::vector<IndexDef> secondaries)
    : id_(id),
      name_(std::move(name)),
      schema_(std::make_shared<const Schema>(std::move(schema))),
      primary_def_(std::move(primary)),
      slots_per_page_(Page::slots_per_page(schema_->row_size())),
      primary_layout_(*schema_, primary_def_.cols),
      primary_tree_(primary_layout_.width()) {
  DMV_ASSERT_MSG(!primary_def_.cols.empty(),
                 "table " << name_ << " needs a primary key");
  primary_def_.unique = true;
  secondary_layouts_.reserve(secondaries.size());
  secondary_trees_.reserve(secondaries.size());
  for (const IndexDef& def : secondaries) {
    // Append the PK so entries are unique even for non-unique values.
    std::vector<size_t> cols = def.cols;
    cols.insert(cols.end(), primary_def_.cols.begin(), primary_def_.cols.end());
    secondary_layouts_.emplace_back(*schema_, cols);
    secondary_trees_.emplace_back(secondary_layouts_.back().width());
  }
}

Table::Table(const Table& o)
    : id_(o.id_),
      name_(o.name_),
      schema_(o.schema_),
      primary_def_(o.primary_def_),
      slots_per_page_(o.slots_per_page_),
      primary_layout_(o.primary_layout_),
      secondary_layouts_(o.secondary_layouts_),
      metas_(o.metas_),
      pages_with_space_(o.pages_with_space_),
      row_count_(o.row_count_),
      primary_tree_(o.primary_tree_),
      secondary_trees_(o.secondary_trees_) {
  pages_.reserve(o.pages_.size());
  for (const auto& p : o.pages_) pages_.push_back(std::make_unique<Page>(*p));
}

Key Table::primary_key_of(const Row& row) const {
  Key k;
  k.reserve(primary_def_.cols.size());
  for (size_t c : primary_def_.cols) k.push_back(row[c]);
  return k;
}

uint64_t Table::index_rotations() const {
  uint64_t r = primary_tree_.rotations();
  for (const RbTree& t : secondary_trees_) r += t.rotations();
  return r;
}

Page& Table::page(PageNo p) {
  DMV_ASSERT(p < pages_.size());
  return *pages_[p];
}
const Page& Table::page(PageNo p) const {
  DMV_ASSERT(p < pages_.size());
  return *pages_[p];
}
PageMeta& Table::meta(PageNo p) {
  DMV_ASSERT_MSG(p < metas_.size(), "meta " << name_ << " page " << p
                                            << " of " << metas_.size());
  return metas_[p];
}
const PageMeta& Table::meta(PageNo p) const {
  DMV_ASSERT(p < metas_.size());
  return metas_[p];
}

void Table::ensure_page(PageNo p) {
  while (pages_.size() <= p) {
    pages_.push_back(std::make_unique<Page>());
    metas_.push_back(PageMeta{});
    pages_with_space_.insert(PageNo(pages_.size() - 1));
  }
}

RowId Table::peek_insert_slot() const {
  for (PageNo p : pages_with_space_) {
    const Page& pg = *pages_[p];
    for (uint16_t s = 0; s < slots_per_page_; ++s)
      if (!pg.occupied(s)) return RowId{p, s};
  }
  return RowId{PageNo(pages_.size()), 0};
}

RowId Table::allocate_slot() {
  while (!pages_with_space_.empty()) {
    const PageNo p = *pages_with_space_.begin();
    Page& pg = *pages_[p];
    for (uint16_t s = 0; s < slots_per_page_; ++s) {
      if (!pg.occupied(s)) return RowId{p, s};
    }
    pages_with_space_.erase(pages_with_space_.begin());  // actually full
  }
  const PageNo p = PageNo(pages_.size());
  ensure_page(p);
  return RowId{p, 0};
}

std::optional<RowId> Table::insert_row(const Row& row) {
  const KeyBuf pk = primary_layout_.from_row(row);
  if (primary_tree_.find(pk.view())) return std::nullopt;

  const RowId rid = allocate_slot();
  Page& pg = *pages_[rid.page];
  schema_->encode(row, slot_bytes(rid));
  pg.set_occupied(rid.slot, true);
  if (pg.occupied_count(slots_per_page_) == slots_per_page_)
    pages_with_space_.erase(rid.page);

  primary_tree_.insert(pk.view(), rid);
  for (size_t i = 0; i < secondary_trees_.size(); ++i)
    secondary_trees_[i].insert(secondary_layouts_[i].from_row(row).view(),
                               rid);
  ++row_count_;
  return rid;
}

void Table::update_row(RowId rid, const Row& row) {
  DMV_ASSERT(slot_occupied(rid));
  const std::span<std::byte> slot = slot_bytes(rid);

  const KeyBuf old_pk = primary_layout_.from_image(slot);
  const KeyBuf new_pk = primary_layout_.from_row(row);
  if (old_pk.view() != new_pk.view()) {
    DMV_ASSERT_MSG(!primary_tree_.find(new_pk.view()),
                   "PK update collides on " << name_);
    primary_tree_.erase(old_pk.view());
    primary_tree_.insert(new_pk.view(), rid);
  }
  for (size_t i = 0; i < secondary_trees_.size(); ++i) {
    const KeyBuf ok = secondary_layouts_[i].from_image(slot);
    const KeyBuf nk = secondary_layouts_[i].from_row(row);
    if (ok.view() != nk.view()) {
      secondary_trees_[i].erase(ok.view());
      secondary_trees_[i].insert(nk.view(), rid);
    }
  }
  schema_->encode(row, slot);
}

void Table::delete_row(RowId rid) {
  DMV_ASSERT(slot_occupied(rid));
  unindex_image(rid);
  Page& pg = *pages_[rid.page];
  pg.set_occupied(rid.slot, false);
  // Zero the slot so deleted state is byte-identical across replicas.
  auto bytes = slot_bytes(rid);
  std::fill(bytes.begin(), bytes.end(), std::byte{0});
  pages_with_space_.insert(rid.page);
  --row_count_;
}

Row Table::read_row(RowId rid) const {
  return schema_->decode(row_image(rid));
}

std::span<const std::byte> Table::row_image(RowId rid) const {
  DMV_ASSERT_MSG(slot_occupied(rid), "reading empty slot in " << name_);
  return pages_[rid.page]->slot_bytes(rid.slot, schema_->row_size());
}

std::span<std::byte> Table::slot_bytes(RowId rid) {
  return pages_[rid.page]->slot_bytes(rid.slot, schema_->row_size());
}

void Table::index_image(RowId rid) {
  const std::span<const std::byte> slot = slot_bytes(rid);
  primary_tree_.insert(primary_layout_.from_image(slot).view(), rid);
  for (size_t i = 0; i < secondary_trees_.size(); ++i)
    secondary_trees_[i].insert(secondary_layouts_[i].from_image(slot).view(),
                               rid);
}

void Table::unindex_image(RowId rid) {
  const std::span<const std::byte> slot = slot_bytes(rid);
  primary_tree_.erase(primary_layout_.from_image(slot).view());
  for (size_t i = 0; i < secondary_trees_.size(); ++i)
    secondary_trees_[i].erase(secondary_layouts_[i].from_image(slot).view());
}

bool Table::slot_occupied(RowId rid) const {
  if (rid.page >= pages_.size() || rid.slot >= slots_per_page_) return false;
  return pages_[rid.page]->occupied(rid.slot);
}

void Table::unindex_slot(PageNo p, uint16_t slot) {
  DMV_ASSERT(p < pages_.size());
  if (!pages_[p]->occupied(slot)) return;
  unindex_image(RowId{p, slot});
  --row_count_;
}

void Table::index_slot(PageNo p, uint16_t slot) {
  DMV_ASSERT(p < pages_.size());
  if (!pages_[p]->occupied(slot)) return;
  index_image(RowId{p, slot});
  ++row_count_;
}

void Table::refresh_page_bookkeeping(PageNo p) {
  DMV_ASSERT(p < pages_.size());
  if (pages_[p]->occupied_count(slots_per_page_) < slots_per_page_)
    pages_with_space_.insert(p);
  else
    pages_with_space_.erase(p);
}

void Table::rebuild_indexes() {
  primary_tree_.clear();
  for (RbTree& t : secondary_trees_) t.clear();
  pages_with_space_.clear();
  row_count_ = 0;
  for (PageNo p = 0; p < pages_.size(); ++p) {
    for (uint16_t s = 0; s < slots_per_page_; ++s)
      if (pages_[p]->occupied(s)) index_slot(p, s);
    refresh_page_bookkeeping(p);
  }
}

bool Table::pages_equal(const Table& other) const {
  const size_t n = std::max(pages_.size(), other.pages_.size());
  static const Page kEmpty;
  for (size_t p = 0; p < n; ++p) {
    const Page& a = p < pages_.size() ? *pages_[p] : kEmpty;
    const Page& b = p < other.pages_.size() ? *other.pages_[p] : kEmpty;
    if (!(a == b)) return false;
  }
  return true;
}

Database::Database(const Database& o) {
  tables_.reserve(o.tables_.size());
  for (const auto& t : o.tables_) tables_.push_back(std::make_unique<Table>(*t));
}

TableId Database::add_table(std::string name, Schema schema, IndexDef primary,
                            std::vector<IndexDef> secondaries) {
  const TableId id = TableId(tables_.size());
  tables_.push_back(std::make_unique<Table>(id, std::move(name),
                                            std::move(schema),
                                            std::move(primary),
                                            std::move(secondaries)));
  return id;
}

Table& Database::table(TableId id) {
  DMV_ASSERT(id < tables_.size());
  return *tables_[id];
}
const Table& Database::table(TableId id) const {
  DMV_ASSERT(id < tables_.size());
  return *tables_[id];
}

size_t Database::total_pages() const {
  size_t n = 0;
  for (auto& t : tables_) n += t->page_count();
  return n;
}

size_t Database::total_rows() const {
  size_t n = 0;
  for (auto& t : tables_) n += t->row_count();
  return n;
}

bool Database::pages_equal(const Database& other) const {
  if (tables_.size() != other.tables_.size()) return false;
  for (size_t i = 0; i < tables_.size(); ++i)
    if (!tables_[i]->pages_equal(*other.tables_[i])) return false;
  return true;
}

}  // namespace dmv::storage
