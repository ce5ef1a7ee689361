#include "storage/table.hpp"

#include <algorithm>
#include <utility>

namespace dmv::storage {

Table::Table(TableId id, std::string name, Schema schema, IndexDef primary,
             std::vector<IndexDef> secondaries)
    : id_(id),
      name_(std::move(name)),
      schema_(std::make_shared<const Schema>(std::move(schema))),
      primary_def_(std::move(primary)),
      slots_per_page_(Page::slots_per_page(schema_->row_size())),
      primary_layout_(*schema_, primary_def_.cols),
      primary_tree_(std::make_shared<RbTree>(primary_layout_.width())) {
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
    secondary_trees_.push_back(
        std::make_shared<RbTree>(secondary_layouts_.back().width()));
  }
}

Key Table::primary_key_of(const Row& row) const {
  Key k;
  k.reserve(primary_def_.cols.size());
  for (size_t c : primary_def_.cols) k.push_back(row[c]);
  return k;
}

uint64_t Table::index_rotations() const {
  uint64_t r = primary_tree_->rotations();
  for (const auto& t : secondary_trees_) r += t->rotations();
  return r;
}

Page& Table::page(PageNo p) {
  DMV_ASSERT(p < pages_.size());
  return own(pages_[p]);
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
    pages_.push_back(std::make_shared<Page>());
    metas_.push_back(PageMeta{});
    pages_with_space_.insert(PageNo(pages_.size() - 1));
  }
}

RowId Table::peek_insert_slot() const {
  for (PageNo p : pages_with_space_) {
    const size_t s = pages_[p]->first_free(slots_per_page_);
    if (s < slots_per_page_) return RowId{p, uint16_t(s)};
  }
  return RowId{PageNo(pages_.size()), 0};
}

std::optional<RowId> Table::insert_row(const Row& row) {
  // One descent of the primary tree: it rejects a duplicate, unchanged,
  // before any page is created or written.
  const KeyBuf pk = primary_layout_.from_row(row);
  const RowId rid = peek_insert_slot();
  if (!tree(-1).insert(pk.view(), rid)) return std::nullopt;

  ensure_page(rid.page);
  Page& pg = page(rid.page);
  schema_->encode(row, slot_bytes(rid));
  pg.set_occupied(rid.slot, true);
  if (pg.first_free(slots_per_page_) == slots_per_page_)
    pages_with_space_.erase(rid.page);

  for (size_t i = 0; i < secondary_trees_.size(); ++i)
    tree(int(i)).insert(secondary_layouts_[i].from_row(row).view(), rid);
  ++row_count_;
  return rid;
}

void Table::update_row(RowId rid, const Row& row) {
  DMV_ASSERT(slot_occupied(rid));
  const std::span<std::byte> slot = slot_bytes(rid);

  const KeyBuf old_pk = primary_layout_.from_image(slot);
  const KeyBuf new_pk = primary_layout_.from_row(row);
  if (old_pk.view() != new_pk.view()) {
    DMV_ASSERT_MSG(!primary_tree_->find(new_pk.view()),
                   "PK update collides on " << name_);
    RbTree& pt = tree(-1);
    pt.erase(old_pk.view());
    pt.insert(new_pk.view(), rid);
  }
  for (size_t i = 0; i < secondary_trees_.size(); ++i) {
    const KeyBuf ok = secondary_layouts_[i].from_image(slot);
    const KeyBuf nk = secondary_layouts_[i].from_row(row);
    if (ok.view() != nk.view()) {
      RbTree& st = tree(int(i));
      st.erase(ok.view());
      st.insert(nk.view(), rid);
    }
  }
  schema_->encode(row, slot);
}

void Table::delete_row(RowId rid) {
  DMV_ASSERT(slot_occupied(rid));
  unindex_image(rid);
  Page& pg = page(rid.page);
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
  return slot_bytes(rid);
}

std::span<std::byte> Table::slot_bytes(RowId rid) {
  return page(rid.page).slot_bytes(rid.slot, schema_->row_size());
}
std::span<const std::byte> Table::slot_bytes(RowId rid) const {
  return page(rid.page).slot_bytes(rid.slot, schema_->row_size());
}

void Table::index_image(RowId rid) {
  const std::span<const std::byte> slot = std::as_const(*this).slot_bytes(rid);
  tree(-1).insert(primary_layout_.from_image(slot).view(), rid);
  for (size_t i = 0; i < secondary_trees_.size(); ++i)
    tree(int(i)).insert(secondary_layouts_[i].from_image(slot).view(), rid);
}

void Table::unindex_image(RowId rid) {
  const std::span<const std::byte> slot = std::as_const(*this).slot_bytes(rid);
  tree(-1).erase(primary_layout_.from_image(slot).view());
  for (size_t i = 0; i < secondary_trees_.size(); ++i)
    tree(int(i)).erase(secondary_layouts_[i].from_image(slot).view());
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
  if (pages_[p]->first_free(slots_per_page_) < slots_per_page_)
    pages_with_space_.insert(p);
  else
    pages_with_space_.erase(p);
}

void Table::rebuild_indexes() {
  // A fresh tree each, so a tree still shared with another copy is never
  // cloned only to be emptied; the rotation counts carry on.
  primary_tree_ = std::make_shared<RbTree>(primary_tree_->empty_like());
  for (auto& t : secondary_trees_)
    t = std::make_shared<RbTree>(t->empty_like());
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
