#include <gtest/gtest.h>

#include <map>
#include <set>

#include "storage/table.hpp"
#include "util/rng.hpp"

namespace dmv::storage {
namespace {

Schema test_schema() {
  return Schema({int_col("id"), char_col("name", 20), double_col("price"),
                 int_col("stock")});
}

Row make_row(int64_t id, const std::string& name, double price,
             int64_t stock) {
  return Row{id, name, price, stock};
}

TEST(Value, CompareOrders) {
  EXPECT_EQ(compare(Value{int64_t{1}}, Value{int64_t{2}}),
            std::strong_ordering::less);
  EXPECT_EQ(compare(Value{std::string("abc")}, Value{std::string("abd")}),
            std::strong_ordering::less);
  EXPECT_EQ(compare(Value{2.5}, Value{2.5}), std::strong_ordering::equal);
}

TEST(Value, PrefixCompareTreatsEqualPrefixAsEqual) {
  Key key{int64_t{5}, int64_t{99}};
  Key bound{int64_t{5}};
  EXPECT_EQ(compare_prefix(key, bound), std::strong_ordering::equal);
  EXPECT_EQ(compare_prefix(Key{int64_t{6}}, bound),
            std::strong_ordering::greater);
  // Full-key compare still ranks the longer key after the prefix.
  EXPECT_EQ(compare(bound, key), std::strong_ordering::less);
}

TEST(Schema, RowSizeAndOffsets) {
  Schema s = test_schema();
  EXPECT_EQ(s.row_size(), 8u + 20u + 8u + 8u);
  EXPECT_EQ(s.offset(0), 0u);
  EXPECT_EQ(s.offset(1), 8u);
  EXPECT_EQ(s.offset(2), 28u);
}

TEST(Schema, EncodeDecodeRoundTrip) {
  Schema s = test_schema();
  std::vector<std::byte> buf(s.row_size());
  Row r = make_row(42, "dynamic multiversion", 3.14, -7);
  s.encode(r, buf);
  Row back = s.decode(buf);
  ASSERT_EQ(back.size(), 4u);
  EXPECT_EQ(std::get<int64_t>(back[0]), 42);
  EXPECT_EQ(std::get<std::string>(back[1]), "dynamic multiversion");
  EXPECT_DOUBLE_EQ(std::get<double>(back[2]), 3.14);
  EXPECT_EQ(std::get<int64_t>(back[3]), -7);
}

TEST(Schema, LongStringsTruncateToWidth) {
  Schema s({char_col("c", 4)});
  std::vector<std::byte> buf(4);
  s.encode(Row{std::string("abcdefgh")}, buf);
  EXPECT_EQ(std::get<std::string>(s.decode(buf)[0]), "abcd");
}

TEST(Schema, ShortStringsZeroPadded) {
  Schema s({char_col("c", 8)});
  std::vector<std::byte> buf(8, std::byte{0xFF});
  s.encode(Row{std::string("ab")}, buf);
  EXPECT_EQ(std::get<std::string>(s.decode(buf)[0]), "ab");
  EXPECT_EQ(buf[7], std::byte{0});
}

TEST(Page, OccupancyBitmap) {
  Page p;
  EXPECT_FALSE(p.occupied(0));
  p.set_occupied(0, true);
  p.set_occupied(7, true);
  p.set_occupied(511, true);
  EXPECT_TRUE(p.occupied(0));
  EXPECT_TRUE(p.occupied(7));
  EXPECT_TRUE(p.occupied(511));
  EXPECT_FALSE(p.occupied(8));
  p.set_occupied(7, false);
  EXPECT_FALSE(p.occupied(7));
  EXPECT_EQ(p.occupied_count(512), 2u);
}

TEST(Page, SlotsPerPageBounds) {
  EXPECT_EQ(Page::slots_per_page(8), kMaxSlots);  // capped by bitmap
  EXPECT_EQ(Page::slots_per_page(1000), (kPageSize - kPageHeader) / 1000);
}

TEST(Page, EqualityIsByteWise) {
  Page a, b;
  EXPECT_TRUE(a == b);
  a.set_occupied(3, true);
  EXPECT_FALSE(a == b);
  b.set_occupied(3, true);
  EXPECT_TRUE(a == b);
}

TEST(RbTree, InsertFindErase) {
  RbTree t;
  EXPECT_TRUE(t.insert(Key{int64_t{5}}, RowId{1, 2}));
  EXPECT_FALSE(t.insert(Key{int64_t{5}}, RowId{9, 9}));  // dup
  auto f = t.find(Key{int64_t{5}});
  ASSERT_TRUE(f.has_value());
  EXPECT_EQ(f->page, 1u);
  EXPECT_EQ(f->slot, 2u);
  EXPECT_TRUE(t.erase(Key{int64_t{5}}));
  EXPECT_FALSE(t.erase(Key{int64_t{5}}));
  EXPECT_FALSE(t.find(Key{int64_t{5}}).has_value());
  EXPECT_EQ(t.size(), 0u);
}

TEST(RbTree, ScanRangeInclusive) {
  RbTree t;
  for (int64_t i = 0; i < 20; ++i) t.insert(Key{i}, RowId{0, uint16_t(i)});
  std::vector<int64_t> got;
  Key lo{int64_t{5}}, hi{int64_t{9}};
  t.scan(&lo, &hi, [&](const Key& k, RowId) {
    got.push_back(std::get<int64_t>(k[0]));
    return true;
  });
  EXPECT_EQ(got, (std::vector<int64_t>{5, 6, 7, 8, 9}));
}

TEST(RbTree, ScanEarlyStop) {
  RbTree t;
  for (int64_t i = 0; i < 100; ++i) t.insert(Key{i}, RowId{});
  int visited = 0;
  t.scan_all([&](const Key&, RowId) { return ++visited < 10; });
  EXPECT_EQ(visited, 10);
}

TEST(RbTree, PrefixUpperBoundKeepsCompositeKeys) {
  RbTree t;
  // Composite keys (a, b): prefix bound on a must include all b's.
  for (int64_t a = 0; a < 4; ++a)
    for (int64_t b = 0; b < 3; ++b) t.insert(Key{a, b}, RowId{});
  std::vector<std::pair<int64_t, int64_t>> got;
  Key lo{int64_t{1}}, hi{int64_t{2}};
  t.scan(&lo, &hi, [&](const Key& k, RowId) {
    got.emplace_back(std::get<int64_t>(k[0]), std::get<int64_t>(k[1]));
    return true;
  });
  ASSERT_EQ(got.size(), 6u);
  EXPECT_EQ(got.front(), (std::pair<int64_t, int64_t>{1, 0}));
  EXPECT_EQ(got.back(), (std::pair<int64_t, int64_t>{2, 2}));
}

TEST(RbTree, ScanDescReversesOrder) {
  RbTree t;
  for (int64_t i = 0; i < 10; ++i) t.insert(Key{i}, RowId{});
  std::vector<int64_t> got;
  t.scan_desc(nullptr, nullptr, [&](const Key& k, RowId) {
    got.push_back(std::get<int64_t>(k[0]));
    return true;
  });
  ASSERT_EQ(got.size(), 10u);
  EXPECT_EQ(got.front(), 9);
  EXPECT_EQ(got.back(), 0);
}

TEST(RbTree, ScanDescRangeInclusive) {
  RbTree t;
  for (int64_t i = 0; i < 20; ++i) t.insert(Key{i}, RowId{});
  std::vector<int64_t> got;
  Key lo{int64_t{5}}, hi{int64_t{9}};
  t.scan_desc(&lo, &hi, [&](const Key& k, RowId) {
    got.push_back(std::get<int64_t>(k[0]));
    return true;
  });
  EXPECT_EQ(got, (std::vector<int64_t>{9, 8, 7, 6, 5}));
}

TEST(RbTree, ScanDescPrefixUpperBound) {
  RbTree t;
  for (int64_t a = 0; a < 4; ++a)
    for (int64_t b = 0; b < 3; ++b) t.insert(Key{a, b}, RowId{});
  std::vector<std::pair<int64_t, int64_t>> got;
  Key hi{int64_t{1}};
  t.scan_desc(nullptr, &hi, [&](const Key& k, RowId) {
    got.emplace_back(std::get<int64_t>(k[0]), std::get<int64_t>(k[1]));
    return true;
  });
  // All (0,*) and (1,*), newest-first.
  ASSERT_EQ(got.size(), 6u);
  EXPECT_EQ(got.front(), (std::pair<int64_t, int64_t>{1, 2}));
  EXPECT_EQ(got.back(), (std::pair<int64_t, int64_t>{0, 0}));
}

TEST(RbTree, ScanDescEmptyTree) {
  RbTree t;
  int visits = 0;
  t.scan_desc(nullptr, nullptr, [&](const Key&, RowId) {
    ++visits;
    return true;
  });
  EXPECT_EQ(visits, 0);
}

TEST(RbTree, StringKeys) {
  RbTree t;
  t.insert(Key{std::string("mango")}, RowId{0, 1});
  t.insert(Key{std::string("apple")}, RowId{0, 2});
  t.insert(Key{std::string("peach")}, RowId{0, 3});
  std::vector<std::string> order;
  t.scan_all([&](const Key& k, RowId) {
    order.push_back(std::get<std::string>(k[0]));
    return true;
  });
  EXPECT_EQ(order, (std::vector<std::string>{"apple", "mango", "peach"}));
}

// Property test: random interleaved inserts/erases vs std::map reference,
// with invariant checks along the way.
class RbTreeProperty : public ::testing::TestWithParam<uint64_t> {};

TEST_P(RbTreeProperty, MatchesReferenceModel) {
  util::Rng rng(GetParam());
  RbTree t;
  std::map<int64_t, RowId> ref;
  for (int step = 0; step < 4000; ++step) {
    const int64_t k = rng.between(0, 500);
    if (rng.chance(0.55)) {
      const RowId rid{uint32_t(rng.below(1000)), uint16_t(rng.below(100))};
      const bool inserted = t.insert(Key{k}, rid);
      const bool ref_inserted = ref.emplace(k, rid).second;
      EXPECT_EQ(inserted, ref_inserted);
    } else {
      EXPECT_EQ(t.erase(Key{k}), ref.erase(k) > 0);
    }
    if (step % 257 == 0) {
      ASSERT_TRUE(t.check_invariants());
    }
  }
  ASSERT_TRUE(t.check_invariants());
  EXPECT_EQ(t.size(), ref.size());
  auto it = ref.begin();
  bool match = true;
  t.scan_all([&](const Key& k, RowId rid) {
    if (it == ref.end() || std::get<int64_t>(k[0]) != it->first ||
        rid != it->second)
      match = false;
    ++it;
    return match;
  });
  EXPECT_TRUE(match);
  EXPECT_EQ(it, ref.end());
  EXPECT_GT(t.rotations(), 0u);
}

INSTANTIATE_TEST_SUITE_P(Seeds, RbTreeProperty,
                         ::testing::Values(1, 2, 3, 5, 8, 13, 21, 34));

TEST(Table, InsertReadBack) {
  Table t(0, "item", test_schema(), IndexDef{"pk", {0}, true});
  auto rid = t.insert_row(make_row(1, "book", 9.99, 10));
  ASSERT_TRUE(rid.has_value());
  Row r = t.read_row(*rid);
  EXPECT_EQ(std::get<std::string>(r[1]), "book");
  EXPECT_EQ(t.row_count(), 1u);
}

TEST(Table, PrimaryKeyDuplicateRejected) {
  Table t(0, "item", test_schema(), IndexDef{"pk", {0}, true});
  ASSERT_TRUE(t.insert_row(make_row(1, "a", 1, 1)).has_value());
  EXPECT_FALSE(t.insert_row(make_row(1, "b", 2, 2)).has_value());
  EXPECT_EQ(t.row_count(), 1u);
}

TEST(Table, UpdateMaintainsSecondaryIndex) {
  Table t(0, "item", test_schema(), IndexDef{"pk", {0}, true},
          {IndexDef{"by_name", {1}, false}});
  auto rid = *t.insert_row(make_row(1, "alpha", 1, 1));
  t.insert_row(make_row(2, "beta", 2, 2));
  t.update_row(rid, make_row(1, "zeta", 1, 1));
  std::vector<int64_t> ids;
  Key lo{std::string("z")};
  t.sec_scan(0, &lo, nullptr, [&](const Key&, RowId r) {
    ids.push_back(std::get<int64_t>(t.read_row(r)[0]));
    return true;
  });
  EXPECT_EQ(ids, (std::vector<int64_t>{1}));
  // Old key gone.
  size_t alpha_hits = 0;
  Key alo{std::string("alpha")}, ahi{std::string("alpha")};
  t.sec_scan(0, &alo, &ahi, [&](const Key&, RowId) {
    ++alpha_hits;
    return true;
  });
  EXPECT_EQ(alpha_hits, 0u);
}

TEST(Table, DeleteFreesSlotForReuse) {
  Table t(0, "item", test_schema(), IndexDef{"pk", {0}, true});
  auto r1 = *t.insert_row(make_row(1, "a", 1, 1));
  t.delete_row(r1);
  EXPECT_EQ(t.row_count(), 0u);
  auto r2 = *t.insert_row(make_row(2, "b", 2, 2));
  EXPECT_EQ(r1.page, r2.page);
  EXPECT_EQ(r1.slot, r2.slot);  // first free slot reused
  EXPECT_FALSE(t.pk_find(Key{int64_t{1}}).has_value());
  EXPECT_TRUE(t.pk_find(Key{int64_t{2}}).has_value());
}

TEST(Table, PkUpdateMovesIndexEntry) {
  Table t(0, "item", test_schema(), IndexDef{"pk", {0}, true});
  auto rid = *t.insert_row(make_row(1, "a", 1, 1));
  t.update_row(rid, make_row(99, "a", 1, 1));
  EXPECT_FALSE(t.pk_find(Key{int64_t{1}}).has_value());
  auto f = t.pk_find(Key{int64_t{99}});
  ASSERT_TRUE(f.has_value());
  EXPECT_EQ(*f, rid);
}

TEST(Table, GrowsAcrossPages) {
  Table t(0, "item", test_schema(), IndexDef{"pk", {0}, true});
  const size_t spp = t.slots_per_page();
  for (size_t i = 0; i < spp + 3; ++i)
    ASSERT_TRUE(t.insert_row(make_row(int64_t(i), "x", 0, 0)).has_value());
  EXPECT_EQ(t.page_count(), 2u);
  EXPECT_EQ(t.row_count(), spp + 3);
  // All retrievable.
  for (size_t i = 0; i < spp + 3; ++i)
    EXPECT_TRUE(t.pk_find(Key{int64_t(i)}).has_value());
}

TEST(Table, RawApplicationPathMatchesLogical) {
  // Mutate table A logically; copy its raw pages into table B and reindex;
  // B must serve identical queries.
  Table a(0, "item", test_schema(), IndexDef{"pk", {0}, true},
          {IndexDef{"by_stock", {3}, false}});
  Table b(0, "item", test_schema(), IndexDef{"pk", {0}, true},
          {IndexDef{"by_stock", {3}, false}});
  util::Rng rng(77);
  std::vector<RowId> rids;
  for (int i = 0; i < 300; ++i)
    rids.push_back(
        *a.insert_row(make_row(i, "n" + std::to_string(i), i * 0.5, i % 7)));
  for (int i = 0; i < 100; ++i) {
    const auto& rid = rids[rng.below(rids.size())];
    if (a.slot_occupied(rid)) {
      if (rng.chance(0.5))
        a.delete_row(rid);
      else
        a.update_row(rid, make_row(std::get<int64_t>(a.read_row(rid)[0]),
                                   "upd", 1.0, 42));
    }
  }
  // Raw page copy.
  for (PageNo p = 0; p < a.page_count(); ++p) {
    b.ensure_page(p);
    std::copy(a.page(p).raw().begin(), a.page(p).raw().end(),
              b.page(p).raw().begin());
  }
  b.rebuild_indexes();
  EXPECT_TRUE(a.pages_equal(b));
  EXPECT_EQ(a.row_count(), b.row_count());
  EXPECT_EQ(a.primary_tree().size(), b.primary_tree().size());
  // Spot-check queries agree.
  for (int64_t k = 0; k < 300; k += 13) {
    auto fa = a.pk_find(Key{k});
    auto fb = b.pk_find(Key{k});
    EXPECT_EQ(fa.has_value(), fb.has_value());
  }
  // Secondary index agrees on a full scan.
  size_t ca = 0, cb = 0;
  a.sec_scan(0, nullptr, nullptr, [&](const Key&, RowId) {
    ++ca;
    return true;
  });
  b.sec_scan(0, nullptr, nullptr, [&](const Key&, RowId) {
    ++cb;
    return true;
  });
  EXPECT_EQ(ca, cb);
}

TEST(Table, UnindexIndexSlotRoundTrip) {
  Table t(0, "item", test_schema(), IndexDef{"pk", {0}, true});
  auto rid = *t.insert_row(make_row(7, "x", 0, 0));
  t.unindex_slot(rid.page, rid.slot);
  EXPECT_FALSE(t.pk_find(Key{int64_t{7}}).has_value());
  EXPECT_EQ(t.row_count(), 0u);
  t.index_slot(rid.page, rid.slot);
  EXPECT_TRUE(t.pk_find(Key{int64_t{7}}).has_value());
  EXPECT_EQ(t.row_count(), 1u);
}

TEST(Database, AddTablesAssignsDenseIds) {
  Database db;
  TableId a = db.add_table("alpha", test_schema(), IndexDef{"pk", {0}, true});
  TableId b = db.add_table("beta", test_schema(), IndexDef{"pk", {0}, true});
  EXPECT_EQ(a, 0u);
  EXPECT_EQ(b, 1u);
  EXPECT_EQ(db.table_count(), 2u);
  EXPECT_EQ(db.table(b).name(), "beta");
}

TEST(Database, PagesEqualDetectsDivergence) {
  Database x, y;
  x.add_table("t", test_schema(), IndexDef{"pk", {0}, true});
  y.add_table("t", test_schema(), IndexDef{"pk", {0}, true});
  x.table(0).insert_row(make_row(1, "a", 1, 1));
  EXPECT_FALSE(x.pages_equal(y));
  y.table(0).insert_row(make_row(1, "a", 1, 1));
  EXPECT_TRUE(x.pages_equal(y));
}

}  // namespace
}  // namespace dmv::storage
