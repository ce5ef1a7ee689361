#include <gtest/gtest.h>

#include <algorithm>
#include <compare>
#include <cstring>
#include <limits>
#include <map>
#include <optional>
#include <set>

#include "storage/table.hpp"
#include "tpcw/generator.hpp"
#include "tpcw/schema.hpp"
#include "txn/row_access.hpp"
#include "txn/write_set.hpp"
#include "util/asan.hpp"
#include "util/rng.hpp"
#include "workload/workload.hpp"

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

// The word-level bitmap reads against a slot-by-slot loop, at slot counts
// on both sides of each word boundary, with the bits past the count set
// or clear.
TEST(Page, BitmapWordsMatchBitLoop) {
  util::Rng rng(11);
  for (size_t n : {1, 63, 64, 65, 203, 512}) {
    for (int round = 0; round < 200; ++round) {
      Page p;
      const double density = round < 2 ? round : rng.uniform01();
      for (size_t s = 0; s < kMaxSlots; ++s)
        p.set_occupied(s, rng.chance(density));
      if (round % 3 == 0) {  // every counted slot full, or all but one
        for (size_t s = 0; s < n; ++s) p.set_occupied(s, true);
        if (round % 2 == 0) p.set_occupied(rng.below(n), false);
      }
      size_t count = 0, first = n;
      for (size_t s = 0; s < n; ++s) {
        if (p.occupied(s))
          ++count;
        else if (first == n)
          first = s;
      }
      EXPECT_EQ(p.occupied_count(n), count) << "n " << n;
      EXPECT_EQ(p.first_free(n), first) << "n " << n;
    }
  }
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

// Encoded int64 key of one or two columns, and the value back.
std::string IK(int64_t v) {
  std::string k(8, '\0');
  encode_int(v, k.data());
  return k;
}
std::string IK(int64_t a, int64_t b) { return IK(a) + IK(b); }
int64_t IV(std::string_view key, size_t col = 0) {
  uint64_t u = 0;
  for (size_t i = 0; i < 8; ++i) u = u << 8 | uint8_t(key[col * 8 + i]);
  return int64_t(u ^ (uint64_t{1} << 63));
}

TEST(RbTree, InsertFindErase) {
  RbTree t(8);
  EXPECT_TRUE(t.insert(IK(5), RowId{1, 2}));
  EXPECT_FALSE(t.insert(IK(5), RowId{9, 9}));  // dup
  auto f = t.find(IK(5));
  ASSERT_TRUE(f.has_value());
  EXPECT_EQ(f->page, 1u);
  EXPECT_EQ(f->slot, 2u);
  EXPECT_TRUE(t.erase(IK(5)));
  EXPECT_FALSE(t.erase(IK(5)));
  EXPECT_FALSE(t.find(IK(5)).has_value());
  EXPECT_EQ(t.size(), 0u);
}

TEST(RbTree, FindNeedsAFullKey) {
  RbTree t(16);
  t.insert(IK(5, 1), RowId{});
  EXPECT_TRUE(t.find(IK(5, 1)).has_value());
  EXPECT_FALSE(t.find(IK(5)).has_value());  // a prefix is not a key
}

TEST(RbTree, ScanRangeInclusive) {
  RbTree t(8);
  for (int64_t i = 0; i < 20; ++i) t.insert(IK(i), RowId{0, uint16_t(i)});
  std::vector<int64_t> got;
  t.scan(IK(5), IK(9), [&](std::string_view k, RowId) {
    got.push_back(IV(k));
    return true;
  });
  EXPECT_EQ(got, (std::vector<int64_t>{5, 6, 7, 8, 9}));
}

TEST(RbTree, ScanEarlyStop) {
  RbTree t(8);
  for (int64_t i = 0; i < 100; ++i) t.insert(IK(i), RowId{});
  int visited = 0;
  t.scan_all([&](std::string_view, RowId) { return ++visited < 10; });
  EXPECT_EQ(visited, 10);
}

TEST(RbTree, NegativeKeysSortFirst) {
  RbTree t(8);
  for (int64_t v : {int64_t{3}, INT64_MIN, int64_t{-1}, INT64_MAX,
                    int64_t{0}, int64_t{-300}})
    t.insert(IK(v), RowId{});
  std::vector<int64_t> got;
  t.scan_all([&](std::string_view k, RowId) {
    got.push_back(IV(k));
    return true;
  });
  EXPECT_EQ(got, (std::vector<int64_t>{INT64_MIN, -300, -1, 0, 3,
                                       INT64_MAX}));
}

TEST(RbTree, PrefixUpperBoundKeepsCompositeKeys) {
  RbTree t(16);
  // Composite keys (a, b): prefix bound on a must include all b's.
  for (int64_t a = 0; a < 4; ++a)
    for (int64_t b = 0; b < 3; ++b) t.insert(IK(a, b), RowId{});
  std::vector<std::pair<int64_t, int64_t>> got;
  t.scan(IK(1), IK(2), [&](std::string_view k, RowId) {
    got.emplace_back(IV(k, 0), IV(k, 1));
    return true;
  });
  ASSERT_EQ(got.size(), 6u);
  EXPECT_EQ(got.front(), (std::pair<int64_t, int64_t>{1, 0}));
  EXPECT_EQ(got.back(), (std::pair<int64_t, int64_t>{2, 2}));
}

TEST(RbTree, ScanDescReversesOrder) {
  RbTree t(8);
  for (int64_t i = 0; i < 10; ++i) t.insert(IK(i), RowId{});
  std::vector<int64_t> got;
  t.scan_desc({}, {}, [&](std::string_view k, RowId) {
    got.push_back(IV(k));
    return true;
  });
  ASSERT_EQ(got.size(), 10u);
  EXPECT_EQ(got.front(), 9);
  EXPECT_EQ(got.back(), 0);
}

TEST(RbTree, ScanDescRangeInclusive) {
  RbTree t(8);
  for (int64_t i = 0; i < 20; ++i) t.insert(IK(i), RowId{});
  std::vector<int64_t> got;
  t.scan_desc(IK(5), IK(9), [&](std::string_view k, RowId) {
    got.push_back(IV(k));
    return true;
  });
  EXPECT_EQ(got, (std::vector<int64_t>{9, 8, 7, 6, 5}));
}

TEST(RbTree, ScanDescPrefixUpperBound) {
  RbTree t(16);
  for (int64_t a = 0; a < 4; ++a)
    for (int64_t b = 0; b < 3; ++b) t.insert(IK(a, b), RowId{});
  std::vector<std::pair<int64_t, int64_t>> got;
  t.scan_desc({}, IK(1), [&](std::string_view k, RowId) {
    got.emplace_back(IV(k, 0), IV(k, 1));
    return true;
  });
  // All (0,*) and (1,*), newest-first.
  ASSERT_EQ(got.size(), 6u);
  EXPECT_EQ(got.front(), (std::pair<int64_t, int64_t>{1, 2}));
  EXPECT_EQ(got.back(), (std::pair<int64_t, int64_t>{0, 0}));
}

TEST(RbTree, ScanDescEmptyTree) {
  RbTree t(8);
  int visits = 0;
  t.scan_desc({}, {}, [&](std::string_view, RowId) {
    ++visits;
    return true;
  });
  EXPECT_EQ(visits, 0);
}

TEST(RbTree, StringKeys) {
  RbTree t(8);
  auto sk = [](std::string_view s) {
    std::string k(8, '\0');
    encode_chars(s, 8, k.data());
    return k;
  };
  t.insert(sk("mango"), RowId{0, 1});
  t.insert(sk("apple"), RowId{0, 2});
  t.insert(sk("peach"), RowId{0, 3});
  t.insert(sk("app"), RowId{0, 4});
  std::vector<uint16_t> order;
  t.scan_all([&](std::string_view, RowId rid) {
    order.push_back(rid.slot);
    return true;
  });
  // "app" < "apple": the shorter string's zero padding sorts first.
  EXPECT_EQ(order, (std::vector<uint16_t>{4, 2, 1, 3}));
}

// Property test: random interleaved inserts/erases vs std::map reference,
// with invariant checks along the way.
class RbTreeProperty : public ::testing::TestWithParam<uint64_t> {};

TEST_P(RbTreeProperty, MatchesReferenceModel) {
  util::Rng rng(GetParam());
  RbTree t(8);
  std::map<int64_t, RowId> ref;
  for (int step = 0; step < 4000; ++step) {
    const int64_t k = rng.between(-250, 250);
    if (rng.chance(0.55)) {
      const RowId rid{uint32_t(rng.below(1000)), uint16_t(rng.below(100))};
      const bool inserted = t.insert(IK(k), rid);
      const bool ref_inserted = ref.emplace(k, rid).second;
      EXPECT_EQ(inserted, ref_inserted);
    } else {
      EXPECT_EQ(t.erase(IK(k)), ref.erase(k) > 0);
    }
    if (step % 257 == 0) {
      ASSERT_TRUE(t.check_invariants());
    }
  }
  ASSERT_TRUE(t.check_invariants());
  EXPECT_EQ(t.size(), ref.size());
  auto it = ref.begin();
  bool match = true;
  t.scan_all([&](std::string_view k, RowId rid) {
    if (it == ref.end() || IV(k) != it->first || rid != it->second)
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

using RefTree = std::map<int64_t, RowId>;

// `t` holds exactly `ref`: its invariants and successor chain hold, a full
// walk visits `ref` in order, and so does a walk bounded by [lo, hi].
void expect_same_entries(const RbTree& t, const RefTree& ref, int64_t lo,
                         int64_t hi) {
  ASSERT_TRUE(t.check_invariants());
  ASSERT_EQ(t.size(), ref.size());
  std::vector<std::pair<int64_t, RowId>> got;
  t.scan_all([&](std::string_view k, RowId rid) {
    got.emplace_back(IV(k), rid);
    return true;
  });
  ASSERT_EQ(got, (std::vector<std::pair<int64_t, RowId>>(ref.begin(),
                                                         ref.end())));
  got.clear();
  t.scan(IK(lo), IK(hi), [&](std::string_view k, RowId rid) {
    got.emplace_back(IV(k), rid);
    return true;
  });
  ASSERT_EQ(got, (std::vector<std::pair<int64_t, RowId>>(
                     ref.lower_bound(lo), ref.upper_bound(hi))));
}

// A key of `t` whose node has two children, if any (from shape()).
std::optional<int64_t> two_child_key(const RbTree& t, const RefTree& ref) {
  const auto shape = t.shape();
  std::vector<int> children(shape.size(), 0);
  for (const auto& [parent, red] : shape)
    if (parent >= 0) ++children[size_t(parent)];
  auto it = ref.begin();
  for (size_t i = 0; i < children.size(); ++i, ++it)
    if (children[i] == 2) return it->first;
  return std::nullopt;
}

// Where each key's bytes live, in key order: inside its node, so the
// addresses show where the pool put the nodes.
std::vector<const char*> key_addresses(const RbTree& t) {
  std::vector<const char*> out;
  t.scan_all([&](std::string_view k, RowId) {
    out.push_back(k.data());
    return true;
  });
  return out;
}

// The successor links stay a correct in-order chain through random churn
// that erases the minimum, the maximum and two-child nodes and empties the
// tree, and through copies, moves and clear(); the node pool reuses erased
// nodes and lays a copy out as one block in key order.
TEST(RbTree, SuccessorChainSurvivesChurn) {
  util::Rng rng(42);
  RbTree t(8);
  RefTree ref;
  auto random_op = [&](RbTree& tree, RefTree& model) {
    const int64_t k = rng.between(-60, 60);
    const uint64_t pick = rng.below(8);
    if (pick < 4) {
      const RowId rid{uint32_t(rng.below(1000)), uint16_t(rng.below(100))};
      ASSERT_EQ(tree.insert(IK(k), rid), model.emplace(k, rid).second);
    } else if (pick == 4 && !model.empty()) {
      ASSERT_TRUE(tree.erase(IK(model.begin()->first)));
      model.erase(model.begin());
    } else if (pick == 5 && !model.empty()) {
      ASSERT_TRUE(tree.erase(IK(model.rbegin()->first)));
      model.erase(std::prev(model.end()));
    } else if (pick == 6) {
      if (const auto two = two_child_key(tree, model)) {
        ASSERT_TRUE(tree.erase(IK(*two)));
        model.erase(*two);
      }
    } else {
      ASSERT_EQ(tree.erase(IK(k)), model.erase(k) > 0);
    }
  };
  for (int round = 0; round < 6; ++round) {
    // Churn, then drain to empty through the minimum, the maximum and
    // two-child nodes.
    for (int step = 0; step < 300; ++step) {
      random_op(t, ref);
      const int64_t lo = rng.between(-70, 70);
      expect_same_entries(t, ref, lo, lo + rng.between(0, 40));
    }
    while (!ref.empty()) {
      const int64_t k = rng.chance(0.5) ? ref.begin()->first
                                        : std::prev(ref.end())->first;
      const auto two = two_child_key(t, ref);
      const int64_t victim = two && rng.chance(0.5) ? *two : k;
      ASSERT_TRUE(t.erase(IK(victim)));
      ref.erase(victim);
      expect_same_entries(t, ref, -60, 60);
    }
    EXPECT_TRUE(t.empty());
    for (int i = 0; i < 40; ++i) random_op(t, ref);

    // An erased node is the next insert's node.
    if (!ref.empty()) {
      const auto it = std::next(ref.begin(), ptrdiff_t(rng.below(ref.size())));
      const char* freed = nullptr;
      t.scan(IK(it->first), IK(it->first), [&](std::string_view k, RowId) {
        freed = k.data();
        return false;
      });
      ASSERT_TRUE(t.erase(IK(it->first)));
      ref.erase(it);
      int64_t k = 61;
      while (ref.count(k)) ++k;
      ASSERT_TRUE(t.insert(IK(k), RowId{7, 7}));
      ref.emplace(k, RowId{7, 7});
      const char* reused = nullptr;
      t.scan(IK(k), IK(k), [&](std::string_view key, RowId) {
        reused = key.data();
        return false;
      });
      EXPECT_EQ(reused, freed);
      expect_same_entries(t, ref, -60, 70);
    }

    // A copy has its own chain: churn on it leaves the original alone. Its
    // nodes are one block, in key order.
    RbTree copy(t);
    RefTree copy_ref = ref;
    EXPECT_EQ(copy.shape(), t.shape());
    expect_same_entries(copy, copy_ref, -60, 70);
    const std::vector<const char*> at = key_addresses(copy);
    for (size_t i = 2; i < at.size(); ++i)
      EXPECT_EQ(at[i] - at[i - 1], at[1] - at[0]);
    for (int i = 0; i < 60; ++i) {
      random_op(copy, copy_ref);
      expect_same_entries(copy, copy_ref, -20, 20);
    }
    expect_same_entries(t, ref, -60, 70);

    // Moves carry the chain; the moved-from tree is empty and usable.
    RbTree moved(std::move(copy));
    expect_same_entries(moved, copy_ref, -60, 60);
    expect_same_entries(copy, {}, -60, 60);
    RefTree from_ref;
    for (int i = 0; i < 30; ++i) {
      random_op(copy, from_ref);
      expect_same_entries(copy, from_ref, -60, 60);
    }
    // Move assignment frees the target's entries and takes the source's.
    copy = std::move(moved);
    expect_same_entries(copy, copy_ref, -60, 60);
    expect_same_entries(moved, {}, -60, 60);
    for (int i = 0; i < 30; ++i) {
      random_op(copy, copy_ref);
      expect_same_entries(copy, copy_ref, -60, 60);
    }

    // clear() drops the pool; the tree then grows a new one.
    copy.clear();
    copy_ref.clear();
    expect_same_entries(copy, copy_ref, -60, 60);
    for (int i = 0; i < 80; ++i) {
      random_op(copy, copy_ref);
      expect_same_entries(copy, copy_ref, -60, 60);
    }
  }
}

// An erased node waits on the free list for the next insert, and under
// ASan it is poisoned while it waits, as is a pool block's unused tail:
// a use of a node after its erase still reports.
TEST(RbTree, FreeListedNodeIsPoisoned) {
  RbTree t(8);
  std::vector<const char*> at(11);
  for (int64_t k = 0; k < 11; ++k) {
    ASSERT_TRUE(t.insert(IK(k), RowId{0, uint16_t(k)}));
    at[size_t(k)] = key_addresses(t)[size_t(k)];
  }
#ifdef DMV_ASAN_POISONING
  // Eleven nodes of an 8-byte key, back to back in the first block (of
  // 16): the twelfth node would start right after the last key.
  EXPECT_EQ(at[1] - at[0], at[10] - at[9]);
  EXPECT_TRUE(__asan_address_is_poisoned(at[10] + 8));
  EXPECT_FALSE(__asan_address_is_poisoned(at[5]));
#endif
  ASSERT_TRUE(t.erase(IK(5)));
#ifdef DMV_ASAN_POISONING
  EXPECT_TRUE(__asan_address_is_poisoned(at[5]));
#endif
  ASSERT_TRUE(t.insert(IK(42), RowId{1, 1}));
  EXPECT_EQ(key_addresses(t).back(), at[5]);
#ifdef DMV_ASAN_POISONING
  EXPECT_FALSE(__asan_address_is_poisoned(at[5]));
#endif
  EXPECT_TRUE(t.check_invariants());
}

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

// insert_row descends the primary tree once: a duplicate is turned away
// with no page created, no slot written and the trees as they were.
TEST(Table, DuplicateInsertChangesNothing) {
  Table t(0, "item", test_schema(), IndexDef{"pk", {0}, true},
          {IndexDef{"by_stock", {3}, false}});
  for (int64_t i = 0; i < int64_t(t.slots_per_page()); ++i)
    ASSERT_TRUE(t.insert_row(make_row(i, "a", 1, i % 5)).has_value());
  ASSERT_EQ(t.page_count(), 1u);  // full: the next insert needs a page
  const Table before = t;
  EXPECT_FALSE(t.insert_row(make_row(7, "b", 2, 2)).has_value());
  EXPECT_EQ(t.page_count(), 1u);
  EXPECT_TRUE(t.pages_equal(before));
  EXPECT_EQ(t.row_count(), before.row_count());
  EXPECT_EQ(t.peek_insert_slot(), (RowId{1, 0}));
  EXPECT_EQ(t.index_rotations(), before.index_rotations());
  for (int i = -1; i < 1; ++i)
    EXPECT_EQ(t.index_tree(i).shape(), before.index_tree(i).shape());
}

TEST(Table, UpdateMaintainsSecondaryIndex) {
  Table t(0, "item", test_schema(), IndexDef{"pk", {0}, true},
          {IndexDef{"by_name", {1}, false}});
  auto rid = *t.insert_row(make_row(1, "alpha", 1, 1));
  t.insert_row(make_row(2, "beta", 2, 2));
  t.update_row(rid, make_row(1, "zeta", 1, 1));
  std::vector<int64_t> ids;
  Key lo{std::string("z")};
  t.scan(0, &lo, nullptr, false, [&](std::string_view, RowId r) {
    ids.push_back(std::get<int64_t>(t.read_row(r)[0]));
    return true;
  });
  EXPECT_EQ(ids, (std::vector<int64_t>{1}));
  // Old key gone.
  size_t alpha_hits = 0;
  Key alo{std::string("alpha")}, ahi{std::string("alpha")};
  t.scan(0, &alo, &ahi, false, [&](std::string_view, RowId) {
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
  a.scan(0, nullptr, nullptr, false, [&](std::string_view, RowId) {
    ++ca;
    return true;
  });
  b.scan(0, nullptr, nullptr, false, [&](std::string_view, RowId) {
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

// --- replica apply: changed-key re-index against the full re-index ---

// Index `index`'s entries in key order.
std::vector<std::pair<std::string, RowId>> index_entries(const Table& t,
                                                         int index) {
  std::vector<std::pair<std::string, RowId>> out;
  t.index_tree(index).scan_all([&](std::string_view k, RowId r) {
    out.emplace_back(k, r);
    return true;
  });
  return out;
}

void expect_same_indexes(const Table& a, const Table& b,
                         const std::string& what) {
  EXPECT_EQ(a.row_count(), b.row_count()) << what;
  for (int i = -1; i < int(a.secondary_count()); ++i) {
    EXPECT_EQ(index_entries(a, i), index_entries(b, i))
        << what << ", index " << i;
    EXPECT_TRUE(b.index_tree(i).check_invariants()) << what;
  }
}

// Rebuilding the indexes of a copy that still shares its trees swaps in
// fresh trees for it: the source keeps its trees, untouched, and the copy
// ends with the same entries and a working free list. Its rotation count
// is the one a table that shares nothing ends with after the same rebuild.
TEST(Table, RebuildOfASharedCopyLeavesTheSourceTrees) {
  const auto load = [] {
    Table t(0, "item", test_schema(), IndexDef{"pk", {0}, true},
            {IndexDef{"by_stock", {3}, false}});
    for (int i = 0; i < 300; ++i)
      t.insert_row(make_row(i, "n" + std::to_string(i), i * 0.5, i % 7));
    t.delete_row(*t.pk_find(Key{int64_t{5}}));
    return t;
  };
  Table image = load();
  const auto primary = index_entries(image, -1);
  const auto by_stock = index_entries(image, 0);
  const uint64_t rotations = image.index_rotations();
  Table unshared = load();
  unshared.rebuild_indexes();
  Table copy(image);
  copy.rebuild_indexes();
  EXPECT_EQ(image.index_rotations(), rotations);
  EXPECT_GT(copy.index_rotations(), rotations);
  EXPECT_EQ(copy.index_rotations(), unshared.index_rotations());
  for (int i = -1; i < 1; ++i) {
    EXPECT_NE(&copy.index_tree(i), &image.index_tree(i)) << i;
    EXPECT_TRUE(copy.index_tree(i).check_invariants()) << i;
  }
  EXPECT_EQ(index_entries(image, -1), primary);
  EXPECT_EQ(index_entries(image, 0), by_stock);
  expect_same_indexes(image, copy, "rebuilt copy");
  EXPECT_EQ(copy.peek_insert_slot(), image.peek_insert_slot());
  EXPECT_TRUE(copy.insert_row(make_row(5, "back", 1.0, 1)).has_value());
  EXPECT_FALSE(image.pk_find(Key{int64_t{5}}).has_value());
}

class ChangedKeyApply : public ::testing::TestWithParam<uint64_t> {};

// A master table changes through logical row operations; each round's
// page diffs go to one twin through the changed-key path
// (txn::apply_mod_indexed) and to the other through the full re-index
// (txn::apply_runs_reindex_all). Both twins must hold exactly the master's
// index entries and row count after every round.
TEST_P(ChangedKeyApply, MatchesFullReindex) {
  const auto make = [] {
    return Table(0, "item", test_schema(), IndexDef{"pk", {0}, true},
                 {IndexDef{"by_name", {1}, false},
                  IndexDef{"by_stock", {3}, false}});
  };
  Table master = make(), changed = make(), full = make();
  util::Rng rng(GetParam());
  std::vector<int64_t> ids;  // live primary keys, including 0 when live
  const auto fresh_id = [&] {
    for (;;) {
      const int64_t id = rng.between(1, 500);
      if (!master.pk_find(Key{id})) return id;
    }
  };
  const auto name = [&] { return "n" + std::to_string(rng.below(6)); };
  const auto pick = [&] { return ids[rng.below(ids.size())]; };
  const auto rid_of = [&](int64_t id) { return *master.pk_find(Key{id}); };
  const auto drop = [&](int64_t id) {
    master.delete_row(rid_of(id));
    ids.erase(std::find(ids.begin(), ids.end(), id));
  };
  std::set<RowId> used;  // slots that have held a row
  std::map<std::string, int> seen;  // how often each case came up
  const auto add = [&](const Row& row) {
    const auto rid = master.insert_row(row);
    ASSERT_TRUE(rid.has_value());
    if (!used.insert(*rid).second) ++seen["insert into a freed slot"];
    ids.push_back(std::get<int64_t>(row[0]));
  };
  for (int i = 0; i < 150; ++i)
    add(make_row(fresh_id(), name(), 1.0, int64_t(rng.below(9))));

  std::vector<Page> before;  // the master's pages as the twins hold them
  for (uint64_t round = 1; round <= 400; ++round) {
    // Round 1 ships the initial rows.
    const int ops = round == 1 ? 0 : 1 + int(rng.below(3));
    for (int op = 0; op < ops && ids.size() > 4; ++op) {
      const int64_t id = pick();
      Row row = master.read_row(rid_of(id));
      switch (rng.below(8)) {
        case 0:
          row[2] = double(rng.below(100));
          master.update_row(rid_of(id), row);
          ++seen["non-key update"];
          break;
        case 1:
          row[1] = name();
          row[3] = int64_t(rng.below(9));
          master.update_row(rid_of(id), row);
          ++seen["secondary-key change"];
          break;
        case 2:
          if (id == 0) break;  // the all-zero row keeps its key
          row[0] = fresh_id();
          master.update_row(rid_of(id), row);
          *std::find(ids.begin(), ids.end(), id) = std::get<int64_t>(row[0]);
          ++seen["PK change"];
          break;
        case 3:
          drop(id);
          ++seen["delete"];
          break;
        case 4: {
          // Free two slots of one page and re-insert the later one's row:
          // it lands in the first free slot, so its keys change slots.
          const RowId a = rid_of(id);
          const int64_t other = pick();
          const RowId b = rid_of(other);
          if (other == id || a.page != b.page) break;
          const Row moved = master.read_row(a < b ? b : a);
          drop(id);
          drop(other);
          add(moved);
          if (rid_of(std::get<int64_t>(moved[0])) != (a < b ? b : a))
            ++seen["key moved between slots"];
          break;
        }
        case 5: {
          // Two rows trade primary keys through a temporary one.
          const int64_t other = pick();
          if (other == id || id == 0 || other == 0) break;
          const RowId a = rid_of(id), b = rid_of(other);
          Row ra = row, rb = master.read_row(b);
          ra[0] = fresh_id();
          master.update_row(a, ra);
          rb[0] = id;
          master.update_row(b, rb);
          ra[0] = other;
          master.update_row(a, ra);
          ++seen["PK swap"];
          break;
        }
        case 6:
          add(make_row(fresh_id(), name(), 2.0, int64_t(rng.below(9))));
          ++seen["insert"];
          break;
        default:
          // The all-zero row: inserting or deleting it changes nothing
          // but its occupancy bit.
          if (master.pk_find(Key{int64_t{0}})) {
            drop(0);
          } else {
            add(make_row(0, "", 0.0, 0));
          }
          break;
      }
    }
    for (PageNo p = 0; p < master.page_count(); ++p) {
      const Page& old = p < before.size() ? before[p] : Page();
      txn::RunBuffer runs;
      if (txn::diff_pages(old, master.page(p), runs) == 0) continue;
      const txn::PageMod mod{{0, p}, round, runs.view()};
      const bool bitmap_only = std::all_of(
          runs.headers.begin(), runs.headers.end(),
          [](const txn::RunHeader& r) {
            return r.offset + r.len <= kPageHeader;
          });
      if (bitmap_only) ++seen["bitmap-only runs"];
      const size_t n = txn::apply_mod_indexed(changed, mod);
      full.ensure_page(p);
      EXPECT_EQ(txn::apply_runs_reindex_all(full, p, mod.runs), n);
    }
    const std::string what = "round " + std::to_string(round);
    expect_same_indexes(master, changed, what);
    expect_same_indexes(master, full, what);
    ASSERT_TRUE(master.pages_equal(changed)) << what;
    if (HasFailure()) return;
    before.clear();
    for (PageNo p = 0; p < master.page_count(); ++p)
      before.push_back(master.page(p));
  }
  for (const char* c :
       {"non-key update", "secondary-key change", "PK change", "delete",
        "key moved between slots", "PK swap", "insert", "bitmap-only runs",
        "insert into a freed slot"})
    EXPECT_GT(seen[c], 0) << c;
}

INSTANTIATE_TEST_SUITE_P(Seeds, ChangedKeyApply,
                         ::testing::Values(1, 2, 3, 42),
                         [](const ::testing::TestParamInfo<uint64_t>& info) {
                           return std::to_string(info.param);
                         });

// --- encoded keys ---

// The variant comparator the encoded keys replaced, kept as the reference
// their memcmp order must reproduce.
std::strong_ordering ref_compare(const Value& a, const Value& b) {
  if (const auto* ia = std::get_if<int64_t>(&a))
    return *ia <=> std::get<int64_t>(b);
  if (const auto* da = std::get_if<double>(&a)) {
    const double db = std::get<double>(b);
    if (*da < db) return std::strong_ordering::less;
    if (*da > db) return std::strong_ordering::greater;
    return std::strong_ordering::equal;
  }
  const int c = std::get<std::string>(a).compare(std::get<std::string>(b));
  return c < 0   ? std::strong_ordering::less
         : c > 0 ? std::strong_ordering::greater
                 : std::strong_ordering::equal;
}

std::strong_ordering ref_compare(const Key& a, const Key& b) {
  for (size_t i = 0; i < std::min(a.size(), b.size()); ++i)
    if (const auto c = ref_compare(a[i], b[i]); c != 0) return c;
  return a.size() <=> b.size();
}

// Compare `key` against `bound` over only bound's components (the prefix
// upper bound of a range scan).
std::strong_ordering ref_compare_prefix(const Key& key, const Key& bound) {
  for (size_t i = 0; i < std::min(key.size(), bound.size()); ++i)
    if (const auto c = ref_compare(key[i], bound[i]); c != 0) return c;
  if (bound.size() > key.size()) return std::strong_ordering::less;
  return std::strong_ordering::equal;
}

std::strong_ordering sign(int c) { return c <=> 0; }

std::strong_ordering enc_compare(std::string_view a, std::string_view b) {
  const int c = std::memcmp(a.data(), b.data(), std::min(a.size(), b.size()));
  return c != 0 ? sign(c) : a.size() <=> b.size();
}

Value random_value(const Column& c, util::Rng& rng) {
  switch (c.type) {
    case ColType::Int64: {
      static const int64_t kEdges[] = {INT64_MIN, INT64_MIN + 1, -256, -1, 0,
                                       1,         255,           256,  INT64_MAX};
      if (rng.chance(0.3)) return kEdges[rng.below(std::size(kEdges))];
      return rng.chance(0.5) ? rng.between(-20, 20) : int64_t(rng.next());
    }
    case ColType::Double: {
      constexpr double kInf = std::numeric_limits<double>::infinity();
      static const double kEdges[] = {-kInf, -1e300, -1.5, -0.0, 0.0,
                                      4.9e-324, 1.5, 1e300, kInf};
      if (rng.chance(0.4)) return kEdges[rng.below(std::size(kEdges))];
      return double(rng.between(-40, 40)) * 0.25;
    }
    case ColType::Chars: {
      // A small alphabet (with bytes above 0x7f) makes shared prefixes
      // and equal values common; lengths run up to and past the width.
      static const char kAlphabet[] = {'a', 'b', '~', '\x80', '\xff'};
      std::string v(rng.below(std::min<size_t>(c.width, 6) + 4), 'a');
      for (char& ch : v) ch = kAlphabet[rng.below(std::size(kAlphabet))];
      return v;
    }
  }
  return int64_t{0};
}

// The row as stored: what an index sees after the codec's width limits.
Row stored(const Schema& s, const Row& row) {
  std::vector<std::byte> image(s.row_size());
  s.encode(row, image);
  return s.decode(image);
}

Key key_of(const Row& row, const std::vector<size_t>& cols, size_t n) {
  Key k;
  for (size_t i = 0; i < n; ++i) k.push_back(row[cols[i]]);
  return k;
}

// For every index of `db`: encoded order equals the reference order of
// stored values, for full keys and prefix bounds alike, and the Row, image
// and Key encoders agree. Returns the number of indexes checked.
size_t check_encoded_order(const Database& db, util::Rng& rng) {
  size_t indexes = 0;
  for (TableId t = 0; t < db.table_count(); ++t) {
    const Table& tb = db.table(t);
    const Schema& s = tb.schema();
    for (int index = -1; index < int(tb.secondary_count()); ++index) {
      SCOPED_TRACE(tb.name() + " index " + std::to_string(index));
      ++indexes;
      const KeyLayout& layout = tb.index_layout(index);
      const std::vector<size_t>& cols = layout.cols();
      std::vector<Row> rows;
      for (int i = 0; i < 60; ++i) {
        Row r;
        for (size_t c = 0; c < s.column_count(); ++c)
          r.push_back(random_value(s.column(c), rng));
        // Copy columns of an earlier row now and then, so keys tie on
        // leading columns.
        if (!rows.empty() && rng.chance(0.5)) {
          const Row& o = rows[rng.below(rows.size())];
          for (size_t c = 0; c < r.size(); ++c)
            if (rng.chance(0.6)) r[c] = o[c];
        }
        rows.push_back(std::move(r));
      }
      std::vector<std::byte> image(s.row_size());
      for (const Row& a : rows) {
        s.encode(a, image);
        const KeyBuf ka = layout.from_row(a);
        EXPECT_EQ(ka.size(), layout.width());
        EXPECT_EQ(ka.view(), layout.from_image(image).view());
        EXPECT_EQ(ka.view(),
                  layout.from_key(key_of(a, cols, cols.size())).view());
        const Key full = key_of(stored(s, a), cols, cols.size());
        for (const Row& b : rows) {
          const Row sb = stored(s, b);
          EXPECT_EQ(enc_compare(ka.view(), layout.from_row(b).view()),
                    ref_compare(full, key_of(sb, cols, cols.size())));
          // b's first n columns as a short lo key and a hi prefix bound.
          const size_t n = 1 + rng.below(cols.size());
          const Key bound = key_of(sb, cols, n);
          const KeyBuf kb = layout.from_key(bound);
          EXPECT_EQ(enc_compare(ka.view(), kb.view()),
                    ref_compare(full, bound));
          EXPECT_EQ(sign(std::memcmp(ka.view().data(), kb.view().data(),
                                     kb.size())),
                    ref_compare_prefix(full, bound));
        }
      }
      // The tree's own comparator agrees: an in-order walk is strictly
      // increasing in memcmp order, and a prefix-bounded range holds
      // exactly the keys the reference puts inside it.
      RbTree tree(layout.width());
      std::set<std::string> distinct;
      for (const Row& r : rows) {
        tree.insert(layout.from_row(r).view(), RowId{});
        distinct.insert(std::string(layout.from_row(r).view()));
      }
      EXPECT_EQ(tree.size(), distinct.size());
      std::string prev;
      tree.scan_all([&](std::string_view k, RowId) {
        EXPECT_TRUE(prev.empty() || enc_compare(prev, k) < 0);
        prev = std::string(k);
        return true;
      });
      const Row sb = stored(s, rows[rng.below(rows.size())]);
      const Key lo = key_of(sb, cols, 1 + rng.below(cols.size()));
      const Key hi = key_of(sb, cols, 1 + rng.below(cols.size()));
      size_t want = 0, got = 0;
      std::set<std::string> seen;
      for (const Row& r : rows) {
        const Key k = key_of(stored(s, r), cols, cols.size());
        if (seen.insert(std::string(layout.from_row(r).view())).second &&
            ref_compare(k, lo) >= 0 && ref_compare_prefix(k, hi) <= 0)
          ++want;
      }
      tree.scan(layout.from_key(lo).view(), layout.from_key(hi).view(),
                [&](std::string_view, RowId) { return ++got > 0; });
      EXPECT_EQ(got, want);
    }
  }
  return indexes;
}

class KeyEncodingProperty : public ::testing::TestWithParam<workload::Kind> {};

TEST_P(KeyEncodingProperty, MemcmpOrderMatchesReference) {
  workload::Options opts;
  opts.kind = GetParam();
  Database db;
  workload::make_workload(opts)->build_schema(db);
  util::Rng rng(uint64_t(GetParam()) + 11);
  EXPECT_GT(check_encoded_order(db, rng), 0u);
}

INSTANTIATE_TEST_SUITE_P(Schemas, KeyEncodingProperty,
                         ::testing::Values(workload::Kind::Tpcw,
                                           workload::Kind::Ycsb,
                                           workload::Kind::Orders,
                                           workload::Kind::Scan));

// No workload indexes a double, so one synthetic table puts every column
// type in leading, middle and suffix key positions.
TEST(KeyEncoding, MixedTypeKeysMatchReference) {
  Database db;
  db.add_table("mixed",
               Schema({double_col("price"), char_col("tag", 5), int_col("n"),
                       double_col("w")}),
               IndexDef{"pk", {0, 2}, true},
               {IndexDef{"by_tag_w", {1, 3}, false},
                IndexDef{"by_w", {3}, false}});
  util::Rng rng(99);
  EXPECT_EQ(check_encoded_order(db, rng), 3u);
}

TEST(KeyEncoding, NegativeZeroEqualsZeroAndInfinitiesBound) {
  char neg[8], pos[8], lo[8], hi[8], one[8];
  encode_double(-0.0, neg);
  encode_double(0.0, pos);
  encode_double(-std::numeric_limits<double>::infinity(), lo);
  encode_double(std::numeric_limits<double>::infinity(), hi);
  encode_double(-1.0, one);
  EXPECT_EQ(std::memcmp(neg, pos, 8), 0);
  EXPECT_LT(std::memcmp(lo, one, 8), 0);
  EXPECT_LT(std::memcmp(one, neg, 8), 0);
  EXPECT_GT(std::memcmp(hi, pos, 8), 0);
}

TEST(KeyEncoding, CharsStopAtNulAndWidth) {
  char a[4], b[4];
  encode_chars(std::string("ab\0z", 4), 4, a);
  encode_chars("ab", 4, b);
  EXPECT_EQ(std::memcmp(a, b, 4), 0);
  encode_chars("abcdefgh", 4, a);
  encode_chars("abcd", 4, b);
  EXPECT_EQ(std::memcmp(a, b, 4), 0);
}

TEST(KeyEncoding, PrefixBoundsScanThroughTable) {
  // A (CHAR, INT) secondary index scanned with a one-column bound takes
  // every PK under the matching name, ascending and descending.
  Table t(0, "t", Schema({int_col("id"), char_col("name", 6), int_col("q")}),
          IndexDef{"pk", {0}, true}, {IndexDef{"by_name", {1, 2}, false}});
  const char* names[] = {"b", "ab", "abc", "a", "abc", "ab", "abcdef"};
  for (int64_t i = 0; i < 7; ++i)
    t.insert_row(Row{i, std::string(names[i]), int64_t(-i)});
  const Key lo{std::string("ab")}, hi{std::string("abc")};
  std::vector<int64_t> up, down;
  t.scan(0, &lo, &hi, false, [&](std::string_view, RowId r) {
    up.push_back(std::get<int64_t>(t.read_row(r)[0]));
    return true;
  });
  t.scan(0, &lo, &hi, true, [&](std::string_view, RowId r) {
    down.push_back(std::get<int64_t>(t.read_row(r)[0]));
    return true;
  });
  // ("ab",-5) ("ab",-1) ("abc",-4) ("abc",-2); "abcdef" is past the bound.
  EXPECT_EQ(up, (std::vector<int64_t>{5, 1, 4, 2}));
  EXPECT_EQ(down, (std::vector<int64_t>{2, 4, 1, 5}));
}

// Regression: the master indexed a CHAR key as the caller gave it, while a
// replica that rebuilt its indexes from the page indexed the stored,
// width-truncated value. Two inserts that collide once truncated both
// succeeded, and the rebuilt PK index then held one entry for two rows.
// Keys are now encoded through the column width on every path, so the
// second insert is a PK duplicate and both index builds agree.
TEST(Table, CharKeyIsIndexedAsStored) {
  Table t(0, "t", Schema({char_col("name", 4), int_col("v")}),
          IndexDef{"pk", {0}, true});
  const auto rid = t.insert_row(Row{std::string("abcdefgh"), int64_t{1}});
  ASSERT_TRUE(rid.has_value());
  EXPECT_FALSE(t.insert_row(Row{std::string("abcdXYZ"), int64_t{2}}));
  EXPECT_EQ(t.row_count(), 1u);
  for (int pass = 0; pass < 2; ++pass) {
    SCOPED_TRACE(pass == 0 ? "master indexes" : "rebuilt indexes");
    EXPECT_EQ(t.pk_find(Key{std::string("abcd")}), rid);
    EXPECT_EQ(t.pk_find(Key{std::string("abcdefgh")}), rid);
    EXPECT_EQ(t.primary_tree().size(), t.row_count());
    t.rebuild_indexes();
  }
}

// Guards the cost model's index_rotation charge: a fixed mix of inserts,
// deletes and updates over a composite (CHAR, INT) secondary index must
// rebalance exactly as the variant-keyed trees did. The golden values were
// recorded from the variant-keyed implementation.
TEST(Table, TreeShapesMatchVariantKeyedTrees) {
  Table t(0, "t",
          Schema({int_col("id"), char_col("name", 8), int_col("qty"),
                  double_col("price")}),
          IndexDef{"pk", {0}, true},
          {IndexDef{"by_name_qty", {1, 2}, false}});
  const char* names[] = {"ab", "abc", "abcdefgh", "b", "ba", "zz", "m", "mnop"};
  util::Rng rng(2024);
  auto make = [&](int64_t id) {
    return Row{id, std::string(names[rng.below(8)]), rng.between(-20, 20),
               double(rng.between(-4, 4)) * 0.5};
  };
  std::vector<RowId> rids;
  for (int64_t i = 0; i < 120; ++i) rids.push_back(*t.insert_row(make(i)));
  int64_t next_id = 1000;
  for (int step = 0; step < 200; ++step) {
    const RowId rid = rids[rng.below(rids.size())];
    if (!t.slot_occupied(rid)) {
      rids.push_back(*t.insert_row(make(next_id++)));
    } else if (rng.chance(0.4)) {
      t.delete_row(rid);
    } else {
      const int64_t id = std::get<int64_t>(t.read_row(rid)[0]);
      t.update_row(rid, make(rng.chance(0.2) ? next_id++ : id));
    }
  }
  EXPECT_EQ(t.row_count(), 83u);
  EXPECT_EQ(t.primary_tree().rotations(), 167u);
  EXPECT_EQ(t.index_tree(0).rotations(), 196u);
  std::vector<uint32_t> order;
  t.scan(0, nullptr, nullptr, false, [&](std::string_view, RowId r) {
    order.push_back(r.page * 1000 + r.slot);
    return true;
  });
  const std::vector<uint32_t> golden{
      45,  23, 58, 113, 69,  91,  33, 73,  59,  56,  63,  24, 9,   96,  28,
      40,  74, 78, 21,  61,  101, 12, 99,  106, 109, 64,  82, 19,  67,  5,
      18,  52, 37, 11,  87,  38,  13, 90,  39,  47,  17,  20, 1,   79,  42,
      10,  6,  3,  112, 25,  110, 2,  31,  7,   30,  46,  57, 71,  100, 29,
      0,   36, 83, 41,  22,  32,  70, 15,  66,  119, 108, 98, 14,  75,  80,
      35,  95, 116, 4,  89,  34,  27, 26};
  EXPECT_EQ(order, golden);
  EXPECT_TRUE(t.index_tree(0).check_invariants());
}

// --- scan results ---

TEST(Rows, AccessorsReadTheImage) {
  auto schema = std::make_shared<const Schema>(test_schema());
  Rows rows(schema);
  std::vector<std::byte> image(schema->row_size());
  schema->encode(make_row(7, "widget", 2.5, -3), image);
  rows.push_back(image);
  schema->encode(make_row(8, "a name of twenty chr", -0.5, 4), image);
  rows.push_back(image);
  ASSERT_EQ(rows.size(), 2u);
  EXPECT_EQ(rows[0].i(0), 7);
  EXPECT_EQ(rows[0].s(1), "widget");
  EXPECT_EQ(rows[0].d(2), 2.5);
  EXPECT_EQ(rows[0].i(3), -3);
  EXPECT_EQ(rows[1].s(1), "a name of twenty chr");  // exactly the width
  EXPECT_EQ(rows[1].row(), make_row(8, "a name of twenty chr", -0.5, 4));
  int64_t ids = 0;
  for (const RowRef r : rows) ids += r.i(0);
  EXPECT_EQ(ids, 15);
}

TEST(Rows, AppendConcatenatesAndOutlivesTheTable) {
  Rows all;
  {
    Table t(0, "item", test_schema(), IndexDef{"pk", {0}, true});
    for (int64_t i = 0; i < 5; ++i) t.insert_row(make_row(i, "x", 0, i));
    Rows part(t.schema_ptr());
    t.scan(-1, nullptr, nullptr, false, [&](std::string_view, RowId r) {
      part.push_back(t.row_image(r));
      return true;
    });
    all.append(part, 3);  // an empty Rows takes the schema
    all.append(part);
  }
  ASSERT_EQ(all.size(), 8u);
  std::vector<int64_t> ids;
  for (const RowRef r : all) ids.push_back(r.i(0));
  EXPECT_EQ(ids, (std::vector<int64_t>{0, 1, 2, 0, 1, 2, 3, 4}));
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

// --- base-image copies ---

Database small_tpcw() {
  tpcw::ScaleConfig scale;
  scale.items = 200;
  Database db;
  tpcw::build_schema(db);
  tpcw::load_tpcw(db, scale, 0);
  return db;
}

// Index `index` of `t` in key order, as (key bytes, RowId) pairs.
std::vector<std::pair<std::string, RowId>> entries(const Table& t,
                                                    int index) {
  std::vector<std::pair<std::string, RowId>> out;
  t.index_tree(index).scan_all([&](std::string_view k, RowId r) {
    out.emplace_back(std::string(k), r);
    return true;
  });
  return out;
}

// Everything a later operation's outcome or cost depends on.
void expect_same_state(const Database& a, const Database& b) {
  ASSERT_EQ(a.table_count(), b.table_count());
  EXPECT_TRUE(a.pages_equal(b));
  for (TableId id = 0; id < a.table_count(); ++id) {
    const Table& x = a.table(id);
    const Table& y = b.table(id);
    SCOPED_TRACE(x.name());
    EXPECT_EQ(x.page_count(), y.page_count());
    EXPECT_EQ(x.row_count(), y.row_count());
    EXPECT_EQ(x.peek_insert_slot(), y.peek_insert_slot());
    EXPECT_EQ(x.index_rotations(), y.index_rotations());
    for (int i = -1; i < int(x.secondary_count()); ++i) {
      EXPECT_EQ(entries(x, i), entries(y, i)) << "index " << i;
      EXPECT_TRUE(y.index_tree(i).check_invariants()) << "index " << i;
      EXPECT_EQ(x.index_tree(i).shape(), y.index_tree(i).shape())
          << "index " << i;
    }
  }
}

// Every node of a deployment starts as a copy of one generated image, so
// a copy must be indistinguishable from a fresh load — and stay so: the
// index_rotation charge of every later insert and erase depends on the
// trees' shapes.
TEST(Storage, DatabaseCopyIsExact) {
  const Database source = small_tpcw();
  Database fresh = small_tpcw();
  Database copy = source;
  ASSERT_GT(copy.total_rows(), 1000u);
  expect_same_state(fresh, copy);

  // The same deletes then re-inserts on both: freed slots are reused and
  // the trees rebalance through both fix-up paths.
  for (Database* db : {&fresh, &copy}) {
    for (TableId id = 0; id < db->table_count(); ++id) {
      Table& t = db->table(id);
      std::vector<RowId> victims;
      size_t n = 0;
      t.primary_tree().scan_all([&](std::string_view, RowId r) {
        if (n++ % 5 == 0) victims.push_back(r);
        return true;
      });
      std::vector<Row> rows;
      for (RowId r : victims) {
        rows.push_back(t.read_row(r));
        t.delete_row(r);
      }
      std::reverse(rows.begin(), rows.end());
      for (const Row& r : rows) ASSERT_TRUE(t.insert_row(r).has_value());
    }
  }
  expect_same_state(fresh, copy);
  EXPECT_FALSE(copy.pages_equal(source));  // the rows moved slots...
  expect_same_state(small_tpcw(), source);  // ...in the copy alone
}

// The `n`-th row of `t` in primary-key order.
RowId nth_row(const Table& t, size_t n) {
  RowId out;
  t.primary_tree().scan_all([&](std::string_view, RowId r) {
    out = r;
    return n-- > 0;
  });
  return out;
}

// `row` with a primary key no row of `t` has: the first integer column
// that is part of the key set to `id`.
Row with_new_pk(const Table& t, Row row, int64_t id) {
  const Key pk = t.primary_key_of(row);
  for (Value& v : row) {
    auto* i = std::get_if<int64_t>(&v);
    if (!i) continue;
    const int64_t was = std::exchange(*i, id);
    if (t.primary_key_of(row) != pk) return row;
    *i = was;
  }
  ADD_FAILURE() << t.name() << " has no integer key column";
  return row;
}

// `row` with one column outside the primary key changed (a secondary
// key may change with it).
Row with_new_value(const Table& t, Row row, util::Rng& rng) {
  const Key pk = t.primary_key_of(row);
  Value& v = row[rng.below(row.size())];
  const Value was = v;
  if (auto* i = std::get_if<int64_t>(&v))
    *i += int64_t(1 + rng.below(5));
  else if (auto* d = std::get_if<double>(&v))
    *d += 0.5;
  else
    v = "u" + std::to_string(rng.below(1000));
  if (t.primary_key_of(row) != pk) v = was;
  return row;
}

// A seeded mix of every way a node writes a table: logical inserts,
// updates (of keys too) and deletes as on a master; replicated page diffs
// applied with changed-entry or full re-indexing as on a slave (a slot
// swap moves a row, or fills or frees a slot); and an update or delete
// rolled back by undo. Two databases in the same state end in the same
// state.
void churn(Database& db, uint64_t seed) {
  util::Rng rng(seed);
  int64_t next_id = 1'000'000;
  for (uint64_t step = 0; step < 600; ++step) {
    Table& t = db.table(TableId(rng.below(db.table_count())));
    if (t.row_count() < 2) continue;
    const size_t row_size = t.schema().row_size();
    const RowId rid = nth_row(t, rng.below(t.row_count()));
    switch (rng.below(7)) {
      case 0:
        ASSERT_TRUE(t.insert_row(with_new_pk(t, t.read_row(rid), next_id++)));
        break;
      case 1:
        t.update_row(rid, with_new_value(t, t.read_row(rid), rng));
        break;
      case 2:
        t.update_row(rid, with_new_pk(t, t.read_row(rid), next_id++));
        break;
      case 3:
        t.delete_row(rid);
        break;
      case 4:
      case 5: {
        const Page& live = std::as_const(t).page(rid.page);
        Page after = live;
        const size_t other = rng.below(t.slots_per_page());
        const auto a = after.slot_bytes(rid.slot, row_size);
        const auto b = after.slot_bytes(other, row_size);
        std::swap_ranges(a.begin(), a.end(), b.begin());
        const bool b_was = after.occupied(other);
        after.set_occupied(other, true);
        after.set_occupied(rid.slot, b_was);
        txn::RunBuffer runs;
        txn::diff_pages(live, after, runs);
        const txn::PageMod mod{{t.id(), rid.page}, step, runs.view()};
        if (step % 2 == 0)
          txn::apply_mod_indexed(t, mod);
        else
          txn::apply_runs_reindex_all(t, rid.page, mod.runs);
        break;
      }
      default: {
        txn::TxnCtx txn(step, txn::TxnKind::Update);
        txn.capture_undo({t.id(), rid.page}, std::as_const(t).page(rid.page),
                         rid.slot, row_size);
        if (rng.chance(0.5))
          t.update_row(rid, with_new_value(t, t.read_row(rid), rng));
        else
          t.delete_row(rid);
        txn::undo_writes(db, txn);
        break;
      }
    }
  }
}

// Copies share their source's pages and trees until they write them.
// Churn on one copy must leave it exactly as the same churn leaves a
// fresh load, and must leave the image and a second copy unchanged; the
// second copy still shares all of the image, the written one the parts
// it did not write.
TEST(Table, CopyOnWriteMatchesFreshLoad) {
  const Database image = small_tpcw();
  Database written = image;
  const Database untouched = image;
  Database fresh = small_tpcw();
  churn(written, 7);
  churn(fresh, 7);
  if (HasFailure()) return;
  expect_same_state(fresh, written);
  EXPECT_FALSE(written.pages_equal(image));
  // Equal free-space sets: the next inserts land in the same slots.
  for (TableId id = 0; id < fresh.table_count(); ++id) {
    Table& f = fresh.table(id);
    Table& w = written.table(id);
    if (f.row_count() == 0) continue;
    const Row row = f.read_row(nth_row(f, 0));
    for (int64_t i = 0; i < 40; ++i) {
      const Row r = with_new_pk(f, row, 2'000'000 + i);
      ASSERT_EQ(f.insert_row(r), w.insert_row(r)) << f.name();
    }
  }
  expect_same_state(fresh, written);

  const Database reference = small_tpcw();
  expect_same_state(reference, image);
  expect_same_state(reference, untouched);
  size_t pages = 0, still_shared = 0;
  for (TableId id = 0; id < image.table_count(); ++id) {
    const Table& i = image.table(id);
    const Table& u = untouched.table(id);
    const Table& w = std::as_const(written).table(id);
    for (PageNo p = 0; p < i.page_count(); ++p) {
      EXPECT_EQ(&u.page(p), &i.page(p));
      ++pages;
      still_shared += &w.page(p) == &i.page(p);
    }
    for (int x = -1; x < int(i.secondary_count()); ++x)
      EXPECT_EQ(&u.index_tree(x), &i.index_tree(x));
  }
  EXPECT_GT(still_shared, 0u);
  EXPECT_LT(still_shared, pages);
}

}  // namespace
}  // namespace dmv::storage
