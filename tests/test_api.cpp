#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "api/api.hpp"
#include "util/assert.hpp"

namespace dmv::api {
namespace {

TEST(Params, SetAndGetTyped) {
  Params p;
  p.set("i", int64_t{42}).set("d", 2.5).set("s", std::string("x"));
  EXPECT_EQ(p.i("i"), 42);
  EXPECT_DOUBLE_EQ(p.d("d"), 2.5);
  EXPECT_EQ(p.s("s"), "x");
  EXPECT_TRUE(p.has("i"));
  EXPECT_FALSE(p.has("missing"));
}

TEST(Params, MissingKeyAsserts) {
  Params p;
  EXPECT_THROW(p.i("nope"), util::AssertionError);
}

TEST(Params, OverwriteReplaces) {
  Params p;
  p.set("k", int64_t{1});
  p.set("k", int64_t{2});
  EXPECT_EQ(p.i("k"), 2);
}

TEST(Params, CopyIsIndependent) {
  Params a;
  a.set("k", int64_t{1});
  Params b = a;
  b.set("k", int64_t{9});
  EXPECT_EQ(a.i("k"), 1);
  EXPECT_EQ(b.i("k"), 9);
}

TEST(Params, CopyThenSetOnEitherSideLeavesTheOtherUnchanged) {
  Params a;
  a.set("x", int64_t{1}).set("y", std::string("why"));
  Params b = a;  // shares a's entries until one side writes
  a.set("x", int64_t{2}).set("z", 3.5);
  EXPECT_EQ(b.i("x"), 1);
  EXPECT_FALSE(b.has("z"));
  EXPECT_EQ(b.s("y"), "why");
  Params c = b;
  c.set("y", std::string("changed")).set("w", int64_t{0});
  EXPECT_EQ(b.s("y"), "why");
  EXPECT_FALSE(b.has("w"));
  EXPECT_EQ(b.raw().size(), 2u);
  EXPECT_EQ(a.i("x"), 2);
  EXPECT_DOUBLE_EQ(a.d("z"), 3.5);
  EXPECT_EQ(a.s("y"), "why");
  EXPECT_EQ(c.s("y"), "changed");
  EXPECT_EQ(c.i("x"), 1);
}

TEST(Params, RawIsInKeyOrderWhateverTheSetOrder) {
  const std::vector<std::string> keys = {"q1", "amount", "i10", "c_id",
                                         "i2",  "i1",     "z",   "a"};
  Params fwd, rev;
  for (size_t k = 0; k < keys.size(); ++k)
    fwd.set(keys[k], int64_t(k));
  for (size_t k = keys.size(); k-- > 0;) rev.set(keys[k], int64_t(k));
  std::vector<std::string> sorted = keys;
  std::sort(sorted.begin(), sorted.end());
  for (const Params* p : {&fwd, &rev}) {
    std::vector<std::string> seen;
    for (const auto& [k, v] : p->raw()) seen.push_back(k);
    EXPECT_EQ(seen, sorted);
  }
  EXPECT_TRUE(Params{}.raw().empty());
}

TEST(Params, NewOrderShapeLookups) {
  // The order-entry workload's largest request: four scalars plus an item
  // and a quantity per order line, here 15 lines (34 keys).
  Params p;
  p.set("d_id", int64_t{3}).set("c_id", int64_t{44}).set("date", int64_t{9});
  p.set("lines", int64_t{15});
  for (int l = 0; l < 15; ++l) {
    p.set("i" + std::to_string(l), int64_t(100 + l));
    p.set("q" + std::to_string(l), int64_t(l % 10 + 1));
  }
  const Params copy = p;
  ASSERT_EQ(copy.raw().size(), 34u);
  for (int l = 0; l < 15; ++l) {
    EXPECT_EQ(copy.i("i" + std::to_string(l)), 100 + l);
    EXPECT_EQ(copy.i("q" + std::to_string(l)), l % 10 + 1);
  }
  EXPECT_EQ(copy.i("d_id"), 3);
  EXPECT_EQ(copy.i("c_id"), 44);
  EXPECT_EQ(copy.i("date"), 9);
  EXPECT_EQ(copy.i("lines"), 15);
  EXPECT_FALSE(copy.has("i15"));
  EXPECT_FALSE(copy.has("i"));
  EXPECT_THROW(copy.i("q15"), util::AssertionError);
}

TEST(ProcRegistry, RegisterFindContains) {
  ProcRegistry reg;
  ProcInfo info;
  info.read_only = true;
  info.tables = {1, 2};
  info.fn = [](Connection&, const Params&) -> sim::Task<TxnResult> {
    co_return TxnResult{};
  };
  reg.register_proc("p", info);
  EXPECT_TRUE(reg.contains("p"));
  EXPECT_FALSE(reg.contains("q"));
  EXPECT_EQ(reg.size(), 1u);
  const ProcInfo& found = reg.find("p");
  EXPECT_TRUE(found.read_only);
  EXPECT_EQ(found.tables.size(), 2u);
}

TEST(ProcRegistry, DuplicateNameAsserts) {
  ProcRegistry reg;
  ProcInfo info;
  reg.register_proc("p", info);
  EXPECT_THROW(reg.register_proc("p", info), util::AssertionError);
}

TEST(ProcRegistry, UnknownNameAsserts) {
  ProcRegistry reg;
  EXPECT_THROW(reg.find("nope"), util::AssertionError);
}

TEST(ProcRegistry, ForEachVisitsAll) {
  ProcRegistry reg;
  ProcInfo info;
  reg.register_proc("a", info);
  reg.register_proc("b", info);
  std::vector<std::string> names;
  reg.for_each(
      [&](const std::string& n, const ProcInfo&) { names.push_back(n); });
  EXPECT_EQ(names, (std::vector<std::string>{"a", "b"}));
}

TEST(ScanSpec, DefaultsAreOpenScan) {
  ScanSpec s;
  EXPECT_EQ(s.index, -1);
  EXPECT_FALSE(s.lo.has_value());
  EXPECT_FALSE(s.hi.has_value());
  EXPECT_EQ(s.limit, SIZE_MAX);
  EXPECT_FALSE(s.reverse);
  EXPECT_FALSE(static_cast<bool>(s.filter));
}

}  // namespace
}  // namespace dmv::api
