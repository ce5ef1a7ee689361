#include <gtest/gtest.h>

#include <cmath>
#include <list>
#include <map>
#include <optional>
#include <set>
#include <unordered_map>
#include <vector>

#include "util/lru.hpp"
#include "util/metrics.hpp"
#include "util/rng.hpp"
#include "util/zipf.hpp"

namespace dmv::util {
namespace {

TEST(Rng, DeterministicForSeed) {
  Rng a(42), b(42);
  for (int i = 0; i < 1000; ++i) EXPECT_EQ(a.next(), b.next());
}

TEST(Rng, DifferentSeedsDiverge) {
  Rng a(1), b(2);
  int equal = 0;
  for (int i = 0; i < 100; ++i)
    if (a.next() == b.next()) ++equal;
  EXPECT_LT(equal, 3);
}

TEST(Rng, BelowStaysInRange) {
  Rng r(7);
  for (int i = 0; i < 10000; ++i) EXPECT_LT(r.below(17), 17u);
}

TEST(Rng, BetweenInclusive) {
  Rng r(7);
  std::set<int64_t> seen;
  for (int i = 0; i < 10000; ++i) {
    int64_t v = r.between(-3, 3);
    EXPECT_GE(v, -3);
    EXPECT_LE(v, 3);
    seen.insert(v);
  }
  EXPECT_EQ(seen.size(), 7u);  // all values hit
}

TEST(Rng, Uniform01Bounds) {
  Rng r(9);
  for (int i = 0; i < 10000; ++i) {
    double v = r.uniform01();
    EXPECT_GE(v, 0.0);
    EXPECT_LT(v, 1.0);
  }
}

TEST(Rng, ExponentialMeanRoughlyCorrect) {
  Rng r(11);
  double sum = 0;
  const int n = 200000;
  for (int i = 0; i < n; ++i) sum += r.exponential(7.0);
  EXPECT_NEAR(sum / n, 7.0, 0.15);
}

TEST(Rng, NurandWithinRange) {
  Rng r(13);
  for (int i = 0; i < 10000; ++i) {
    int64_t v = r.nurand(255, 1, 1000);
    EXPECT_GE(v, 1);
    EXPECT_LE(v, 1000);
  }
}

TEST(Rng, NurandIsSkewed) {
  // NURand should concentrate mass relative to uniform: the most popular
  // decile should receive clearly more than 10% of draws.
  Rng r(17);
  std::map<int64_t, int> hist;
  for (int i = 0; i < 100000; ++i) hist[r.nurand(255, 1, 1000) / 100]++;
  int max_bucket = 0;
  for (auto& [k, v] : hist) max_bucket = std::max(max_bucket, v);
  EXPECT_GT(max_bucket, 12000);
}

TEST(Rng, WeightedRespectsZeroWeight) {
  Rng r(19);
  std::vector<double> w{0.0, 1.0, 0.0};
  for (int i = 0; i < 1000; ++i) EXPECT_EQ(r.weighted(w), 1u);
}

TEST(Rng, WeightedProportions) {
  Rng r(21);
  std::vector<double> w{1.0, 3.0};
  int c1 = 0;
  const int n = 100000;
  for (int i = 0; i < n; ++i)
    if (r.weighted(w) == 1) ++c1;
  EXPECT_NEAR(double(c1) / n, 0.75, 0.02);
}

TEST(Rng, SplitStreamsIndependent) {
  Rng a(5);
  Rng b = a.split();
  EXPECT_NE(a.next(), b.next());
}

TEST(Lru, HitAndMiss) {
  LruSet<int> lru(2);
  EXPECT_FALSE(lru.touch(1).hit);
  EXPECT_TRUE(lru.touch(1).hit);
  EXPECT_FALSE(lru.touch(2).hit);
  EXPECT_EQ(lru.size(), 2u);
}

TEST(Lru, EvictsLeastRecentlyUsed) {
  LruSet<int> lru(2);
  lru.touch(1);
  lru.touch(2);
  lru.touch(1);                    // order now: 1, 2
  auto r = lru.touch(3);           // evicts 2
  ASSERT_TRUE(r.evicted.has_value());
  EXPECT_EQ(*r.evicted, 2);
  EXPECT_TRUE(lru.contains(1));
  EXPECT_FALSE(lru.contains(2));
}

TEST(Lru, KeysMruOrder) {
  LruSet<int> lru(3);
  lru.touch(1);
  lru.touch(2);
  lru.touch(3);
  lru.touch(1);
  auto keys = lru.keys_mru();
  ASSERT_EQ(keys.size(), 3u);
  EXPECT_EQ(keys[0], 1);
  EXPECT_EQ(keys[1], 3);
  EXPECT_EQ(keys[2], 2);
}

// The list + hash-map LRU that LruSet replaced, kept as the model its
// hit/miss verdicts, victims and MRU order are checked against.
template <typename K>
class ReferenceLru {
 public:
  explicit ReferenceLru(size_t capacity) : capacity_(capacity) {}

  typename LruSet<K>::TouchResult touch(const K& key) {
    typename LruSet<K>::TouchResult r;
    auto it = index_.find(key);
    if (it != index_.end()) {
      order_.splice(order_.begin(), order_, it->second);
      r.hit = true;
      return r;
    }
    order_.push_front(key);
    index_[key] = order_.begin();
    if (order_.size() > capacity_) {
      r.evicted = order_.back();
      index_.erase(order_.back());
      order_.pop_back();
    }
    return r;
  }
  bool contains(const K& key) const { return index_.count(key) > 0; }
  void clear() {
    order_.clear();
    index_.clear();
  }
  size_t size() const { return order_.size(); }
  std::vector<K> keys_mru() const {
    return std::vector<K>(order_.begin(), order_.end());
  }

 private:
  size_t capacity_;
  std::list<K> order_;
  std::unordered_map<K, typename std::list<K>::iterator> index_;
};

// Random touch/contains/clear sequences: LruSet and the reference agree
// after every operation. Few keys per capacity, so hits, MRU re-touches
// and evictions all come up often.
TEST(Lru, MatchesReferenceModel) {
  Rng rng(2024);
  for (size_t cap = 1; cap <= 8; ++cap) {
    for (int round = 0; round < 20; ++round) {
      LruSet<unsigned> lru(cap);
      ReferenceLru<unsigned> ref(cap);
      const uint64_t keys = 2 * cap + 2;
      for (int op = 0; op < 400; ++op) {
        const unsigned k = unsigned(rng.below(keys));
        const uint64_t pick = rng.below(100);
        if (pick < 75) {
          const auto got = lru.touch(k);
          const auto want = ref.touch(k);
          ASSERT_EQ(got.hit, want.hit) << "cap " << cap << " op " << op;
          ASSERT_EQ(got.evicted, want.evicted)
              << "cap " << cap << " op " << op;
        } else if (pick < 98) {
          ASSERT_EQ(lru.contains(k), ref.contains(k))
              << "cap " << cap << " op " << op;
        } else {
          lru.clear();
          ref.clear();
        }
        ASSERT_EQ(lru.size(), ref.size()) << "cap " << cap << " op " << op;
        ASSERT_EQ(lru.keys_mru(), ref.keys_mru())
            << "cap " << cap << " op " << op;
      }
    }
  }
}

TEST(Histogram, BasicStats) {
  Histogram h;
  for (double v : {1.0, 2.0, 3.0, 4.0}) h.record(v);
  EXPECT_EQ(h.count(), 4u);
  EXPECT_DOUBLE_EQ(h.mean(), 2.5);
  EXPECT_DOUBLE_EQ(h.min(), 1.0);
  EXPECT_DOUBLE_EQ(h.max(), 4.0);
}

TEST(Histogram, Quantiles) {
  Histogram h;
  for (int i = 1; i <= 100; ++i) h.record(double(i));
  EXPECT_DOUBLE_EQ(h.quantile(0.5), 50.0);
  EXPECT_DOUBLE_EQ(h.quantile(0.99), 99.0);
  EXPECT_DOUBLE_EQ(h.quantile(1.0), 100.0);
  EXPECT_DOUBLE_EQ(h.quantile(0.0), 1.0);
}

TEST(Histogram, EmptyIsZero) {
  Histogram h;
  EXPECT_EQ(h.count(), 0u);
  EXPECT_DOUBLE_EQ(h.mean(), 0.0);
  EXPECT_DOUBLE_EQ(h.quantile(0.5), 0.0);
  EXPECT_DOUBLE_EQ(h.quantile(0.0), 0.0);
  EXPECT_DOUBLE_EQ(h.quantile(1.0), 0.0);
  EXPECT_DOUBLE_EQ(h.min(), 0.0);
  EXPECT_DOUBLE_EQ(h.max(), 0.0);
}

TEST(Histogram, SingleSampleEveryQuantile) {
  Histogram h;
  h.record(42.0);
  EXPECT_EQ(h.count(), 1u);
  EXPECT_DOUBLE_EQ(h.mean(), 42.0);
  EXPECT_DOUBLE_EQ(h.min(), 42.0);
  EXPECT_DOUBLE_EQ(h.max(), 42.0);
  for (double q : {0.0, 0.5, 0.95, 0.99, 1.0})
    EXPECT_DOUBLE_EQ(h.quantile(q), 42.0);
}

TEST(Histogram, RecordAfterQueryResorts) {
  Histogram h;
  h.record(5.0);
  EXPECT_DOUBLE_EQ(h.quantile(1.0), 5.0);
  h.record(1.0);  // arrives out of order after a sorted query
  EXPECT_DOUBLE_EQ(h.quantile(0.0), 1.0);
  EXPECT_DOUBLE_EQ(h.quantile(1.0), 5.0);
}

TEST(Histogram, ClearResets) {
  Histogram h;
  h.record(3.0);
  h.clear();
  EXPECT_EQ(h.count(), 0u);
  EXPECT_DOUBLE_EQ(h.quantile(0.5), 0.0);
}

TEST(Zipf, ThetaZeroIsUniform) {
  Zipf z(10, 0.0);
  EXPECT_EQ(z.rank(0.0), 0u);
  EXPECT_EQ(z.rank(0.05), 0u);
  EXPECT_EQ(z.rank(0.35), 3u);
  EXPECT_EQ(z.rank(0.999), 9u);
}

TEST(Zipf, RankStaysInRangeAndIsMonotone) {
  for (size_t n : {1u, 2u, 7u, 4096u, 5000u}) {
    Zipf z(n, 0.85);
    size_t prev = 0;
    for (double u = 0.0; u < 1.0; u += 0.001) {
      const size_t r = z.rank(u);
      ASSERT_LT(r, n);
      ASSERT_GE(r, prev);  // the inverse CDF never goes backwards
      prev = r;
    }
    EXPECT_EQ(z.rank(1.0), n - 1);  // clamped, not out of range
  }
}

TEST(Zipf, ExactTableMatchesAnalyticCdf) {
  // Small-n regime: rank(u) must be the exact inverse of the analytic
  // CDF with P(r) proportional to 1/(r+1)^theta — the brute-force walk
  // the old per-call tpcw::zipf_shard did.
  const size_t n = 16;
  const double theta = 1.1;
  Zipf z(n, theta);
  double norm = 0;
  for (size_t r = 0; r < n; ++r) norm += std::pow(double(r + 1), -theta);
  Rng rng(23);
  for (int i = 0; i < 20000; ++i) {
    const double u = rng.uniform01();
    size_t expect = n - 1;
    double acc = 0;
    for (size_t r = 0; r < n; ++r) {
      acc += std::pow(double(r + 1), -theta) / norm;
      if (u < acc) {
        expect = r;
        break;
      }
    }
    ASSERT_EQ(z.rank(u), expect) << "u=" << u;
  }
}

TEST(Zipf, ZetaRegimeConcentratesOnHead) {
  // Large-n regime (Gray et al. zeta method): rank 0 must receive about
  // 1/zeta(n) of the mass, far above uniform.
  const size_t n = Zipf::kTableMax * 2;
  Zipf z(n, 0.85);
  Rng rng(29);
  const int draws = 100000;
  int head = 0;
  for (int i = 0; i < draws; ++i)
    if (z.sample(rng) == 0) ++head;
  EXPECT_GT(head, draws / 100);       // ~4% expected; uniform is 0.012%
  EXPECT_LT(head, draws / 10);
}

TEST(ZipfPick, DeterministicAndInRange) {
  const Zipf z(8, 0.9);
  for (uint64_t k = 0; k < 200; ++k) {
    const size_t s = zipf_pick(k, z);
    EXPECT_LT(s, 8u);
    EXPECT_EQ(s, zipf_pick(k, Zipf(8, 0.9)));
  }
  EXPECT_EQ(zipf_pick(123, Zipf(1, 0.9)), 0u);
  EXPECT_EQ(zipf_pick(123, Zipf(5, 0.0)), 123u % 5);
}

TEST(ZipfPick, SkewMakesSlotZeroHot) {
  const Zipf z(4, 1.1);
  int hot = 0;
  const int n = 10000;
  for (uint64_t k = 0; k < n; ++k)
    if (zipf_pick(k, z) == 0) ++hot;
  EXPECT_GT(hot, n / 3);  // uniform would give 25%
}

TEST(ZipfPick, InterleavedSamplersStayIndependent) {
  // Picks depend only on the key and the caller's sampler: alternating
  // between two samplers changes neither one's answers.
  const Zipf a(4, 0.9), b(8, 0.5);
  const size_t pa = zipf_pick(7, a);
  const size_t pb = zipf_pick(7, b);
  EXPECT_EQ(zipf_pick(7, a), pa);
  EXPECT_EQ(zipf_pick(7, b), pb);
}

TEST(TimeSeries, BucketsEvents) {
  TimeSeries ts(1'000'000);  // 1s buckets
  ts.record(100, 5.0);
  ts.record(900'000, 7.0);
  ts.record(1'500'000, 1.0);
  ASSERT_EQ(ts.buckets().size(), 2u);
  EXPECT_EQ(ts.buckets()[0].count, 2u);
  EXPECT_DOUBLE_EQ(ts.buckets()[0].mean(), 6.0);
  EXPECT_EQ(ts.buckets()[1].count, 1u);
  EXPECT_DOUBLE_EQ(ts.rate_per_sec(ts.buckets()[0]), 2.0);
}

TEST(TimeSeries, SparseGapsArePresent) {
  TimeSeries ts(1'000'000);
  ts.record(0, 1.0);
  ts.record(5'000'000, 1.0);
  ASSERT_EQ(ts.buckets().size(), 6u);
  EXPECT_EQ(ts.buckets()[3].count, 0u);
  EXPECT_EQ(ts.buckets()[3].start_us, 3'000'000u);
}

}  // namespace
}  // namespace dmv::util
