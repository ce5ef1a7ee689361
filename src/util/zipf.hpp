// Generalized zipfian sampling, shared by every consumer of skewed draws
// (conflict-class client pinning, the YCSB hot-key chooser, checker key
// skew). P(rank r) is proportional to 1/(r+1)^theta; theta 0 is uniform.
//
// Two regimes behind one interface:
//  - small n: an exact inverse-CDF table, built once at construction (the
//    old tpcw::zipf_shard rebuilt this normalization on every call);
//  - large n: the Gray et al. zeta-function method (the YCSB generator),
//    O(n) once at construction and O(1) per sample, valid for theta < 1.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "util/rng.hpp"

namespace dmv::util {

class Zipf {
 public:
  Zipf(size_t n, double theta);

  // Inverse CDF: maps a uniform u in [0,1) to a rank in [0, n).
  // Rank 0 is the most probable.
  size_t rank(double u) const;

  // Draw a rank using the given rng.
  size_t sample(Rng& rng) const { return rank(rng.uniform01()); }

  size_t n() const { return n_; }
  double theta() const { return theta_; }

  // Exact tables up to this size; the zeta method beyond.
  static constexpr size_t kTableMax = 4096;

 private:
  size_t n_;
  double theta_;
  std::vector<double> cdf_;  // exact regime: cdf_[r] = P(rank <= r)
  // Zeta regime (Gray et al., "Quickly generating billion-record
  // synthetic databases"), used when n > kTableMax.
  double zetan_ = 0, alpha_ = 0, eta_ = 0, p0_ = 0, p1_ = 0;
};

// Deterministic zipfian assignment of a fixed key to one of sampler.n()
// slots: hashes the key to a uniform and inverts the sampler's CDF. Theta
// 0 assigns round-robin by key (key % n). The caller owns the sampler, so
// repeated picks cost O(log n) and no state outlives a run.
size_t zipf_pick(uint64_t key, const Zipf& sampler);

}  // namespace dmv::util
