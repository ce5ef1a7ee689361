#include "util/zipf.hpp"

#include <algorithm>
#include <cmath>

#include "util/assert.hpp"

namespace dmv::util {

namespace {

double zeta(size_t n, double theta) {
  double z = 0;
  for (size_t i = 0; i < n; ++i) z += std::pow(double(i + 1), -theta);
  return z;
}

}  // namespace

Zipf::Zipf(size_t n, double theta) : n_(n), theta_(theta) {
  DMV_ASSERT(n > 0);
  DMV_ASSERT(theta >= 0);
  if (theta_ == 0) return;  // uniform: no tables needed
  if (n_ <= kTableMax) {
    cdf_.reserve(n_);
    const double norm = zeta(n_, theta_);
    double acc = 0;
    for (size_t r = 0; r < n_; ++r) {
      acc += std::pow(double(r + 1), -theta_) / norm;
      cdf_.push_back(acc);
    }
    cdf_.back() = 1.0;  // guard against rounding shortfall
    return;
  }
  // Zeta method; the closed form requires theta < 1 (YCSB's default 0.99).
  DMV_ASSERT_MSG(theta_ < 1.0, "zipf zeta method requires theta < 1");
  zetan_ = zeta(n_, theta_);
  alpha_ = 1.0 / (1.0 - theta_);
  eta_ = (1.0 - std::pow(2.0 / double(n_), 1.0 - theta_)) /
         (1.0 - zeta(2, theta_) / zetan_);
  p0_ = 1.0 / zetan_;
  p1_ = p0_ * (1.0 + std::pow(0.5, theta_));
}

size_t Zipf::rank(double u) const {
  if (u < 0) u = 0;
  if (u >= 1) u = std::nextafter(1.0, 0.0);
  if (theta_ == 0) return size_t(u * double(n_));
  if (!cdf_.empty()) {
    const auto it = std::upper_bound(cdf_.begin(), cdf_.end(), u);
    return it == cdf_.end() ? n_ - 1 : size_t(it - cdf_.begin());
  }
  if (u < p0_) return 0;
  if (u < p1_) return 1;
  const size_t r =
      size_t(double(n_) * std::pow(eta_ * u - eta_ + 1.0, alpha_));
  return std::min(r, n_ - 1);
}

size_t zipf_pick(uint64_t key, const Zipf& sampler) {
  if (sampler.theta() == 0) return size_t(key % sampler.n());
  // splitmix-style hash to a uniform in [0,1); deterministic in the key.
  uint64_t z = key + 0x9e3779b97f4a7c15ull;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  z ^= z >> 31;
  const double u = double(z >> 11) / double(1ull << 53);
  return sampler.rank(u);
}

}  // namespace dmv::util
