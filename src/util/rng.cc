#include "util/rng.h"

#include <algorithm>
#include <cassert>
#include <cmath>

namespace minoan {

uint64_t Rng::Below(uint64_t bound) {
  assert(bound > 0);
  // Lemire's method: multiply-shift with rejection of the biased low range.
  uint64_t x = (*this)();
  __uint128_t m = static_cast<__uint128_t>(x) * bound;
  uint64_t low = static_cast<uint64_t>(m);
  if (low < bound) {
    uint64_t threshold = (0 - bound) % bound;
    while (low < threshold) {
      x = (*this)();
      m = static_cast<__uint128_t>(x) * bound;
      low = static_cast<uint64_t>(m);
    }
  }
  return static_cast<uint64_t>(m >> 64);
}

int64_t Rng::Uniform(int64_t lo, int64_t hi) {
  assert(lo <= hi);
  uint64_t span = static_cast<uint64_t>(hi - lo) + 1;
  return lo + static_cast<int64_t>(Below(span));
}

ZipfSampler::ZipfSampler(uint32_t n, double s) {
  assert(n > 0);
  cdf_.resize(n);
  double total = 0.0;
  for (uint32_t k = 0; k < n; ++k) {
    total += 1.0 / std::pow(static_cast<double>(k + 1), s);
    cdf_[k] = total;
  }
  for (auto& c : cdf_) c /= total;
  cdf_.back() = 1.0;  // guard against rounding drift
}

uint32_t ZipfSampler::Sample(Rng& rng) const {
  double u = rng.NextDouble();
  auto it = std::lower_bound(cdf_.begin(), cdf_.end(), u);
  return static_cast<uint32_t>(it - cdf_.begin());
}

double ZipfSampler::Pmf(uint32_t k) const {
  assert(k < cdf_.size());
  return k == 0 ? cdf_[0] : cdf_[k] - cdf_[k - 1];
}

}  // namespace minoan
