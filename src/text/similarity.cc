#include "text/similarity.h"

#include <cmath>
#include <cstdint>

namespace minoan {

size_t IntersectionSize(const std::vector<uint32_t>& a,
                        const std::vector<uint32_t>& b) {
  // Branch-light merge: each step is three flag adds instead of a
  // three-way compare the branch predictor has to guess, which is what the
  // set-overlap kernels spend their time on.
  const uint32_t* pa = a.data();
  const uint32_t* pb = b.data();
  const uint32_t* const ea = pa + a.size();
  const uint32_t* const eb = pb + b.size();
  size_t count = 0;
  while (pa < ea && pb < eb) {
    const uint32_t x = *pa;
    const uint32_t y = *pb;
    count += x == y;
    pa += x <= y;
    pb += y <= x;
  }
  return count;
}

double JaccardSimilarity(const std::vector<uint32_t>& a,
                         const std::vector<uint32_t>& b) {
  if (a.empty() && b.empty()) return 0.0;
  const size_t inter = IntersectionSize(a, b);
  const size_t uni = a.size() + b.size() - inter;
  return uni == 0 ? 0.0 : static_cast<double>(inter) / static_cast<double>(uni);
}

double WeightedCosineSimilarity(const std::vector<WeightedToken>& a,
                                const std::vector<WeightedToken>& b) {
  double dot = 0.0, norm_a = 0.0, norm_b = 0.0;
  for (const auto& t : a) norm_a += t.weight * t.weight;
  for (const auto& t : b) norm_b += t.weight * t.weight;
  if (norm_a == 0.0 || norm_b == 0.0) return 0.0;
  size_t i = 0, j = 0;
  while (i < a.size() && j < b.size()) {
    if (a[i].id < b[j].id) {
      ++i;
    } else if (b[j].id < a[i].id) {
      ++j;
    } else {
      dot += a[i].weight * b[j].weight;
      ++i;
      ++j;
    }
  }
  return dot / (std::sqrt(norm_a) * std::sqrt(norm_b));
}

}  // namespace minoan
