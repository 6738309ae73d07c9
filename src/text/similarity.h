// Copyright 2026 The MinoanER Authors.
// Token-set similarity kernels.
//
// MinoanER compares descriptions schema-agnostically, by the tokens they
// share. Set kernels operate on sorted unique uint32 id vectors (see
// SortUnique); the fused profile kernel (matching/similarity_evaluator.h)
// is bit-identical to w·WeightedCosineSimilarity + (1−w)·JaccardSimilarity.
// Similarities lie in [0, 1] with 1 = identical.

#ifndef MINOAN_TEXT_SIMILARITY_H_
#define MINOAN_TEXT_SIMILARITY_H_

#include <cstddef>
#include <cstdint>
#include <vector>

namespace minoan {

// ---------------------------------------------------------------------------
// Token-set kernels (inputs MUST be sorted and deduplicated).
// ---------------------------------------------------------------------------

/// |A ∩ B| for sorted unique vectors; the workhorse of every set kernel.
size_t IntersectionSize(const std::vector<uint32_t>& a,
                        const std::vector<uint32_t>& b);

/// Jaccard coefficient |A∩B| / |A∪B|. Empty∧empty → 0.
double JaccardSimilarity(const std::vector<uint32_t>& a,
                         const std::vector<uint32_t>& b);

/// A weighted-token entry: token id plus a weight (e.g. TF-IDF).
struct WeightedToken {
  uint32_t id;
  double weight;
};

/// Cosine over sparse weighted vectors sorted by id.
double WeightedCosineSimilarity(const std::vector<WeightedToken>& a,
                                const std::vector<WeightedToken>& b);

}  // namespace minoan

#endif  // MINOAN_TEXT_SIMILARITY_H_
