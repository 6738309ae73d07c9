// Copyright 2026 The MinoanER Authors.
// Description-level similarity evaluation.
//
// The entity-matching phase compares two descriptions by the content of
// their profiles. The evaluator combines a token-set Jaccard (robust to
// value fragmentation across predicates) with a TF-IDF weighted cosine
// (discounts ubiquitous tokens), both schema-agnostic. Neighbor evidence
// from the progressive update phase is added *on top* by the resolver, not
// here.
//
// Both progressive loops (the batch resolver through SimilarityEvaluator,
// the online engine through BuildProfileView) score a pair with the same
// ProfileSimilarity kernel: one merge over the two profiles' sorted token
// ids that counts |A∩B| and sums the TF-IDF dot product together. It is
// bit-identical to the reference kernels in text/similarity.h —
// w·WeightedCosineSimilarity + (1−w)·JaccardSimilarity over per-entity
// vectors that keep only idf > 0 tokens:
//   - shared ids are visited in the same ascending order;
//   - an idf ≤ 0 token carries weight +0.0, so it adds exactly +0.0 to the
//     dot product and to its profile's squared norm;
//   - each norm is summed in token order before one correctly rounded sqrt,
//     exactly what the reference computes per call.

#ifndef MINOAN_MATCHING_SIMILARITY_EVALUATOR_H_
#define MINOAN_MATCHING_SIMILARITY_EVALUATOR_H_

#include <cstddef>
#include <cstdint>
#include <vector>

#include "kb/collection.h"
#include "kb/entity.h"

namespace minoan {

/// Configuration of the profile similarity.
struct SimilarityOptions {
  /// Convex combination: sim = w · cosine_tfidf + (1-w) · jaccard.
  double tfidf_weight = 0.5;
  /// When false, only the unweighted Jaccard is computed (cheaper).
  bool use_tfidf = true;
};

/// One entity's profile as the kernel reads it: its sorted unique token ids
/// with aligned tf·idf weights (0.0 where idf ≤ 0) and the Euclidean norm of
/// those weights. `weights` is null when TF-IDF is off.
struct ProfileView {
  const uint32_t* ids = nullptr;
  const double* weights = nullptr;
  size_t size = 0;
  double norm = 0.0;
};

/// Profile similarity in [0, 1]: w · cosine + (1−w) · jaccard, or the
/// Jaccard alone when options.use_tfidf is false (the views' weights are
/// then never read).
inline double ProfileSimilarity(const ProfileView& a, const ProfileView& b,
                                const SimilarityOptions& options) {
  const uint32_t* const ids_a = a.ids;
  const uint32_t* const ids_b = b.ids;
  size_t i = 0, j = 0, shared = 0;
  double dot = 0.0;
  if (options.use_tfidf) {
    while (i < a.size && j < b.size) {
      const uint32_t x = ids_a[i];
      const uint32_t y = ids_b[j];
      if (x == y) {
        ++shared;
        dot += a.weights[i] * b.weights[j];
      }
      i += x <= y;
      j += y <= x;
    }
  } else {
    // Branch-light merge: three flag adds per step instead of a three-way
    // compare the branch predictor has to guess.
    while (i < a.size && j < b.size) {
      const uint32_t x = ids_a[i];
      const uint32_t y = ids_b[j];
      shared += x == y;
      i += x <= y;
      j += y <= x;
    }
  }
  const size_t uni = a.size + b.size - shared;
  const double jaccard =
      uni == 0 ? 0.0
               : static_cast<double>(shared) / static_cast<double>(uni);
  if (!options.use_tfidf) return jaccard;
  const double cosine =
      a.norm == 0.0 || b.norm == 0.0 ? 0.0 : dot / (a.norm * b.norm);
  return options.tfidf_weight * cosine +
         (1.0 - options.tfidf_weight) * jaccard;
}

/// Builds `e`'s view against the collection's CURRENT document frequencies
/// (the online engine's vocabulary grows with every ingest, so its views
/// are built per comparison). The ids point into the entity's token list,
/// the weights into `weights`, which is overwritten; without `use_tfidf`
/// the view carries ids only. Weights and norm are bit-identical to the
/// row a SimilarityEvaluator over the same collection state holds.
ProfileView BuildProfileView(const EntityCollection& collection, EntityId e,
                             bool use_tfidf, std::vector<double>& weights);

/// Immutable similarity oracle over one collection. Construction lays every
/// entity's profile out in one flat arena; Similarity() is then
/// allocation-free and thread-safe.
class SimilarityEvaluator {
 public:
  SimilarityEvaluator(const EntityCollection& collection,
                      SimilarityOptions options);
  explicit SimilarityEvaluator(const EntityCollection& collection)
      : SimilarityEvaluator(collection, SimilarityOptions{}) {}

  /// Profile similarity in [0, 1].
  double Similarity(EntityId a, EntityId b) const {
    return ProfileSimilarity(View(a), View(b), options_);
  }

  /// The token-set Jaccard component alone.
  double TokenJaccard(EntityId a, EntityId b) const;

  /// The TF-IDF cosine component alone (0 when disabled).
  double TfIdfCosine(EntityId a, EntityId b) const;

  /// Entity `e`'s arena row.
  ProfileView View(EntityId e) const {
    const size_t begin = offsets_[e];
    return ProfileView{ids_.data() + begin,
                       weights_.empty() ? nullptr : weights_.data() + begin,
                       offsets_[e + 1] - begin,
                       norms_.empty() ? 0.0 : norms_[e]};
  }

  const EntityCollection& collection() const { return *collection_; }

 private:
  const EntityCollection* collection_;
  SimilarityOptions options_;
  /// The profile arena, CSR over entity ids: entity e's token ids are
  /// ids_[offsets_[e], offsets_[e + 1]), its weights the same range of
  /// weights_, its norm norms_[e]. weights_ and norms_ stay empty when
  /// TF-IDF is off.
  std::vector<size_t> offsets_;
  std::vector<uint32_t> ids_;
  std::vector<double> weights_;
  std::vector<double> norms_;
};

}  // namespace minoan

#endif  // MINOAN_MATCHING_SIMILARITY_EVALUATOR_H_
