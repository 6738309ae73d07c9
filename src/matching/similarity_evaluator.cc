#include "matching/similarity_evaluator.h"

#include <cmath>

namespace minoan {

namespace {

/// Appends one weight per token of `desc` — tf · idf from the collection's
/// current document frequencies, 0.0 where idf ≤ 0 — and returns the
/// Euclidean norm of those weights. tf is the length of the token's run in
/// the sorted bag; walking `tokens` (not the bag) keeps the weights aligned
/// with the ids by construction.
double AppendProfileWeights(const EntityCollection& collection,
                            const EntityDescription& desc,
                            std::vector<double>& out) {
  const std::vector<uint32_t>& bag = desc.token_bag;  // sorted, with dups
  double norm = 0.0;
  size_t j = 0;
  for (const uint32_t token : desc.tokens) {
    size_t run = 0;
    for (; j < bag.size() && bag[j] == token; ++j) ++run;
    const double idf = collection.TokenIdf(token);
    const double weight = idf > 0.0 ? static_cast<double>(run) * idf : 0.0;
    out.push_back(weight);
    norm += weight * weight;
  }
  return std::sqrt(norm);
}

}  // namespace

ProfileView BuildProfileView(const EntityCollection& collection, EntityId e,
                             bool use_tfidf, std::vector<double>& weights) {
  const EntityDescription& desc = collection.entity(e);
  ProfileView view{desc.tokens.data(), nullptr, desc.tokens.size(), 0.0};
  if (use_tfidf) {
    weights.clear();
    view.norm = AppendProfileWeights(collection, desc, weights);
    view.weights = weights.data();
  }
  return view;
}

SimilarityEvaluator::SimilarityEvaluator(const EntityCollection& collection,
                                         SimilarityOptions options)
    : collection_(&collection), options_(options) {
  // Sized exactly up front: the arena is one allocation per array, with no
  // growth slack.
  size_t total = 0;
  for (const EntityDescription& desc : collection.entities()) {
    total += desc.tokens.size();
  }
  offsets_.reserve(collection.num_entities() + size_t{1});
  ids_.reserve(total);
  if (options_.use_tfidf) {
    weights_.reserve(total);
    norms_.reserve(collection.num_entities());
  }
  offsets_.push_back(0);
  for (const EntityDescription& desc : collection.entities()) {
    ids_.insert(ids_.end(), desc.tokens.begin(), desc.tokens.end());
    if (options_.use_tfidf) {
      norms_.push_back(AppendProfileWeights(collection, desc, weights_));
    }
    offsets_.push_back(ids_.size());
  }
}

}  // namespace minoan
