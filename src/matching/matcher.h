// Copyright 2026 The MinoanER Authors.
// Entity matching: executing comparisons and recording resolution runs.
//
// A ResolutionRun is the common currency between matchers (batch, baseline
// schedulers, the progressive resolver) and the evaluation module: the exact
// sequence of executed comparisons plus the matches found, each stamped with
// the number of comparisons executed up to that point. Progressive-recall
// curves, AUC, and the quality-aspect metrics are all computed from it.

#ifndef MINOAN_MATCHING_MATCHER_H_
#define MINOAN_MATCHING_MATCHER_H_

#include <cstdint>
#include <ostream>
#include <vector>

#include "blocking/block.h"
#include "kb/entity.h"
#include "matching/similarity_evaluator.h"
#include "matching/union_find.h"

namespace minoan {

/// One confirmed match, stamped with the comparison count at discovery.
struct MatchEvent {
  uint64_t comparisons_done;  // executed comparisons including this one
  EntityId a;
  EntityId b;
  double similarity;
};

/// The full record of one resolution execution.
struct ResolutionRun {
  uint64_t comparisons_executed = 0;
  std::vector<MatchEvent> matches;

  /// Transitive closure of the matches over `num_entities` descriptions.
  UnionFind BuildClosure(uint32_t num_entities) const;
};

/// Matching configuration shared by batch and progressive drivers.
struct MatcherOptions {
  /// Similarity at or above which a pair is declared a match.
  double threshold = 0.45;
  /// Optional cap on executed comparisons (0 = unlimited).
  uint64_t budget = 0;
};

/// Batch matcher: executes comparisons in the given order until the budget
/// is exhausted. The order *is* the schedule — baselines produce different
/// orders of the same comparison set.
class BatchMatcher {
 public:
  BatchMatcher(const SimilarityEvaluator& evaluator, MatcherOptions options)
      : evaluator_(&evaluator), options_(options) {}

  ResolutionRun Run(const std::vector<Comparison>& order) const;

 private:
  const SimilarityEvaluator* evaluator_;
  MatcherOptions options_;
};

/// Unique-mapping clustering for clean-clean ER: scans matches by descending
/// similarity and keeps a match only when neither endpoint is already mapped
/// to the other endpoint's KB. Returns the retained matches.
std::vector<MatchEvent> UniqueMappingClustering(
    const std::vector<MatchEvent>& matches, const EntityCollection& collection);

/// Writes UniqueMappingClustering(matches) as owl:sameAs N-Triples and
/// returns the link count. The one links writer: `minoan resolve`'s links
/// file, the served kLinks reply and the examples all render through it, so
/// they compare byte for byte.
size_t WriteSameAsLinks(const std::vector<MatchEvent>& matches,
                        const EntityCollection& collection, std::ostream& out);

}  // namespace minoan

#endif  // MINOAN_MATCHING_MATCHER_H_
