#include "matching/matcher.h"

#include <algorithm>
#include <unordered_set>

#include "rdf/ntriples.h"
#include "util/hash.h"

namespace minoan {

UnionFind ResolutionRun::BuildClosure(uint32_t num_entities) const {
  UnionFind uf(num_entities);
  for (const MatchEvent& m : matches) {
    uf.Union(m.a, m.b);
  }
  return uf;
}

ResolutionRun BatchMatcher::Run(const std::vector<Comparison>& order) const {
  ResolutionRun run;
  for (const Comparison& c : order) {
    if (options_.budget > 0 && run.comparisons_executed >= options_.budget) {
      break;
    }
    ++run.comparisons_executed;
    const double sim = evaluator_->Similarity(c.a, c.b);
    if (sim >= options_.threshold) {
      run.matches.push_back(
          MatchEvent{run.comparisons_executed, c.a, c.b, sim});
    }
  }
  return run;
}

std::vector<MatchEvent> UniqueMappingClustering(
    const std::vector<MatchEvent>& matches,
    const EntityCollection& collection) {
  std::vector<MatchEvent> sorted = matches;
  std::sort(sorted.begin(), sorted.end(),
            [](const MatchEvent& x, const MatchEvent& y) {
              if (x.similarity != y.similarity) {
                return x.similarity > y.similarity;
              }
              return PairKey(x.a, x.b) < PairKey(y.a, y.b);
            });
  // (entity, partner KB) pairs already consumed.
  std::unordered_set<uint64_t> taken;
  auto slot = [](EntityId e, uint32_t kb) {
    return (static_cast<uint64_t>(e) << 16) | kb;
  };
  std::vector<MatchEvent> kept;
  for (const MatchEvent& m : sorted) {
    const uint32_t kb_a = collection.entity(m.a).kb;
    const uint32_t kb_b = collection.entity(m.b).kb;
    if (kb_a == kb_b) continue;
    if (taken.count(slot(m.a, kb_b)) || taken.count(slot(m.b, kb_a))) {
      continue;
    }
    taken.insert(slot(m.a, kb_b));
    taken.insert(slot(m.b, kb_a));
    kept.push_back(m);
  }
  return kept;
}

size_t WriteSameAsLinks(const std::vector<MatchEvent>& matches,
                        const EntityCollection& collection, std::ostream& out) {
  const std::vector<MatchEvent> links =
      UniqueMappingClustering(matches, collection);
  rdf::NTriplesWriter writer(out);
  for (const MatchEvent& m : links) {
    writer.Write({rdf::Term::Iri(std::string(collection.EntityIri(m.a))),
                  rdf::Term::Iri(std::string(rdf::kOwlSameAs)),
                  rdf::Term::Iri(std::string(collection.EntityIri(m.b)))});
  }
  return links.size();
}

}  // namespace minoan
