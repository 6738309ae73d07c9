#include "blocking/blocking_method.h"

#include <algorithm>
#include <functional>
#include <unordered_map>

#include "blocking/sharded_blocking.h"
#include "rdf/iri.h"
#include "text/similarity.h"

namespace minoan {

namespace {

/// Union-find over predicate ids (small, path-halving).
class DisjointSets {
 public:
  explicit DisjointSets(uint32_t n) : parent_(n) {
    for (uint32_t i = 0; i < n; ++i) parent_[i] = i;
  }
  uint32_t Find(uint32_t x) {
    while (parent_[x] != x) {
      parent_[x] = parent_[parent_[x]];
      x = parent_[x];
    }
    return x;
  }
  void Union(uint32_t a, uint32_t b) {
    a = Find(a);
    b = Find(b);
    if (a != b) parent_[b] = a;
  }

 private:
  std::vector<uint32_t> parent_;
};

uint64_t HashU32(const uint32_t& v) { return v; }
uint64_t HashU64(const uint64_t& v) { return v; }
uint64_t HashString(const std::string& s) { return Fnv1a64(s); }

/// Links predicates whose vocabulary profiles overlap by at least
/// `link_threshold` Jaccard; transitive closure via union-find, densified
/// cluster ids. The O(P^2) pass fans out over fixed predicate chunks;
/// links are collected per chunk and union-ed in the sequential (p asc,
/// q asc) order, so the closure is identical at every thread count.
/// Unprofiled (relation-only) predicates join the glue cluster.
std::vector<uint32_t> LinkProfiledPredicates(
    ThreadPool* pool, const std::vector<std::vector<uint32_t>>& profile,
    double link_threshold) {
  const uint32_t num_preds = static_cast<uint32_t>(profile.size());
  std::vector<std::vector<std::pair<uint32_t, uint32_t>>> chunk_links(
      NumChunks(num_preds, kBlockingChunkEntities));
  RunChunkedTasks(
      pool, num_preds, kBlockingChunkEntities,
      [&](size_t c, size_t begin, size_t end) {
        for (uint32_t p = static_cast<uint32_t>(begin);
             p < static_cast<uint32_t>(end); ++p) {
          if (profile[p].empty()) continue;
          for (uint32_t q = p + 1; q < num_preds; ++q) {
            if (profile[q].empty()) continue;
            if (JaccardSimilarity(profile[p], profile[q]) >=
                link_threshold) {
              chunk_links[c].emplace_back(p, q);
            }
          }
        }
      });
  DisjointSets sets(num_preds);
  for (const auto& links : chunk_links) {
    for (const auto& [p, q] : links) sets.Union(p, q);
  }
  // Densify cluster ids: cluster 0 is the glue cluster for predicates whose
  // singleton vocabulary linked to nothing (they still deserve blocks —
  // dropping them would silently lose recall).
  std::vector<uint32_t> cluster(num_preds, 0);
  std::vector<uint32_t> root_size(num_preds, 0);
  for (uint32_t p = 0; p < num_preds; ++p) ++root_size[sets.Find(p)];
  std::unordered_map<uint32_t, uint32_t> dense;
  for (uint32_t p = 0; p < num_preds; ++p) {
    const uint32_t root = sets.Find(p);
    if (root_size[root] < 2) {
      cluster[p] = 0;  // singleton → glue cluster
      continue;
    }
    auto [it, inserted] = dense.emplace(root, dense.size() + 1);
    cluster[p] = it->second;
  }
  return cluster;
}

}  // namespace

void TokenBlocking::BuildInto(const EntityCollection& collection,
                              ThreadPool* pool, BlockSink& sink) const {
  // Inverted index: token -> entities containing it (unique per entity),
  // built per entity chunk and merged canonically — ascending token id,
  // exactly the order the sequential postings array produced.
  const auto emit = [&collection](EntityId e, std::vector<uint32_t>& keys) {
    const EntityDescription& desc = collection.entity(e);
    keys.insert(keys.end(), desc.tokens.begin(), desc.tokens.end());
  };
  const uint64_t df_cap = static_cast<uint64_t>(
      options_.max_df_fraction * collection.num_entities());
  const auto consume = [&](uint32_t /*key*/,
                           std::vector<EntityId>& entities) {
    if (entities.size() < options_.min_df) return;
    if (df_cap > 0 && entities.size() > df_cap) return;
    sink.Add(entities);
  };
  BuildShardedPostings<uint32_t>(collection.num_entities(), pool, emit,
                                 HashU32, memory_or_null(), consume);
}

void AppendPisKeys(const PisBlocking::Options& options,
                   const Tokenizer& tokenizer, std::string_view iri,
                   std::vector<std::string>& out,
                   std::vector<std::string>& token_scratch) {
  const rdf::IriParts parts = rdf::SplitIri(iri);
  if (options.use_suffix && !parts.suffix.empty()) {
    out.push_back("sfx:" + parts.suffix);
    if (options.tokenize_suffix) {
      token_scratch.clear();
      tokenizer.Tokenize(parts.suffix, token_scratch);
      for (const std::string& tok : token_scratch) {
        out.push_back("sfxtok:" + tok);
      }
    }
  }
  if (options.use_infix && !parts.infix.empty()) {
    out.push_back("ifx:" + parts.infix);
  }
}

void PisBlocking::BuildInto(const EntityCollection& collection,
                            ThreadPool* pool, BlockSink& sink) const {
  // Per-entity key emission can repeat a key (suffix tokens); size filters
  // see the raw emission count, AddBlock dedups — both as before. Emission
  // order is canonical (sorted keys) for every thread count.
  const auto emit = [this, &collection](EntityId e,
                                        std::vector<std::string>& keys) {
    thread_local std::vector<std::string> token_scratch;
    AppendPisKeys(options_, collection.tokenizer(),
                  collection.iris().View(collection.entity(e).iri), keys,
                  token_scratch);
  };
  const auto consume = [&](const std::string& /*key*/,
                           std::vector<EntityId>& entities) {
    if (entities.size() < options_.min_block_size) return;
    if (entities.size() > options_.max_block_size) return;
    sink.Add(entities);
  };
  BuildShardedPostings<std::string>(collection.num_entities(), pool, emit,
                                    HashString, memory_or_null(), consume);
}

std::vector<uint32_t> AttributeClusteringBlocking::ClusterPredicates(
    const EntityCollection& collection, ThreadPool* pool) const {
  const uint32_t num_preds = collection.predicates().size();
  const uint32_t n = collection.num_entities();
  // Profile each predicate by the (sorted unique, capped) token ids of its
  // values across all entities. The cap admits whole attributes in
  // first-scan order until the predicate's profile reaches
  // max_profile_tokens, so WHICH tokens enter depends on scan order.
  std::vector<std::vector<uint32_t>> profile(num_preds);
  if (pool == nullptr) {
    // Inline: the original one-pass scan (single tokenization, capped
    // attributes skipped entirely). The chunked path below reproduces this
    // profile byte for byte — asserted in parallel_blocking_test.cc.
    std::vector<std::string> scratch;
    for (const EntityDescription& desc : collection.entities()) {
      for (const Attribute& attr : desc.attributes) {
        auto& prof = profile[attr.predicate];
        if (prof.size() >= options_.max_profile_tokens) continue;
        scratch.clear();
        collection.tokenizer().Tokenize(collection.values().View(attr.value),
                                        scratch);
        for (const std::string& tok : scratch) {
          const uint32_t id = collection.tokens().Find(tok);
          if (id != kInternNotFound) prof.push_back(id);
        }
      }
    }
    for (auto& prof : profile) SortUnique(prof);
    return LinkProfiledPredicates(pool, profile, options_.link_threshold);
  }
  // Chunked: reproduces the sequential first-scan prefix exactly via
  // per-attribute segment boundaries. Pass 1 counts each attribute's
  // contribution in parallel, a cheap sequential fold over the counts (no
  // tokenizing) decides inclusion under the cap and assigns every included
  // attribute its offset in the predicate's profile, and pass 2 writes the
  // tokens into those disjoint segments in parallel. Byte-identical to the
  // inline scan at every thread count; the value text is tokenized twice,
  // which the fan-out more than buys back.
  constexpr uint32_t kExcludedAttr = 0xffffffffu;
  struct AttrCount {
    uint32_t predicate;
    uint32_t found_tokens;
  };
  std::vector<std::vector<AttrCount>> chunk_counts(
      NumChunks(n, kBlockingChunkEntities));
  RunChunkedTasks(
      pool, n, kBlockingChunkEntities,
      [&](size_t c, size_t begin, size_t end) {
        std::vector<std::string> scratch;
        for (size_t e = begin; e < end; ++e) {
          for (const Attribute& attr : collection.entity(
                   static_cast<EntityId>(e)).attributes) {
            scratch.clear();
            collection.tokenizer().Tokenize(
                collection.values().View(attr.value), scratch);
            uint32_t found = 0;
            for (const std::string& tok : scratch) {
              if (collection.tokens().Find(tok) != kInternNotFound) ++found;
            }
            chunk_counts[c].push_back(AttrCount{attr.predicate, found});
          }
        }
      });
  // Sequential fold in scan order: an attribute is included iff its
  // predicate's previously included attributes have not reached the cap —
  // the exact condition of the sequential scan.
  std::vector<uint32_t> profile_size(num_preds, 0);
  std::vector<std::vector<uint32_t>> chunk_offsets(chunk_counts.size());
  for (size_t c = 0; c < chunk_counts.size(); ++c) {
    chunk_offsets[c].reserve(chunk_counts[c].size());
    for (const AttrCount& ac : chunk_counts[c]) {
      if (profile_size[ac.predicate] < options_.max_profile_tokens) {
        chunk_offsets[c].push_back(profile_size[ac.predicate]);
        profile_size[ac.predicate] += ac.found_tokens;
      } else {
        chunk_offsets[c].push_back(kExcludedAttr);
      }
    }
  }
  for (uint32_t p = 0; p < num_preds; ++p) {
    profile[p].resize(profile_size[p]);
  }
  RunChunkedTasks(
      pool, n, kBlockingChunkEntities,
      [&](size_t c, size_t begin, size_t end) {
        std::vector<std::string> scratch;
        size_t i = 0;
        for (size_t e = begin; e < end; ++e) {
          for (const Attribute& attr : collection.entity(
                   static_cast<EntityId>(e)).attributes) {
            const uint32_t offset = chunk_offsets[c][i++];
            if (offset == kExcludedAttr) continue;
            scratch.clear();
            collection.tokenizer().Tokenize(
                collection.values().View(attr.value), scratch);
            uint32_t k = 0;
            for (const std::string& tok : scratch) {
              const uint32_t id = collection.tokens().Find(tok);
              if (id != kInternNotFound) {
                profile[attr.predicate][offset + k++] = id;
              }
            }
          }
        }
      });
  RunPoolTasks(pool, num_preds,
               [&](size_t p) { SortUnique(profile[p]); });
  return LinkProfiledPredicates(pool, profile, options_.link_threshold);
}

void AttributeClusteringBlocking::BuildInto(const EntityCollection& collection,
                                            ThreadPool* pool,
                                            BlockSink& sink) const {
  // The predicate→cluster table is vocabulary-bounded (one u32 per
  // predicate plus capped profiles during clustering) and stays in memory
  // under the budget; only the (cluster, token) postings stream.
  const std::vector<uint32_t> cluster = ClusterPredicates(collection, pool);
  // Token blocking keyed by (cluster, token), in canonical ascending key
  // order. Per-entity keys are deduplicated before emission, as before.
  const auto emit = [&collection, &cluster](EntityId e,
                                            std::vector<uint64_t>& keys) {
    thread_local std::vector<std::string> scratch;
    const EntityDescription& desc = collection.entity(e);
    for (const Attribute& attr : desc.attributes) {
      const uint64_t c = cluster[attr.predicate];
      scratch.clear();
      collection.tokenizer().Tokenize(collection.values().View(attr.value),
                                      scratch);
      for (const std::string& tok : scratch) {
        const uint32_t id = collection.tokens().Find(tok);
        if (id != kInternNotFound) {
          keys.push_back((c << 32) | id);
        }
      }
    }
    std::sort(keys.begin(), keys.end());
    keys.erase(std::unique(keys.begin(), keys.end()), keys.end());
  };
  const uint64_t df_cap = static_cast<uint64_t>(
      options_.max_df_fraction * collection.num_entities());
  const auto consume = [&](uint64_t /*key*/,
                           std::vector<EntityId>& entities) {
    if (entities.size() < options_.min_df) return;
    if (df_cap > 0 && entities.size() > df_cap) return;
    sink.Add(entities);
  };
  BuildShardedPostings<uint64_t>(collection.num_entities(), pool, emit,
                                 HashU64, memory_or_null(), consume);
}

void CompositeBlocking::BuildInto(const EntityCollection& collection,
                                  ThreadPool* pool, BlockSink& sink) const {
  // Each constituent streams straight into the caller's sink, in order.
  // Blocks are never merged across methods: a block two methods both emit
  // appears twice.
  for (const auto& method : methods_) {
    method->BuildInto(collection, pool, sink);
  }
}

}  // namespace minoan
