// Copyright 2026 The MinoanER Authors.
// The blocking-method interface and the concrete schema-agnostic methods.

#ifndef MINOAN_BLOCKING_BLOCKING_METHOD_H_
#define MINOAN_BLOCKING_BLOCKING_METHOD_H_

#include <memory>
#include <string>
#include <string_view>

#include "blocking/block.h"
#include "extmem/memory_budget.h"
#include "kb/collection.h"

namespace minoan {

class ThreadPool;

/// Receiver of a blocking method's emitted blocks, one call per surviving
/// block in the method's canonical (deterministic) emission order.
/// `entities` is caller-owned scratch: the sink may read, mutate, or steal
/// it. Lists may be unsorted and contain duplicates — sinks normalize
/// exactly like BlockCollection::AddBlock.
class BlockSink {
 public:
  virtual ~BlockSink() = default;
  virtual void Add(std::vector<EntityId>& entities) = 0;
};

/// The sink that appends normalized blocks to a BlockCollection.
class BlockCollectionSink : public BlockSink {
 public:
  explicit BlockCollectionSink(BlockCollection& out) : out_(&out) {}
  void Add(std::vector<EntityId>& entities) override {
    out_->AddBlock(entities);
  }

 private:
  BlockCollection* out_;
};

/// Abstract blocking method: entity collection in, blocks out (to a sink or
/// a materialized BlockCollection).
///
/// Every concrete method runs on the deterministic sharded-postings core
/// (blocking/sharded_blocking.h): pass a pool and index construction fans
/// out over fixed entity chunks; pass nullptr and the same code runs inline.
/// The block output — entity lists and emission order — is bit-identical
/// for every thread count.
class BlockingMethod {
 public:
  virtual ~BlockingMethod() = default;

  /// Human-readable method name for reports ("token", "pis", ...).
  virtual std::string_view name() const = 0;

  /// Emits the blocks of all entities of `collection` into `sink`, in the
  /// method's canonical order. `pool` (caller-owned, may be nullptr)
  /// parallelizes index construction with identical output. With a memory
  /// budget set, construction streams through the spill engine and never
  /// materializes the full postings — memory is bounded by the budget plus
  /// one block.
  virtual void BuildInto(const EntityCollection& collection, ThreadPool* pool,
                         BlockSink& sink) const = 0;

  /// Builds a BlockCollection (BuildInto through a BlockCollectionSink).
  BlockCollection Build(const EntityCollection& collection,
                        ThreadPool* pool) const {
    BlockCollection out;
    BlockCollectionSink sink(out);
    BuildInto(collection, pool, sink);
    return out;
  }

  /// Sequential convenience spelling of Build(collection, nullptr).
  BlockCollection Build(const EntityCollection& collection) const {
    return Build(collection, nullptr);
  }

  /// External-memory budget for the postings shuffle. Disabled by default
  /// (pure in-memory); when enabled, every postings-based build (token,
  /// PIS, attr-cluster, q-gram) streams through spilling shard sinks, and
  /// SortedNeighborhood's global key sort becomes an external merge sort —
  /// byte-identical blocks either way (see extmem/shuffle.h).
  /// Configuration, not execution: call before Build (Build itself is
  /// const and never mutates the method).
  virtual void set_memory_budget(const extmem::MemoryBudgetOptions& memory) {
    memory_ = memory;
  }
  const extmem::MemoryBudgetOptions& memory_budget() const { return memory_; }

 protected:
  /// The form BuildShardedPostings takes: null when the budget is disabled,
  /// so the postings are built in memory.
  const extmem::MemoryBudgetOptions* memory_or_null() const {
    return memory_.enabled() ? &memory_ : nullptr;
  }

 private:
  extmem::MemoryBudgetOptions memory_;
};

/// Token blocking: one block per distinct token appearing in >= 2
/// descriptions. The minimal-assumption workhorse — two descriptions are
/// candidates iff they share any token anywhere in their values or IRIs.
class TokenBlocking : public BlockingMethod {
 public:
  struct Options {
    /// Tokens whose document frequency exceeds this fraction of the
    /// collection are skipped as keys (near-stopwords produce huge,
    /// uninformative blocks).
    double max_df_fraction = 0.1;
    /// Tokens must appear in at least this many entities to form a block.
    uint32_t min_df = 2;
  };

  TokenBlocking() : options_{} {}
  explicit TokenBlocking(Options options) : options_(options) {}
  std::string_view name() const override { return "token"; }
  void BuildInto(const EntityCollection& collection, ThreadPool* pool,
                 BlockSink& sink) const override;

 private:
  Options options_;
};

/// Prefix-Infix-Suffix blocking over entity IRIs: blocks keyed by the IRI
/// suffix and infix. Catches matches whose *names* align even when literal
/// values share nothing (common in the LOD center where IRIs are minted from
/// labels).
class PisBlocking : public BlockingMethod {
 public:
  struct Options {
    bool use_suffix = true;
    bool use_infix = false;  // infixes are usually per-KB paths; off default
    /// Tokenize the suffix and emit one block per suffix token as well.
    bool tokenize_suffix = true;
    uint32_t min_block_size = 2;
    uint32_t max_block_size = 1u << 14;
  };

  PisBlocking() : options_{} {}
  explicit PisBlocking(Options options) : options_(options) {}
  std::string_view name() const override { return "pis"; }
  void BuildInto(const EntityCollection& collection, ThreadPool* pool,
                 BlockSink& sink) const override;

 private:
  Options options_;
};

/// Attribute-clustering blocking: predicates are clustered by the similarity
/// of their value-token distributions; token blocks are then keyed by
/// (attribute cluster, token), so the same token under unrelated attributes
/// no longer collides. Raises precision on heterogeneous collections at a
/// small recall cost.
class AttributeClusteringBlocking : public BlockingMethod {
 public:
  struct Options {
    /// Minimum token-set Jaccard between two predicates' value vocabularies
    /// for them to be linked during clustering.
    double link_threshold = 0.1;
    /// Cap on tokens sampled per predicate when profiling vocabularies.
    uint32_t max_profile_tokens = 4096;
    double max_df_fraction = 0.1;
    uint32_t min_df = 2;
  };

  AttributeClusteringBlocking() : options_{} {}
  explicit AttributeClusteringBlocking(Options options) : options_(options) {}
  std::string_view name() const override { return "attr-cluster"; }
  void BuildInto(const EntityCollection& collection, ThreadPool* pool,
                 BlockSink& sink) const override;

  /// Exposed for tests: computes the predicate→cluster assignment. The
  /// pairwise vocabulary-linking pass runs on `pool` when given (identical
  /// clusters either way).
  std::vector<uint32_t> ClusterPredicates(const EntityCollection& collection,
                                          ThreadPool* pool = nullptr) const;

 private:
  Options options_;
};

/// Appends the PIS blocking keys of one IRI ("sfx:", "sfxtok:", "ifx:"
/// prefixed) to `out`, possibly with duplicates (suffix tokens can repeat).
/// `token_scratch` is a caller-owned buffer reused across calls. Shared by
/// the batch PisBlocking and the online IncrementalBlockIndex so the key
/// scheme cannot drift between them.
void AppendPisKeys(const PisBlocking::Options& options,
                   const Tokenizer& tokenizer, std::string_view iri,
                   std::vector<std::string>& out,
                   std::vector<std::string>& token_scratch);

/// Composite: the blocks of several methods, one method after the other
/// (e.g. token + PIS, the configuration MinoanER uses for the Web of Data).
class CompositeBlocking : public BlockingMethod {
 public:
  explicit CompositeBlocking(
      std::vector<std::unique_ptr<BlockingMethod>> methods)
      : methods_(std::move(methods)) {}
  std::string_view name() const override { return "composite"; }
  void BuildInto(const EntityCollection& collection, ThreadPool* pool,
                 BlockSink& sink) const override;

  /// Fans the budget out to the constituent methods eagerly, so Build
  /// stays a pure const read.
  void set_memory_budget(const extmem::MemoryBudgetOptions& memory) override {
    BlockingMethod::set_memory_budget(memory);
    for (const auto& method : methods_) method->set_memory_budget(memory);
  }

 private:
  std::vector<std::unique_ptr<BlockingMethod>> methods_;
};

}  // namespace minoan

#endif  // MINOAN_BLOCKING_BLOCKING_METHOD_H_
