// Copyright 2026 The MinoanER Authors.
// IncrementalCollection: the mutable entity store of the online subsystem.
//
// The batch pipeline freezes an EntityCollection before resolution; the
// online engine instead grows one entity at a time. IncrementalCollection
// wraps an EntityCollection in its append-only post-finalize mode: dense ids
// are assigned on ingest and never change, knowledge bases are created on
// demand by name, and every reader holding an EntityId (schedulers, states,
// indexes) stays valid across ingests. It can start empty (a long-running
// service ingesting a live feed) or warm (adopting a batch-built collection
// whose resolution continues online).

#ifndef MINOAN_ONLINE_INCREMENTAL_COLLECTION_H_
#define MINOAN_ONLINE_INCREMENTAL_COLLECTION_H_

#include <istream>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "kb/collection.h"
#include "rdf/term.h"
#include "util/status.h"

namespace minoan {
namespace online {

/// Splits a triple list into per-subject entity bundles, first appearance
/// first — the order a stream delivers complete descriptions in. Shared by
/// the server's Ingest, benches, and tests so grouping semantics cannot
/// diverge.
std::vector<std::vector<rdf::Triple>> GroupBySubject(
    const std::vector<rdf::Triple>& triples);

class IncrementalCollection {
 public:
  /// Starts from an empty (immediately finalized) collection.
  explicit IncrementalCollection(CollectionOptions options = {});

  /// Warm start: adopts a finalized batch collection. The online engine
  /// resumes where the batch pipeline stopped.
  explicit IncrementalCollection(EntityCollection&& warm);

  /// Finds or creates the KB with this name; returns its id.
  uint32_t EnsureKb(std::string_view name);

  /// Ingests one entity: `triples` must share a single subject that is not
  /// yet described in `kb_id`. Returns the new dense entity id.
  Result<EntityId> Ingest(uint32_t kb_id,
                          const std::vector<rdf::Triple>& triples);

  /// Replaces the wrapped collection with a serialized one
  /// (EntityCollection::Load) and rebuilds the KB-name index — the restore
  /// path of a self-contained engine state (MNER-ONLN-v2 embeds the
  /// collection). On failure the store must be discarded.
  Status LoadCollection(std::istream& in);

  const EntityCollection& collection() const { return collection_; }
  uint32_t num_entities() const { return collection_.num_entities(); }

 private:
  EntityCollection collection_;
  std::unordered_map<std::string, uint32_t> kb_by_name_;
};

}  // namespace online
}  // namespace minoan

#endif  // MINOAN_ONLINE_INCREMENTAL_COLLECTION_H_
