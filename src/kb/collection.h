// Copyright 2026 The MinoanER Authors.
// EntityCollection: the web-of-data view MinoanER resolves over.
//
// A collection aggregates one or more knowledge bases (RDF sources). Building
// is two-pass: pass 1 registers every subject IRI per KB as an entity; pass 2
// classifies each triple's object as a relation (target described in the SAME
// KB — Linked Data rarely reuses foreign subject IRIs directly; cross-KB
// equivalences arrive as owl:sameAs, which are captured separately) or as an
// attribute (literals and unresolved IRIs, whose local name is tokenized so
// that links to undescribed resources still yield matching evidence).
//
// Both passes read term views (rdf::TripleView): from a Triple vector, which
// is adapted without copying a string, or straight from the N-Triples
// scanner's chunks (LoadCorpusDirectory). A run of triples with one subject
// resolves that subject once. Every path makes the same interner calls in
// the same order, so a collection is byte-identical however it was loaded.

#ifndef MINOAN_KB_COLLECTION_H_
#define MINOAN_KB_COLLECTION_H_

#include <cstdint>
#include <istream>
#include <ostream>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "kb/entity.h"
#include "rdf/term.h"
#include "text/tokenizer.h"
#include "util/flat_table.h"
#include "util/interner.h"
#include "util/status.h"

namespace minoan {

/// Metadata of one ingested knowledge base.
struct KnowledgeBaseInfo {
  std::string name;
  uint64_t triples = 0;
  /// Dense id range [first_entity, end_entity) of the batch-phase entities.
  /// Entities appended after Finalize live OUTSIDE this range (their ids
  /// interleave across KBs) and are counted in `appended_entities`.
  uint32_t first_entity = 0;
  uint32_t end_entity = 0;
  uint32_t appended_entities = 0;
  uint32_t num_entities() const {
    return end_entity - first_entity + appended_entities;
  }
};

/// An owl:sameAs assertion between two described entities (existing
/// interlinking found in the input; distinct from generated ground truth).
struct SameAsLink {
  EntityId a;
  EntityId b;
};

/// Configuration of the ingestion process.
struct CollectionOptions {
  TokenizerOptions tokenizer;
  /// Tokens appearing in more than this fraction of entities are dropped
  /// from `tokens` (stop-token removal; 1.0 disables).
  double max_token_frequency = 1.0;
  /// When true, rdf:type objects are recorded as attributes (type tokens are
  /// often near-stopwords for blocking, but carry matching signal).
  bool index_types = true;
};

/// The central in-memory store. The batch surface (`AddKnowledgeBase` +
/// `Finalize`) freezes the collection; the online surface
/// (`AddEmptyKnowledgeBase` + `AppendEntity`) supports append-only growth
/// AFTER finalization — existing entities, ids, and tokens never change, so
/// readers holding ids stay valid across appends.
class EntityCollection {
 public:
  explicit EntityCollection(CollectionOptions options = CollectionOptions());

  /// Ingests one KB from parsed triples. KBs must be added before Finalize.
  /// Returns the KB id.
  Result<uint32_t> AddKnowledgeBase(std::string name,
                                    const std::vector<rdf::Triple>& triples);

  /// Ingests one KB from triple views, read chunk after chunk in order: the
  /// corpus loader's path. Builds the same collection as the Triple overload
  /// over the same triples.
  Result<uint32_t> AddKnowledgeBase(
      std::string name,
      const std::vector<std::vector<rdf::TripleView>>& chunks);

  /// Freezes the collection: tokenizes values, applies stop-token removal,
  /// sorts per-entity structures. Must be called exactly once after all KBs.
  Status Finalize();

  bool finalized() const { return finalized_; }

  // --- Online (post-finalize) ingestion ---------------------------------

  /// Registers a KB with no entities. Unlike AddKnowledgeBase this works
  /// after Finalize too — online sessions discover sources dynamically.
  uint32_t AddEmptyKnowledgeBase(std::string name);

  /// Appends one entity description after Finalize: all `triples` must share
  /// a single subject, which must not already be described in `kb_id`. The
  /// entity is tokenized immediately and document frequencies are updated.
  /// Append-only semantics differ from batch ingestion in two documented
  /// ways: (1) an IRI object is a relation only when its target is already
  /// present in the same KB — forward references degrade to attribute
  /// tokens; (2) stop-token removal (max_token_frequency) is not applied,
  /// since online growth cannot retract tokens from earlier entities.
  Result<EntityId> AppendEntity(uint32_t kb_id,
                                const std::vector<rdf::Triple>& triples);

  // --- Accessors (valid after Finalize) ---------------------------------

  uint32_t num_kbs() const { return static_cast<uint32_t>(kbs_.size()); }
  const KnowledgeBaseInfo& kb(uint32_t kb_id) const { return kbs_[kb_id]; }

  uint32_t num_entities() const {
    return static_cast<uint32_t>(entities_.size());
  }
  const EntityDescription& entity(EntityId id) const { return entities_[id]; }
  const std::vector<EntityDescription>& entities() const { return entities_; }

  /// Entity lookup by IRI string; kInvalidEntity when absent. IRIs may be
  /// reused across KBs; this returns the first-added entity.
  EntityId FindByIri(std::string_view iri) const;

  /// The tokenizer configured for this collection (shared by blocking
  /// methods that tokenize attribute values on the fly).
  const Tokenizer& tokenizer() const { return tokenizer_; }

  const StringInterner& iris() const { return iris_; }
  const StringInterner& predicates() const { return predicates_; }
  const StringInterner& values() const { return values_; }
  const StringInterner& tokens() const { return tokens_; }

  std::string_view EntityIri(EntityId id) const {
    return iris_.View(entities_[id].iri);
  }

  const std::vector<SameAsLink>& same_as_links() const {
    return same_as_links_;
  }

  /// Document frequency of token id (number of entities containing it).
  uint32_t TokenDf(uint32_t token) const { return token_df_[token]; }

  /// ln(N / df) inverse document frequency; 0 for unused tokens.
  double TokenIdf(uint32_t token) const;

  uint64_t total_triples() const { return total_triples_; }

  // --- Serialization ----------------------------------------------------

  /// Writes the full finalized collection — interners, KB metadata, every
  /// entity description, sameAs links, document frequencies, and the
  /// ingestion options — in the fixed little-endian util/serde.h format
  /// ("MNER-COLL-v1"). Load reproduces a byte-identical collection: interned
  /// ids, token bags, and appended entities all come back exactly, so
  /// engines restored over a loaded collection continue deterministically.
  Status Save(std::ostream& out) const;

  /// Replaces this collection with the stream's contents (only meaningful on
  /// a default-constructed collection). The serialized options are adopted,
  /// derived lookup tables are rebuilt, and every id read is range-checked,
  /// so corrupt or hostile input fails with a Status instead of leaving
  /// out-of-bounds references behind. Each entity's `tokens` must be
  /// strictly ascending and its `token_bag` non-decreasing with exactly
  /// those distinct ids (the sorted-unique input every set kernel assumes);
  /// anything else is a ParseError. On failure the collection is
  /// half-overwritten and must be discarded.
  Status Load(std::istream& in);

  /// True when entity `a` and `b` come from different KBs (the only pairs a
  /// clean-clean workflow may compare).
  bool CrossKb(EntityId a, EntityId b) const {
    return entities_[a].kb != entities_[b].kb;
  }

 private:
  struct PendingValue {
    EntityId entity;
    uint32_t predicate;
    uint32_t value;  // id in values_
  };

  CollectionOptions options_;
  Tokenizer tokenizer_;
  bool finalized_ = false;

  std::vector<KnowledgeBaseInfo> kbs_;
  std::vector<EntityDescription> entities_;
  StringInterner iris_;        // subject/object IRIs
  StringInterner predicates_;  // predicate IRIs
  StringInterner values_;      // literal lexical forms
  StringInterner tokens_;      // normalized tokens

  /// Both passes of AddKnowledgeBase over `for_each_triple`, which calls its
  /// argument with every triple's view in order (twice: once per pass).
  template <typename ForEachTriple>
  Result<uint32_t> BuildKnowledgeBase(std::string name, uint64_t num_triples,
                                      const ForEachTriple& for_each_triple);
  /// Interns the subject of a triple, qualifying blank labels per KB, and
  /// keeps iri_to_entity_ sized to the interner.
  uint32_t InternSubject(uint32_t kb_id, rdf::TermView subject);
  /// Tokenizes one entity's values + IRI local name into tokens/token_bag
  /// and bumps token_df_ for its unique tokens.
  void TokenizeEntity(EntityDescription& desc);
  /// Classifies one triple's object for entity `eid`: owl:sameAs link
  /// (deferred to Finalize, or — for post-finalize appends — resolved
  /// eagerly against the entities present now), relation (target described
  /// in the same KB), or attribute (literals and unresolved IRIs). Shared
  /// by batch and online ingestion so the semantics cannot drift.
  void ClassifyObject(uint32_t kb_id, EntityId eid, const rdf::TripleView& t,
                      bool eager_same_as);

  static uint64_t KbIriKey(uint32_t kb_id, uint32_t iri_id) {
    return (static_cast<uint64_t>(kb_id) << 32) | iri_id;
  }

  // iri id -> first entity with that IRI.
  std::vector<EntityId> iri_to_entity_;
  // (kb id << 32 | iri id) -> entity, for same-KB object resolution (the
  // "described in the SAME KB" rule). Maintained from the first ingest on.
  FlatPairMap<EntityId> kb_iri_to_entity_;
  // sameAs assertions seen during ingestion, resolved in Finalize (the
  // target KB may be added after the asserting one).
  std::vector<std::pair<EntityId, uint32_t>> pending_same_as_;
  std::vector<SameAsLink> same_as_links_;
  std::vector<uint32_t> token_df_;
  uint64_t total_triples_ = 0;
  // Tokenization scratch reused across entities (Finalize loop + appends).
  std::vector<uint32_t> tokenize_scratch_;
};

/// The one corpus-directory loader: each .nt/.ttl/.turtle file of `dir`,
/// sorted by path, becomes one KB named after its file stem, then the
/// collection is finalized (NotFound when there is no such file). The CLI,
/// served "dir:" sources and the examples all load through it, so they
/// resolve over byte-identical collections.
///
/// It streams: each N-Triples file is read with one read and cut into
/// line-aligned chunks of a fixed size (never derived from the thread
/// count), which `num_threads` workers (0 = hardware concurrency) scan into
/// term views at once; the KB is then built straight from the chunks'
/// views, and no Triple is ever materialized. Malformed lines are skipped
/// (lenient). A Turtle file is parsed by one TurtleParser. The collection
/// is byte-identical at every thread count.
Result<EntityCollection> LoadCorpusDirectory(const std::string& dir,
                                             uint32_t num_threads = 1);

}  // namespace minoan

#endif  // MINOAN_KB_COLLECTION_H_
