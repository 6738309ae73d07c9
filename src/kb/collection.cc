#include "kb/collection.h"

#include <algorithm>
#include <cmath>
#include <filesystem>
#include <functional>
#include <memory>

#include "rdf/iri.h"
#include "rdf/ntriples.h"
#include "rdf/turtle.h"
#include "util/serde.h"
#include "util/thread_pool.h"

namespace minoan {

namespace {

/// Blank node labels are KB-scoped in RDF; qualify them so labels reused by
/// different KBs do not collide in the shared IRI interner.
std::string QualifiedBlank(uint32_t kb_id, std::string_view label) {
  std::string qualified = "_:" + std::to_string(kb_id) + ":";
  qualified.append(label);
  return qualified;
}

/// The subject of the latest triple and its entity: consecutive triples
/// with one subject resolve it once.
struct SubjectRun {
  rdf::TermView subject;
  EntityId entity = kInvalidEntity;

  bool Continues(rdf::TermView next) const {
    return entity != kInvalidEntity && next.kind == subject.kind &&
           next.lexical == subject.lexical;
  }
};

/// The invariant every set kernel and the similarity arena rely on:
/// `tokens` strictly ascending, and `bag` exactly the runs of those ids in
/// the same order, each at least once — so the bag is non-decreasing and
/// its distinct ids are `tokens`.
bool ConsistentTokenLists(const std::vector<uint32_t>& tokens,
                          const std::vector<uint32_t>& bag) {
  size_t j = 0;
  for (size_t i = 0; i < tokens.size(); ++i) {
    if (i > 0 && tokens[i] <= tokens[i - 1]) return false;
    if (j == bag.size() || bag[j] != tokens[i]) return false;
    while (j < bag.size() && bag[j] == tokens[i]) ++j;
  }
  return j == bag.size();
}

}  // namespace

EntityCollection::EntityCollection(CollectionOptions options)
    : options_(options), tokenizer_(options.tokenizer) {}

uint32_t EntityCollection::InternSubject(uint32_t kb_id,
                                         rdf::TermView subject) {
  const uint32_t id =
      subject.is_blank()
          ? iris_.Intern(QualifiedBlank(kb_id, subject.lexical))
          : iris_.Intern(subject.lexical);
  if (iri_to_entity_.size() < iris_.size()) {
    iri_to_entity_.resize(iris_.size(), kInvalidEntity);
  }
  return id;
}

void EntityCollection::TokenizeEntity(EntityDescription& desc) {
  std::vector<uint32_t>& scratch = tokenize_scratch_;
  scratch.clear();
  for (const Attribute& attr : desc.attributes) {
    tokenizer_.TokenizeInto(values_.View(attr.value), tokens_, scratch);
  }
  tokenizer_.TokenizeInto(rdf::IriLocalName(iris_.View(desc.iri)), tokens_,
                          scratch);
  std::sort(scratch.begin(), scratch.end());
  desc.token_bag = scratch;
  desc.tokens = scratch;
  desc.tokens.erase(std::unique(desc.tokens.begin(), desc.tokens.end()),
                    desc.tokens.end());
  if (token_df_.size() < tokens_.size()) token_df_.resize(tokens_.size(), 0);
  for (uint32_t tok : desc.tokens) ++token_df_[tok];
}

template <typename ForEachTriple>
Result<uint32_t> EntityCollection::BuildKnowledgeBase(
    std::string name, uint64_t num_triples,
    const ForEachTriple& for_each_triple) {
  if (finalized_) {
    return Status::FailedPrecondition("collection already finalized");
  }
  const uint32_t kb_id = static_cast<uint32_t>(kbs_.size());
  KnowledgeBaseInfo info;
  info.name = std::move(name);
  info.triples = num_triples;
  info.first_entity = static_cast<uint32_t>(entities_.size());

  // Pass 1: register every subject as an entity of this KB.
  SubjectRun run;
  for_each_triple([&](const rdf::TripleView& t) {
    if (run.Continues(t.subject)) return;
    const uint32_t iri_id = InternSubject(kb_id, t.subject);
    bool created = false;
    EntityId& eid =
        kb_iri_to_entity_.FindOrInsert(KbIriKey(kb_id, iri_id), &created);
    if (created) {
      eid = static_cast<EntityId>(entities_.size());
      EntityDescription desc;
      desc.id = eid;
      desc.iri = iri_id;
      desc.kb = kb_id;
      entities_.push_back(std::move(desc));
      if (iri_to_entity_[iri_id] == kInvalidEntity) {
        iri_to_entity_[iri_id] = eid;
      }
    }
    run = {t.subject, eid};
  });

  // Pass 2: classify objects into relations, attributes, sameAs links.
  run = SubjectRun();
  for_each_triple([&](const rdf::TripleView& t) {
    if (!run.Continues(t.subject)) {
      run = {t.subject, *kb_iri_to_entity_.Find(KbIriKey(
                            kb_id, InternSubject(kb_id, t.subject)))};
    }
    ClassifyObject(kb_id, run.entity, t, /*eager_same_as=*/false);
  });

  info.end_entity = static_cast<uint32_t>(entities_.size());
  total_triples_ += num_triples;
  kbs_.push_back(std::move(info));
  return kb_id;
}

Result<uint32_t> EntityCollection::AddKnowledgeBase(
    std::string name, const std::vector<rdf::Triple>& triples) {
  return BuildKnowledgeBase(std::move(name), triples.size(),
                            [&](const auto& visit) {
                              for (const rdf::Triple& t : triples) {
                                visit(rdf::ViewOf(t));
                              }
                            });
}

Result<uint32_t> EntityCollection::AddKnowledgeBase(
    std::string name, const std::vector<std::vector<rdf::TripleView>>& chunks) {
  uint64_t num_triples = 0;
  for (const auto& chunk : chunks) num_triples += chunk.size();
  return BuildKnowledgeBase(std::move(name), num_triples,
                            [&](const auto& visit) {
                              for (const auto& chunk : chunks) {
                                for (const rdf::TripleView& t : chunk) visit(t);
                              }
                            });
}

Status EntityCollection::Finalize() {
  if (finalized_) return Status::FailedPrecondition("already finalized");
  finalized_ = true;

  // Resolve deferred sameAs assertions against the complete IRI table.
  for (const auto& [eid, target_iri] : pending_same_as_) {
    const EntityId target = target_iri < iri_to_entity_.size()
                                ? iri_to_entity_[target_iri]
                                : kInvalidEntity;
    if (target != kInvalidEntity && target != eid) {
      same_as_links_.push_back(SameAsLink{eid, target});
    }
  }
  pending_same_as_.clear();
  pending_same_as_.shrink_to_fit();

  // Tokenize every entity (literal values plus the IRI local name); document
  // frequencies over unique per-entity tokens accumulate as we go.
  token_df_.assign(tokens_.size(), 0);
  for (EntityDescription& desc : entities_) {
    TokenizeEntity(desc);
  }

  // Stop-token removal: frequent tokens carry no discriminative signal for
  // blocking and blow up block sizes quadratically.
  if (options_.max_token_frequency < 1.0 && !entities_.empty()) {
    const uint32_t cap = static_cast<uint32_t>(options_.max_token_frequency *
                                               entities_.size());
    auto too_frequent = [&](uint32_t tok) { return token_df_[tok] > cap; };
    for (EntityDescription& desc : entities_) {
      desc.tokens.erase(
          std::remove_if(desc.tokens.begin(), desc.tokens.end(), too_frequent),
          desc.tokens.end());
      desc.token_bag.erase(std::remove_if(desc.token_bag.begin(),
                                          desc.token_bag.end(), too_frequent),
                           desc.token_bag.end());
    }
  }
  return Status::Ok();
}

void EntityCollection::ClassifyObject(uint32_t kb_id, EntityId eid,
                                      const rdf::TripleView& t,
                                      bool eager_same_as) {
  EntityDescription& desc = entities_[eid];
  const uint32_t pred_id = predicates_.Intern(t.predicate.lexical);

  if (t.predicate.lexical == rdf::kOwlSameAs && t.object.is_iri()) {
    const uint32_t target_iri = iris_.Intern(t.object.lexical);
    if (iri_to_entity_.size() < iris_.size()) {
      iri_to_entity_.resize(iris_.size(), kInvalidEntity);
    }
    if (eager_same_as) {
      // Online append: resolve against the entities present NOW; links to
      // still-unknown targets are dropped (batch drops unresolvable links
      // in Finalize the same way).
      const EntityId target = iri_to_entity_[target_iri];
      if (target != kInvalidEntity && target != eid) {
        same_as_links_.push_back(SameAsLink{eid, target});
      }
    } else {
      // Batch: resolve lazily in Finalize — the target KB may come later.
      pending_same_as_.push_back({eid, target_iri});
    }
    return;
  }

  if (t.object.is_literal()) {
    desc.attributes.push_back(
        Attribute{pred_id, values_.Intern(t.object.lexical)});
    return;
  }

  // IRI or blank object: a relation when the target is described in the
  // same KB, otherwise an attribute over the IRI's local name.
  const uint32_t obj_iri =
      t.object.is_blank()
          ? iris_.Intern(QualifiedBlank(kb_id, t.object.lexical))
          : iris_.Intern(t.object.lexical);
  if (iri_to_entity_.size() < iris_.size()) {
    iri_to_entity_.resize(iris_.size(), kInvalidEntity);
  }
  const EntityId* target = kb_iri_to_entity_.Find(KbIriKey(kb_id, obj_iri));
  if (target != nullptr && *target != eid) {
    desc.relations.push_back(Relation{pred_id, *target});
    return;
  }
  if (t.predicate.lexical == rdf::kRdfType && !options_.index_types) {
    return;
  }
  const std::string_view local_name = rdf::IriLocalName(t.object.lexical);
  if (!local_name.empty()) {
    desc.attributes.push_back(Attribute{pred_id, values_.Intern(local_name)});
  }
}

uint32_t EntityCollection::AddEmptyKnowledgeBase(std::string name) {
  const uint32_t kb_id = static_cast<uint32_t>(kbs_.size());
  KnowledgeBaseInfo info;
  info.name = std::move(name);
  info.first_entity = static_cast<uint32_t>(entities_.size());
  info.end_entity = info.first_entity;
  kbs_.push_back(std::move(info));
  return kb_id;
}

Result<EntityId> EntityCollection::AppendEntity(
    uint32_t kb_id, const std::vector<rdf::Triple>& triples) {
  if (!finalized_) {
    return Status::FailedPrecondition(
        "AppendEntity requires a finalized collection; batch ingestion goes "
        "through AddKnowledgeBase");
  }
  if (kb_id >= kbs_.size()) {
    return Status::InvalidArgument("unknown knowledge base id");
  }
  if (triples.empty()) {
    return Status::InvalidArgument("an entity needs at least one triple");
  }
  const rdf::TermView subject = rdf::ViewOf(triples.front().subject);
  for (const rdf::Triple& t : triples) {
    if (t.subject.kind != subject.kind ||
        t.subject.lexical != subject.lexical) {
      return Status::InvalidArgument(
          "AppendEntity triples must share a single subject");
    }
  }

  const uint32_t iri_id = InternSubject(kb_id, subject);
  const uint64_t kb_key = KbIriKey(kb_id, iri_id);
  if (kb_iri_to_entity_.Contains(kb_key)) {
    return Status::AlreadyExists("entity already described in this KB: " +
                                 std::string(subject.lexical));
  }

  // Register first so the shared classification sees the entity (a
  // self-referencing triple resolves and is skipped, as in batch).
  const EntityId eid = static_cast<EntityId>(entities_.size());
  EntityDescription desc;
  desc.id = eid;
  desc.iri = iri_id;
  desc.kb = kb_id;
  entities_.push_back(std::move(desc));
  kb_iri_to_entity_.InsertOrAssign(kb_key, eid);
  if (iri_to_entity_[iri_id] == kInvalidEntity) iri_to_entity_[iri_id] = eid;

  for (const rdf::Triple& t : triples) {
    ClassifyObject(kb_id, eid, rdf::ViewOf(t), /*eager_same_as=*/true);
  }

  TokenizeEntity(entities_[eid]);
  kbs_[kb_id].triples += triples.size();
  ++kbs_[kb_id].appended_entities;
  total_triples_ += triples.size();
  return eid;
}

EntityId EntityCollection::FindByIri(std::string_view iri) const {
  const uint32_t iri_id = iris_.Find(iri);
  if (iri_id == kInternNotFound || iri_id >= iri_to_entity_.size()) {
    return kInvalidEntity;
  }
  return iri_to_entity_[iri_id];
}

namespace {

/// Format tag of the serialized collection; bump on layout changes.
constexpr std::string_view kCollectionMagic = "MNER-COLL-v1";

void SaveInterner(std::ostream& out, const StringInterner& interner) {
  serde::WriteU32(out, interner.size());
  for (uint32_t i = 0; i < interner.size(); ++i) {
    serde::WriteString(out, interner.View(i));
  }
}

/// Re-interning every string in id order reproduces the exact dense ids
/// (and arena bytes) of the saving interner.
bool LoadInterner(std::istream& in, StringInterner& interner) {
  uint32_t count;
  if (!serde::ReadU32(in, count)) return false;
  std::string s;
  for (uint32_t i = 0; i < count; ++i) {
    if (!serde::ReadString(in, s)) return false;
    if (interner.Intern(s) != i) return false;  // duplicate string in stream
  }
  return true;
}

}  // namespace

Status EntityCollection::Save(std::ostream& out) const {
  if (!finalized_) {
    return Status::FailedPrecondition(
        "only finalized collections are serializable");
  }
  serde::WriteString(out, kCollectionMagic);
  serde::WriteU32(out, options_.tokenizer.min_token_length);
  serde::WriteU8(out, options_.tokenizer.keep_numeric ? 1 : 0);
  serde::WriteU8(out, options_.tokenizer.normalize ? 1 : 0);
  serde::WriteDouble(out, options_.max_token_frequency);
  serde::WriteU8(out, options_.index_types ? 1 : 0);

  SaveInterner(out, iris_);
  SaveInterner(out, predicates_);
  SaveInterner(out, values_);
  SaveInterner(out, tokens_);

  serde::WriteU32(out, num_kbs());
  for (const KnowledgeBaseInfo& kb : kbs_) {
    serde::WriteString(out, kb.name);
    serde::WriteU64(out, kb.triples);
    serde::WriteU32(out, kb.first_entity);
    serde::WriteU32(out, kb.end_entity);
    serde::WriteU32(out, kb.appended_entities);
  }

  serde::WriteU32(out, num_entities());
  for (const EntityDescription& e : entities_) {
    serde::WriteU32(out, e.iri);
    serde::WriteU32(out, e.kb);
    serde::WriteU32(out, static_cast<uint32_t>(e.attributes.size()));
    for (const Attribute& a : e.attributes) {
      serde::WriteU32(out, a.predicate);
      serde::WriteU32(out, a.value);
    }
    serde::WriteU32(out, static_cast<uint32_t>(e.relations.size()));
    for (const Relation& r : e.relations) {
      serde::WriteU32(out, r.predicate);
      serde::WriteU32(out, r.target);
    }
    serde::WriteU32(out, static_cast<uint32_t>(e.tokens.size()));
    for (const uint32_t t : e.tokens) serde::WriteU32(out, t);
    serde::WriteU32(out, static_cast<uint32_t>(e.token_bag.size()));
    for (const uint32_t t : e.token_bag) serde::WriteU32(out, t);
  }

  serde::WriteU64(out, same_as_links_.size());
  for (const SameAsLink& link : same_as_links_) {
    serde::WriteU32(out, link.a);
    serde::WriteU32(out, link.b);
  }

  // Document frequencies are serialized verbatim rather than rebuilt from
  // the entity token sets: stop-token removal (max_token_frequency) strips
  // tokens from the sets AFTER their frequencies were counted.
  serde::WriteU32(out, static_cast<uint32_t>(token_df_.size()));
  for (const uint32_t df : token_df_) serde::WriteU32(out, df);

  serde::WriteU64(out, total_triples_);
  if (!out) return Status::IoError("collection write failed");
  return Status::Ok();
}

Status EntityCollection::Load(std::istream& in) {
  const auto truncated = [] {
    return Status::ParseError("truncated or corrupt serialized collection");
  };
  std::string magic;
  if (!serde::ReadString(in, magic, kCollectionMagic.size())) {
    return truncated();
  }
  if (magic != kCollectionMagic) {
    return Status::ParseError("not a MinoanER serialized collection");
  }

  uint8_t keep_numeric, normalize, index_types;
  CollectionOptions options;
  if (!serde::ReadU32(in, options.tokenizer.min_token_length) ||
      !serde::ReadU8(in, keep_numeric) || !serde::ReadU8(in, normalize) ||
      !serde::ReadDouble(in, options.max_token_frequency) ||
      !serde::ReadU8(in, index_types)) {
    return truncated();
  }
  options.tokenizer.keep_numeric = keep_numeric != 0;
  options.tokenizer.normalize = normalize != 0;
  options.index_types = index_types != 0;
  options_ = options;
  tokenizer_ = Tokenizer(options.tokenizer);

  iris_ = StringInterner();
  predicates_ = StringInterner();
  values_ = StringInterner();
  tokens_ = StringInterner();
  if (!LoadInterner(in, iris_) || !LoadInterner(in, predicates_) ||
      !LoadInterner(in, values_) || !LoadInterner(in, tokens_)) {
    return truncated();
  }

  uint32_t num_kbs;
  if (!serde::ReadU32(in, num_kbs)) return truncated();
  kbs_.clear();
  kbs_.reserve(serde::ClampedReserve(num_kbs));
  for (uint32_t i = 0; i < num_kbs; ++i) {
    KnowledgeBaseInfo kb;
    if (!serde::ReadString(in, kb.name) || !serde::ReadU64(in, kb.triples) ||
        !serde::ReadU32(in, kb.first_entity) ||
        !serde::ReadU32(in, kb.end_entity) ||
        !serde::ReadU32(in, kb.appended_entities) ||
        kb.first_entity > kb.end_entity) {
      return truncated();
    }
    kbs_.push_back(std::move(kb));
  }

  uint32_t num_entities;
  if (!serde::ReadU32(in, num_entities)) return truncated();
  entities_.clear();
  entities_.reserve(serde::ClampedReserve(num_entities));
  const auto read_ids = [&](std::vector<uint32_t>& ids, uint32_t bound) {
    uint32_t count;
    if (!serde::ReadU32(in, count)) return false;
    ids.clear();
    ids.reserve(serde::ClampedReserve(count));
    for (uint32_t i = 0; i < count; ++i) {
      uint32_t id;
      if (!serde::ReadU32(in, id) || id >= bound) return false;
      ids.push_back(id);
    }
    return true;
  };
  for (uint32_t i = 0; i < num_entities; ++i) {
    EntityDescription e;
    e.id = i;
    uint32_t n_attrs, n_rels;
    if (!serde::ReadU32(in, e.iri) || !serde::ReadU32(in, e.kb) ||
        e.iri >= iris_.size() || e.kb >= kbs_.size() ||
        !serde::ReadU32(in, n_attrs)) {
      return truncated();
    }
    e.attributes.reserve(serde::ClampedReserve(n_attrs));
    for (uint32_t j = 0; j < n_attrs; ++j) {
      Attribute a;
      if (!serde::ReadU32(in, a.predicate) || !serde::ReadU32(in, a.value) ||
          a.predicate >= predicates_.size() || a.value >= values_.size()) {
        return truncated();
      }
      e.attributes.push_back(a);
    }
    if (!serde::ReadU32(in, n_rels)) return truncated();
    e.relations.reserve(serde::ClampedReserve(n_rels));
    for (uint32_t j = 0; j < n_rels; ++j) {
      Relation r;
      if (!serde::ReadU32(in, r.predicate) || !serde::ReadU32(in, r.target) ||
          r.predicate >= predicates_.size() || r.target >= num_entities) {
        return truncated();
      }
      e.relations.push_back(r);
    }
    if (!read_ids(e.tokens, tokens_.size()) ||
        !read_ids(e.token_bag, tokens_.size())) {
      return truncated();
    }
    if (!ConsistentTokenLists(e.tokens, e.token_bag)) {
      return Status::ParseError(
          "serialized entity token lists are unsorted or disagree with its "
          "token bag");
    }
    entities_.push_back(std::move(e));
  }

  uint64_t n_links;
  if (!serde::ReadU64(in, n_links)) return truncated();
  same_as_links_.clear();
  same_as_links_.reserve(serde::ClampedReserve(n_links));
  for (uint64_t i = 0; i < n_links; ++i) {
    SameAsLink link;
    if (!serde::ReadU32(in, link.a) || !serde::ReadU32(in, link.b) ||
        link.a >= num_entities || link.b >= num_entities) {
      return truncated();
    }
    same_as_links_.push_back(link);
  }

  uint32_t n_df;
  if (!serde::ReadU32(in, n_df) || n_df != tokens_.size()) return truncated();
  token_df_.clear();
  token_df_.reserve(serde::ClampedReserve(n_df));
  for (uint32_t i = 0; i < n_df; ++i) {
    uint32_t df;
    if (!serde::ReadU32(in, df)) return truncated();
    token_df_.push_back(df);
  }
  if (!serde::ReadU64(in, total_triples_)) return truncated();

  // Derived lookup tables: first-added entity per IRI and per (KB, IRI) —
  // id order IS first-added order, so set-if-absent reproduces both maps.
  iri_to_entity_.assign(iris_.size(), kInvalidEntity);
  kb_iri_to_entity_ = FlatPairMap<EntityId>();
  kb_iri_to_entity_.Reserve(entities_.size());
  for (const EntityDescription& e : entities_) {
    if (iri_to_entity_[e.iri] == kInvalidEntity) iri_to_entity_[e.iri] = e.id;
    bool created = false;
    EntityId& first =
        kb_iri_to_entity_.FindOrInsert(KbIriKey(e.kb, e.iri), &created);
    if (created) first = e.id;
  }
  pending_same_as_.clear();
  finalized_ = true;
  return Status::Ok();
}

double EntityCollection::TokenIdf(uint32_t token) const {
  if (token >= token_df_.size() || token_df_[token] == 0 ||
      entities_.empty()) {
    return 0.0;
  }
  return std::log(static_cast<double>(entities_.size()) /
                  static_cast<double>(token_df_[token]));
}

namespace {

/// The .nt/.ttl/.turtle files of `dir`, sorted by path.
Result<std::vector<std::string>> ListCorpusFiles(const std::string& dir) {
  std::vector<std::string> files;
  std::error_code ec;
  for (const auto& entry : std::filesystem::directory_iterator(dir, ec)) {
    const std::string ext = entry.path().extension().string();
    if (ext == ".nt" || ext == ".ttl" || ext == ".turtle") {
      files.push_back(entry.path().string());
    }
  }
  if (ec) {
    return Status::IoError("cannot read corpus directory " + dir + ": " +
                           ec.message());
  }
  if (files.empty()) return Status::NotFound("no .nt/.ttl files in " + dir);
  std::sort(files.begin(), files.end());
  return files;
}

/// Bytes of N-Triples text one loader task scans. A constant: chunk
/// boundaries, and with them the order the views come back in, never depend
/// on the thread count.
constexpr size_t kLoadChunkBytes = size_t{1} << 20;

/// One corpus file, read and parsed off the building thread: an N-Triples
/// file as term views chunk by chunk (viewing `bytes`, or a chunk's arena
/// for escaped terms), or a Turtle file's triples.
struct ParsedFile {
  Status status = Status::Ok();
  std::string bytes;
  std::vector<std::vector<rdf::TripleView>> chunks;
  std::vector<rdf::TermArena> arenas;
  std::vector<rdf::Triple> turtle;
};

/// Parses `path` into `out` on `pool`, or inline when it is null. An
/// N-Triples file is read with one read by one task, which then hands each
/// line-aligned chunk to a task of its own (lenient: malformed lines are
/// skipped); a Turtle file is one TurtleParser task. With a pool this
/// returns at once and pool->Wait() completes `out`.
void StartParse(const std::string& path, ThreadPool* pool, ParsedFile& out) {
  const auto run = [pool](std::function<void()> task) {
    if (pool != nullptr) {
      pool->Submit(std::move(task));
    } else {
      task();
    }
  };
  if (std::filesystem::path(path).extension() != ".nt") {
    run([path, &out] {
      auto triples = rdf::TurtleParser().ParseFile(path);
      if (triples.ok()) {
        out.turtle = std::move(triples).value();
      } else {
        out.status = triples.status();
      }
    });
    return;
  }
  run([path, &out, run] {
    Result<std::string> bytes = rdf::ReadFileBytes(path);
    if (!bytes.ok()) {
      out.status = bytes.status();
      return;
    }
    out.bytes = std::move(bytes).value();
    const std::vector<std::string_view> pieces =
        rdf::SplitLineAligned(out.bytes, kLoadChunkBytes);
    out.chunks.resize(pieces.size());
    out.arenas.resize(pieces.size());
    for (size_t c = 0; c < pieces.size(); ++c) {
      run([piece = pieces[c], c, &out] {
        // A lenient scan skips what it cannot parse; it never fails.
        (void)rdf::NTriplesParser().ScanViews(piece, out.chunks[c],
                                              out.arenas[c]);
      });
    }
  });
}

}  // namespace

Result<EntityCollection> LoadCorpusDirectory(const std::string& dir,
                                             uint32_t num_threads) {
  MINOAN_ASSIGN_OR_RETURN(const std::vector<std::string> files,
                          ListCorpusFiles(dir));
  // File i + 1 is parsed on the pool while file i's KB is built here.
  // Declared before the pool, so on an early return the pool drains its
  // tasks before the files they write go away.
  auto current = std::make_unique<ParsedFile>();
  auto next = std::make_unique<ParsedFile>();
  const uint32_t threads = ResolveThreadCount(num_threads);
  std::unique_ptr<ThreadPool> pool;
  if (threads > 1) pool = std::make_unique<ThreadPool>(threads);

  EntityCollection collection;
  StartParse(files[0], pool.get(), *next);
  for (size_t i = 0; i < files.size(); ++i) {
    if (pool != nullptr) pool->Wait();
    std::swap(current, next);
    *next = ParsedFile();
    if (i + 1 < files.size()) StartParse(files[i + 1], pool.get(), *next);
    MINOAN_RETURN_IF_ERROR(current->status);
    std::string name = std::filesystem::path(files[i]).stem().string();
    // (An empty file has neither views nor triples: an empty KB either way.)
    const Result<uint32_t> kb =
        current->chunks.empty()
            ? collection.AddKnowledgeBase(std::move(name), current->turtle)
            : collection.AddKnowledgeBase(std::move(name), current->chunks);
    MINOAN_RETURN_IF_ERROR(kb.status());
  }
  MINOAN_RETURN_IF_ERROR(collection.Finalize());
  return collection;
}

}  // namespace minoan
