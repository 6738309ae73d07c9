#include "datagen/lod_generator.h"

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <unordered_set>

#include "util/hash.h"

namespace minoan {
namespace datagen {

namespace {

/// A real-world entity in the generated universe.
struct RealEntity {
  EntityType type;
  std::vector<std::string> name_tokens;
  std::vector<std::string> fact_tokens;
  uint32_t year = 0;
  std::vector<uint32_t> neighbors;  // both directions
};

/// One KB's plan: which reals it describes and under which IRIs.
struct KbPlan {
  std::string name;
  bool is_center = false;
  std::string resource_ns;   // http://kbN.minoan.org/resource/
  std::string vocab_ns;      // proprietary or shared
  bool proprietary = false;
  std::vector<std::string> fact_predicates;  // full IRIs
  std::vector<uint32_t> described;           // real ids
  std::vector<std::string> iris;             // parallel to described
  std::vector<uint32_t> local_of_real;       // real id -> index or UINT32_MAX
};

constexpr const char* kSharedVocabNs = "http://schema.minoan.org/prop/";
constexpr const char* kSharedPredicateNames[] = {
    "name",  "label",   "located", "founded", "maker",
    "genre", "country", "owner",   "field",   "series"};

/// Applies one random character edit (substitute / delete / transpose).
std::string CorruptToken(const std::string& token, Rng& rng) {
  if (token.size() < 3) return token;
  std::string out = token;
  const size_t pos = rng.Below(out.size());
  switch (rng.Below(3)) {
    case 0:  // substitution
      out[pos] = static_cast<char>('a' + rng.Below(26));
      break;
    case 1:  // deletion
      out.erase(pos, 1);
      break;
    default:  // transposition with the next character
      if (pos + 1 < out.size()) std::swap(out[pos], out[pos + 1]);
      break;
  }
  return out;
}

std::string Slugify(const std::vector<std::string>& tokens) {
  std::string slug;
  for (const auto& t : tokens) {
    if (!slug.empty()) slug += '_';
    slug += t;
  }
  return slug;
}

/// Builds the real-world relation graph with preferential attachment.
void BuildRealGraph(std::vector<RealEntity>& reals, double mean_degree,
                    double attachment_bias, Rng& rng) {
  const uint32_t n = static_cast<uint32_t>(reals.size());
  if (n < 2) return;
  const uint64_t target_edges =
      static_cast<uint64_t>(mean_degree * n / 2.0);
  // "Repeated endpoints" trick: sampling from this list approximates
  // degree-proportional selection.
  std::vector<uint32_t> pa_pool;
  pa_pool.reserve(target_edges * 2 + n);
  std::unordered_set<uint64_t> edge_set;
  uint64_t made = 0, attempts = 0;
  while (made < target_edges && attempts < target_edges * 20) {
    ++attempts;
    const uint32_t a = static_cast<uint32_t>(rng.Below(n));
    uint32_t b;
    if (!pa_pool.empty() &&
        rng.Chance(attachment_bias / (1.0 + attachment_bias))) {
      b = pa_pool[rng.Below(pa_pool.size())];
    } else {
      b = static_cast<uint32_t>(rng.Below(n));
    }
    if (a == b) continue;
    const uint64_t key = PairKey(a, b);
    if (!edge_set.insert(key).second) continue;
    reals[a].neighbors.push_back(b);
    reals[b].neighbors.push_back(a);
    pa_pool.push_back(a);
    pa_pool.push_back(b);
    ++made;
  }
}

}  // namespace

Status LodCloudConfig::Validate() const {
  if (num_real_entities == 0) {
    return Status::InvalidArgument("num_real_entities must be > 0");
  }
  if (num_kbs == 0) return Status::InvalidArgument("num_kbs must be > 0");
  if (center_kbs > num_kbs) {
    return Status::InvalidArgument("center_kbs exceeds num_kbs");
  }
  auto fraction = [](double v) { return v >= 0.0 && v <= 1.0; };
  if (!fraction(center_coverage) || !fraction(periphery_coverage)) {
    return Status::InvalidArgument("coverage must lie in [0,1]");
  }
  if (!fraction(center_token_overlap) || !fraction(periphery_token_overlap)) {
    return Status::InvalidArgument("token overlap must lie in [0,1]");
  }
  if (!fraction(typo_rate)) {
    return Status::InvalidArgument("typo_rate must lie in [0,1]");
  }
  if (!fraction(proprietary_vocab_rate) || !fraction(same_as_rate) ||
      !fraction(relation_keep_rate) || !fraction(periphery_domain_bias) ||
      !fraction(center_named_iri_rate) || !fraction(periphery_named_iri_rate)) {
    return Status::InvalidArgument("rate parameters must lie in [0,1]");
  }
  if (min_fact_tokens > max_fact_tokens) {
    return Status::InvalidArgument("min_fact_tokens > max_fact_tokens");
  }
  if (name_pool_size == 0 || fact_pool_size == 0 || noise_pool_size == 0) {
    return Status::InvalidArgument("word pools must be non-empty");
  }
  return Status::Ok();
}

Result<LodCloud> GenerateLodCloud(const LodCloudConfig& config) {
  MINOAN_RETURN_IF_ERROR(config.Validate());
  Rng rng(config.seed);

  // ---- Vocabulary pools ---------------------------------------------------
  WordPool name_pool(rng, config.name_pool_size, 2, 3);
  WordPool fact_pool(rng, config.fact_pool_size, 2, 4);
  WordPool noise_pool(rng, config.noise_pool_size, 2, 4);
  WordPool predicate_pool(rng, 64, 2, 3);

  // ---- Universe -----------------------------------------------------------
  std::vector<RealEntity> reals(config.num_real_entities);
  std::vector<std::vector<uint32_t>> by_type(kNumEntityTypes);
  for (uint32_t r = 0; r < config.num_real_entities; ++r) {
    RealEntity& e = reals[r];
    e.type = static_cast<EntityType>(rng.Below(kNumEntityTypes));
    by_type[static_cast<uint32_t>(e.type)].push_back(r);
    const uint32_t name_len = static_cast<uint32_t>(rng.Uniform(2, 3));
    for (uint32_t i = 0; i < name_len; ++i) {
      e.name_tokens.push_back(name_pool.Sample(rng));
    }
    const uint32_t facts = static_cast<uint32_t>(
        rng.Uniform(config.min_fact_tokens, config.max_fact_tokens));
    for (uint32_t i = 0; i < facts; ++i) {
      e.fact_tokens.push_back(fact_pool.Sample(rng));
    }
    e.year = 1900 + static_cast<uint32_t>(rng.Below(126));
  }
  BuildRealGraph(reals, config.real_mean_degree, config.attachment_bias, rng);

  // ---- KB plans: coverage, vocabulary, IRIs -------------------------------
  std::vector<KbPlan> plans(config.num_kbs);
  for (uint32_t k = 0; k < config.num_kbs; ++k) {
    KbPlan& plan = plans[k];
    plan.is_center = k < config.center_kbs;
    char buf[64];
    std::snprintf(buf, sizeof(buf), "kb%02u-%s", k,
                  plan.is_center ? "center" : "periphery");
    plan.name = buf;
    plan.resource_ns =
        "http://kb" + std::to_string(k) + ".minoan.org/resource/";
    plan.proprietary = rng.Chance(config.proprietary_vocab_rate);
    plan.vocab_ns = plan.proprietary
                        ? "http://kb" + std::to_string(k) +
                              ".minoan.org/vocab/"
                        : kSharedVocabNs;
    for (uint32_t p = 0; p < config.predicates_per_kb; ++p) {
      const std::string local =
          plan.proprietary
              ? predicate_pool.word(rng.Below(predicate_pool.size()))
              : kSharedPredicateNames[p % std::size(kSharedPredicateNames)];
      std::string iri = plan.vocab_ns + local;
      // Keep predicates distinct within the KB.
      if (std::find(plan.fact_predicates.begin(), plan.fact_predicates.end(),
                    iri) != plan.fact_predicates.end()) {
        iri += std::to_string(p);
      }
      plan.fact_predicates.push_back(std::move(iri));
    }

    // Coverage with +-20% jitter; periphery may be domain-restricted.
    const double base_cov =
        plan.is_center ? config.center_coverage : config.periphery_coverage;
    const double cov = base_cov * (0.8 + 0.4 * rng.NextDouble());
    const std::vector<uint32_t>* eligible_all = nullptr;
    std::vector<uint32_t> eligible_storage;
    if (!plan.is_center && rng.Chance(config.periphery_domain_bias)) {
      eligible_all = &by_type[rng.Below(kNumEntityTypes)];
    } else {
      eligible_storage.resize(config.num_real_entities);
      for (uint32_t r = 0; r < config.num_real_entities; ++r) {
        eligible_storage[r] = r;
      }
      eligible_all = &eligible_storage;
    }
    // Coverage is a fraction of the whole universe, capped by the domain.
    uint32_t want = static_cast<uint32_t>(cov * config.num_real_entities);
    want = std::min<uint32_t>(
        want, static_cast<uint32_t>(eligible_all->size()));
    want = std::max<uint32_t>(want, 1);
    std::vector<uint32_t> sample = *eligible_all;
    rng.Shuffle(sample);
    sample.resize(want);
    std::sort(sample.begin(), sample.end());
    plan.described = std::move(sample);

    // Mint IRIs.
    const double named_rate = plan.is_center
                                  ? config.center_named_iri_rate
                                  : config.periphery_named_iri_rate;
    plan.local_of_real.assign(config.num_real_entities, UINT32_MAX);
    std::unordered_set<std::string> used;
    plan.iris.reserve(plan.described.size());
    for (uint32_t i = 0; i < plan.described.size(); ++i) {
      const uint32_t r = plan.described[i];
      std::string suffix;
      if (rng.Chance(named_rate)) {
        suffix = Slugify(reals[r].name_tokens);
      } else {
        char hex[24];
        std::snprintf(hex, sizeof(hex), "e%010llx",
                      static_cast<unsigned long long>(
                          Mix64(config.seed ^ (uint64_t{k} << 32 | r)) &
                          0xffffffffffULL));
        suffix = hex;
      }
      std::string iri = plan.resource_ns + suffix;
      while (!used.insert(iri).second) {
        iri += "_" + std::to_string(i);
      }
      plan.iris.push_back(std::move(iri));
      plan.local_of_real[r] = i;
    }
  }

  // ---- Triples per KB -----------------------------------------------------
  LodCloud cloud;
  cloud.kbs.resize(config.num_kbs);
  for (uint32_t k = 0; k < config.num_kbs; ++k) {
    const KbPlan& plan = plans[k];
    GeneratedKb& out = cloud.kbs[k];
    out.name = plan.name;
    out.is_center = plan.is_center;
    const double overlap = plan.is_center ? config.center_token_overlap
                                          : config.periphery_token_overlap;

    for (uint32_t i = 0; i < plan.described.size(); ++i) {
      const uint32_t r = plan.described[i];
      const RealEntity& e = reals[r];
      const rdf::Term subject = rdf::Term::Iri(plan.iris[i]);

      // rdf:type with the shared class taxonomy.
      out.triples.push_back(
          {subject, rdf::Term::Iri(std::string(rdf::kRdfType)),
           rdf::Term::Iri(EntityTypeClassIri(e.type))});

      // Name: keep each canonical name token with prob `overlap`, at least 1.
      std::vector<std::string> kept_name;
      for (const auto& t : e.name_tokens) {
        if (rng.Chance(overlap)) kept_name.push_back(t);
      }
      if (kept_name.empty()) {
        kept_name.push_back(e.name_tokens[rng.Below(e.name_tokens.size())]);
      }
      std::string name_value;
      for (const auto& t : kept_name) {
        if (!name_value.empty()) name_value += ' ';
        name_value += config.typo_rate > 0 && rng.Chance(config.typo_rate)
                          ? CorruptToken(t, rng)
                          : t;
      }
      out.triples.push_back({subject,
                             rdf::Term::Iri(plan.vocab_ns + "name"),
                             rdf::Term::Literal(name_value)});

      // Facts: sampled canonical tokens spread across this KB's predicates.
      std::vector<std::string> pred_values(plan.fact_predicates.size());
      uint32_t kept_facts = 0;
      for (const auto& t : e.fact_tokens) {
        if (!rng.Chance(overlap)) continue;
        std::string& v =
            pred_values[rng.Below(pred_values.size())];
        if (!v.empty()) v += ' ';
        v += config.typo_rate > 0 && rng.Chance(config.typo_rate)
                 ? CorruptToken(t, rng)
                 : t;
        ++kept_facts;
      }
      (void)kept_facts;
      // Noise tokens go to a per-KB "note" predicate.
      const uint32_t noise = static_cast<uint32_t>(
          rng.Below(static_cast<uint64_t>(config.mean_noise_tokens * 2) + 1));
      std::string note;
      for (uint32_t x = 0; x < noise; ++x) {
        if (!note.empty()) note += ' ';
        note += noise_pool.Sample(rng);
      }
      for (size_t p = 0; p < pred_values.size(); ++p) {
        if (pred_values[p].empty()) continue;
        out.triples.push_back({subject,
                               rdf::Term::Iri(plan.fact_predicates[p]),
                               rdf::Term::Literal(pred_values[p])});
      }
      if (!note.empty()) {
        out.triples.push_back({subject,
                               rdf::Term::Iri(plan.vocab_ns + "note"),
                               rdf::Term::Literal(note)});
      }

      // Year: shared signal, occasionally perturbed in the periphery.
      if (rng.Chance(0.7)) {
        uint32_t year = e.year;
        if (!plan.is_center && rng.Chance(0.3)) {
          year += static_cast<uint32_t>(rng.Uniform(-1, 1));
        }
        out.triples.push_back(
            {subject, rdf::Term::Iri(plan.vocab_ns + "year"),
             rdf::Term::Literal(std::to_string(year),
                                std::string(rdf::kXsdInteger))});
      }

      // Relations mirroring the real-world graph within this KB.
      for (const uint32_t r2 : e.neighbors) {
        if (r2 <= r) continue;  // one direction per real edge
        const uint32_t j = plan.local_of_real[r2];
        if (j == UINT32_MAX) continue;
        if (!rng.Chance(config.relation_keep_rate)) continue;
        out.triples.push_back({subject,
                               rdf::Term::Iri(plan.vocab_ns + "related"),
                               rdf::Term::Iri(plan.iris[j])});
      }
    }
  }

  // ---- Ground truth and owl:sameAs interlinks ----------------------------
  ZipfSampler kb_popularity(config.num_kbs, config.link_zipf_skew);
  std::vector<std::pair<uint32_t, uint32_t>> describers;  // (kb, local idx)
  for (uint32_t r = 0; r < config.num_real_entities; ++r) {
    describers.clear();
    for (uint32_t k = 0; k < config.num_kbs; ++k) {
      const uint32_t i = plans[k].local_of_real[r];
      if (i != UINT32_MAX) describers.emplace_back(k, i);
    }
    for (size_t a = 0; a < describers.size(); ++a) {
      const auto& [ka, ia] = describers[a];
      cloud.iri_to_cluster.emplace_back(plans[ka].iris[ia], r);
      for (size_t b = a + 1; b < describers.size(); ++b) {
        const auto& [kb, ib] = describers[b];
        cloud.truth.push_back(
            TruthPair{plans[ka].iris[ia], plans[kb].iris[ib]});
        // Existing interlinking: periphery publishers tend to link toward
        // popular KBs (Zipf rank = KB index, center KBs first).
        if (rng.Chance(config.same_as_rate)) {
          const bool a_to_b =
              kb_popularity.Pmf(kb) >= kb_popularity.Pmf(ka) ||
              rng.Chance(0.2);
          const auto& [src_k, src_i] = a_to_b ? describers[a] : describers[b];
          const auto& [dst_k, dst_i] = a_to_b ? describers[b] : describers[a];
          cloud.kbs[src_k].triples.push_back(
              {rdf::Term::Iri(plans[src_k].iris[src_i]),
               rdf::Term::Iri(std::string(rdf::kOwlSameAs)),
               rdf::Term::Iri(plans[dst_k].iris[dst_i])});
        }
      }
    }
  }

  return cloud;
}

Result<EntityCollection> LodCloud::BuildCollection(
    CollectionOptions options) const {
  EntityCollection collection(options);
  for (const GeneratedKb& kb : kbs) {
    MINOAN_ASSIGN_OR_RETURN(uint32_t id,
                            collection.AddKnowledgeBase(kb.name, kb.triples));
    (void)id;
  }
  MINOAN_RETURN_IF_ERROR(collection.Finalize());
  return collection;
}

Status LodCloud::WriteTo(const std::string& directory) const {
  std::error_code ec;
  std::filesystem::create_directories(directory, ec);
  if (ec) return Status::IoError("cannot create directory: " + directory);
  for (const GeneratedKb& kb : kbs) {
    const std::string path = directory + "/" + kb.name + ".nt";
    std::ofstream out(path);
    if (!out) return Status::IoError("cannot open: " + path);
    for (const rdf::Triple& t : kb.triples) out << t.ToNTriples() << "\n";
  }
  {
    const std::string path = directory + "/ground_truth.tsv";
    std::ofstream out(path);
    if (!out) return Status::IoError("cannot open: " + path);
    for (const TruthPair& p : truth) {
      out << p.iri_a << "\t" << p.iri_b << "\n";
    }
  }
  {
    const std::string path = directory + "/clusters.tsv";
    std::ofstream out(path);
    if (!out) return Status::IoError("cannot open: " + path);
    for (const auto& [iri, cluster] : iri_to_cluster) {
      out << iri << "\t" << cluster << "\n";
    }
  }
  return Status::Ok();
}

}  // namespace datagen
}  // namespace minoan
