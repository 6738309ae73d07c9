// Golden-checkpoint tests for the flat-table refactor (util/flat_table.h).
//
// The blobs in golden_session_blob.inc / golden_online_blob.inc were
// generated by the PRE-refactor build (std::unordered_map / unordered_set
// pair state) from fixed synthetic clouds. They pin two contracts at once:
//
//   1. Byte identity: a post-refactor run over the same cloud produces the
//      exact same checkpoint bytes — the container swap never leaks into
//      serialization, because every write path canonicalizes to ascending
//      pair order first.
//   2. Restorability: a post-refactor build restores a pre-refactor blob
//      and continues with the byte-identical match sequence an
//      uninterrupted run produces.
//
// If a change intentionally alters the checkpoint format, regenerate the
// blobs from a build at the commit BEFORE the format change and say so in
// the commit message — never paste in bytes produced by the same build
// that is being tested, which would make the test a tautology.
//
// The same rule holds for kPinnedPipelines below: per-configuration digests
// of the whole static pipeline (every blocker, pruning scheme, weighting
// scheme and cleaning switch), generated by a build of the commit before
// the block-store collapse, so one code path must reproduce what the keyed
// and the flat stores produced. It holds for the corpus-loader digests at
// the end too: generated by a build of the commit before the buffer-scanning
// N-Triples parser and the chunk-parallel loader, which read the corpus
// line by line into Triples on one thread.

#include <bit>
#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <iostream>
#include <iterator>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "core/session.h"
#include "datagen/lod_generator.h"
#include "gtest/gtest.h"
#include "kb/collection.h"
#include "loader_corpus.h"
#include "online/online_resolver.h"
#include "scratch_dir.h"
#include "util/hash.h"
#include "util/serde.h"

namespace minoan {
namespace {

// Canonicalized (wall-clock doubles zeroed) "MNER-SESS-v1" checkpoint of:
// MakeCloud(1203, 220), threshold 0.3, Step(400).
const char kSessionGoldenHex[] =
#include "golden_session_blob.inc"
    ;  // NOLINT(whitespace/semicolon)

// "MNER-ONLN-v1" SaveState of: warm start from MakeCloud(1203, 80),
// threshold 0.3, use_same_as_seeds, ResolveBudget(300). Online state holds
// no wall-clock fields, so the blob is verbatim.
const char kOnlineGoldenHex[] =
#include "golden_online_blob.inc"
    ;  // NOLINT(whitespace/semicolon)

std::string HexDecode(const char* hex) {
  const std::string_view in(hex);
  std::string out;
  out.reserve(in.size() / 2);
  for (size_t i = 0; i + 1 < in.size(); i += 2) {
    const auto nibble = [](char c) {
      return static_cast<unsigned>(c <= '9' ? c - '0' : c - 'a' + 10);
    };
    out.push_back(static_cast<char>(nibble(in[i]) << 4 | nibble(in[i + 1])));
  }
  return out;
}

EntityCollection MakeCloud(uint64_t seed, uint32_t entities) {
  datagen::LodCloudConfig cfg;
  cfg.seed = seed;
  cfg.num_real_entities = entities;
  cfg.num_kbs = 4;
  cfg.center_kbs = 2;
  auto cloud = datagen::GenerateLodCloud(cfg);
  EXPECT_TRUE(cloud.ok());
  auto collection = cloud->BuildCollection();
  EXPECT_TRUE(collection.ok());
  return std::move(collection).value();
}

WorkflowOptions SessionOptions() {
  WorkflowOptions options;
  options.progressive.matcher.threshold = 0.3;
  return options;
}

online::OnlineOptions OnlineGoldenOptions() {
  online::OnlineOptions options;
  options.matcher.threshold = 0.3;
  options.use_same_as_seeds = true;
  return options;
}

/// Same canonicalization as obs_test.cc: zero the wall-clock doubles (phase
/// millis, cumulative resolve time); everything else passes through
/// bit-exact.
std::string CanonicalizeCheckpoint(const std::string& bytes) {
  std::istringstream in(bytes);
  std::ostringstream out;

  std::string magic;
  EXPECT_TRUE(serde::ReadString(in, magic));
  EXPECT_EQ(magic, "MNER-SESS-v1");
  serde::WriteString(out, magic);

  uint32_t u32 = 0;
  for (int i = 0; i < 2; ++i) {  // num_entities, num_kbs
    EXPECT_TRUE(serde::ReadU32(in, u32));
    serde::WriteU32(out, u32);
  }
  uint64_t u64 = 0;
  // total_triples, options digest, then the six static-phase counters.
  for (int i = 0; i < 8; ++i) {
    EXPECT_TRUE(serde::ReadU64(in, u64));
    serde::WriteU64(out, u64);
  }
  double mean_weight = 0;  // deterministic — compared, not zeroed
  EXPECT_TRUE(serde::ReadDouble(in, mean_weight));
  serde::WriteDouble(out, mean_weight);
  for (int i = 0; i < 2; ++i) {  // nominations, distinct_pairs
    EXPECT_TRUE(serde::ReadU64(in, u64));
    serde::WriteU64(out, u64);
  }

  uint64_t num_phases = 0;
  EXPECT_TRUE(serde::ReadU64(in, num_phases));
  serde::WriteU64(out, num_phases);
  for (uint64_t i = 0; i < num_phases; ++i) {
    std::string name;
    double millis = 0;
    uint64_t cardinality = 0;
    EXPECT_TRUE(serde::ReadString(in, name));
    EXPECT_TRUE(serde::ReadDouble(in, millis));
    EXPECT_TRUE(serde::ReadU64(in, cardinality));
    serde::WriteString(out, name);
    serde::WriteDouble(out, 0.0);  // wall clock: varies run to run
    serde::WriteU64(out, cardinality);
  }
  double resolve_millis = 0;
  EXPECT_TRUE(serde::ReadDouble(in, resolve_millis));
  serde::WriteDouble(out, 0.0);  // wall clock

  out << in.rdbuf();
  return out.str();
}

void ExpectSameMatches(const ResolutionRun& a, const ResolutionRun& b) {
  EXPECT_EQ(a.comparisons_executed, b.comparisons_executed);
  ASSERT_EQ(a.matches.size(), b.matches.size());
  for (size_t i = 0; i < a.matches.size(); ++i) {
    EXPECT_EQ(a.matches[i].a, b.matches[i].a) << "match " << i;
    EXPECT_EQ(a.matches[i].b, b.matches[i].b) << "match " << i;
    EXPECT_EQ(a.matches[i].comparisons_done, b.matches[i].comparisons_done)
        << "match " << i;
    EXPECT_EQ(std::bit_cast<uint64_t>(a.matches[i].similarity),
              std::bit_cast<uint64_t>(b.matches[i].similarity))
        << "match " << i;
  }
}

TEST(GoldenCheckpointTest, SessionCheckpointMatchesPreRefactorBytes) {
  const EntityCollection collection = MakeCloud(1203, 220);
  auto session = ResolutionSession::Open(collection, SessionOptions());
  ASSERT_TRUE(session.ok());
  session->Step(400);
  std::ostringstream out;
  ASSERT_TRUE(session->Checkpoint(out).ok());
  const std::string golden = HexDecode(kSessionGoldenHex);
  ASSERT_EQ(golden.size(), 12867u);  // guards against a clipped .inc
  EXPECT_EQ(CanonicalizeCheckpoint(out.str()), golden);
}

TEST(GoldenCheckpointTest, SessionRestoresFromPreRefactorBlob) {
  const EntityCollection collection = MakeCloud(1203, 220);
  std::istringstream blob(HexDecode(kSessionGoldenHex));
  auto restored =
      ResolutionSession::Restore(collection, SessionOptions(), blob);
  ASSERT_TRUE(restored.ok());
  restored->Step(0);  // run to exhaustion

  auto fresh = ResolutionSession::Open(collection, SessionOptions());
  ASSERT_TRUE(fresh.ok());
  fresh->Step(400);
  fresh->Step(0);
  ExpectSameMatches(fresh->Report().progressive.run,
                    restored->Report().progressive.run);
}

TEST(GoldenCheckpointTest, OnlineSaveStateKeepsPreRefactorDynamicBytes) {
  // SaveState now writes MNER-ONLN-v2: the v1 layout with the serialized
  // collection spliced in right after the header. The golden v1 blob still
  // pins the format — the fresh save must carry the exact v1 header (modulo
  // the version tag) and the byte-identical dynamic-state suffix.
  online::OnlineResolver resolver(OnlineGoldenOptions(), MakeCloud(1203, 80));
  resolver.ResolveBudget(300);
  std::ostringstream out;
  ASSERT_TRUE(resolver.SaveState(out).ok());
  const std::string golden = HexDecode(kOnlineGoldenHex);
  ASSERT_EQ(golden.size(), 24825u);
  const std::string v2 = out.str();

  // Header: length-prefixed 12-byte magic + two u32 counts + two u64s.
  constexpr size_t kMagicBytes = 8 + 12;
  constexpr size_t kHeaderBytes = kMagicBytes + 4 + 4 + 8 + 8;
  ASSERT_GT(v2.size(), golden.size());  // the embedded collection is extra
  EXPECT_EQ(v2.substr(0, kMagicBytes - 1), golden.substr(0, kMagicBytes - 1));
  EXPECT_EQ(v2[kMagicBytes - 1], '2');
  EXPECT_EQ(golden[kMagicBytes - 1], '1');
  EXPECT_EQ(v2.substr(kMagicBytes, kHeaderBytes - kMagicBytes),
            golden.substr(kMagicBytes, kHeaderBytes - kMagicBytes));

  // Dynamic state (everything after the v1 header) is byte-identical.
  const std::string dynamic = golden.substr(kHeaderBytes);
  ASSERT_GE(v2.size(), dynamic.size());
  EXPECT_EQ(v2.substr(v2.size() - dynamic.size()), dynamic);
}

TEST(GoldenCheckpointTest, OnlineRestoresFromPreRefactorBlob) {
  std::istringstream blob(HexDecode(kOnlineGoldenHex));
  auto restored = online::OnlineResolver::Restore(
      OnlineGoldenOptions(), MakeCloud(1203, 80), blob);
  ASSERT_TRUE(restored.ok());
  (*restored)->ResolveBudget(300);

  online::OnlineResolver fresh(OnlineGoldenOptions(), MakeCloud(1203, 80));
  fresh.ResolveBudget(300);
  fresh.ResolveBudget(300);
  ExpectSameMatches(fresh.run(), (*restored)->run());

  // And the continued engines agree byte-for-byte on their next state.
  std::ostringstream a, b;
  ASSERT_TRUE(fresh.SaveState(a).ok());
  ASSERT_TRUE((*restored)->SaveState(b).ok());
  EXPECT_EQ(a.str(), b.str());
}

TEST(GoldenCheckpointTest, OnlineSelfContainedRestoreRoundTrip) {
  // v2 states restore without any caller-side collection snapshot: the
  // restored engine continues byte-identically AND accepts further ingests.
  online::OnlineResolver fresh(OnlineGoldenOptions(), MakeCloud(1203, 80));
  fresh.ResolveBudget(300);
  std::ostringstream saved;
  ASSERT_TRUE(fresh.SaveState(saved).ok());

  std::istringstream blob(saved.str());
  auto restored = online::OnlineResolver::Restore(OnlineGoldenOptions(), blob);
  ASSERT_TRUE(restored.ok());
  ASSERT_EQ((*restored)->collection().num_entities(),
            fresh.collection().num_entities());

  fresh.ResolveBudget(300);
  (*restored)->ResolveBudget(300);
  ExpectSameMatches(fresh.run(), (*restored)->run());
  std::ostringstream a, b;
  ASSERT_TRUE(fresh.SaveState(a).ok());
  ASSERT_TRUE((*restored)->SaveState(b).ok());
  EXPECT_EQ(a.str(), b.str());
}

TEST(GoldenCheckpointTest, OnlineSelfContainedRestoreRejectsV1) {
  // v1 blobs carry no collection; the self-contained overload must say so
  // instead of misreading the dynamic state.
  std::istringstream blob(HexDecode(kOnlineGoldenHex));
  auto restored = online::OnlineResolver::Restore(OnlineGoldenOptions(), blob);
  EXPECT_FALSE(restored.ok());
}

// ---------------------------------------------------------------------------
// Static pipeline digests
// ---------------------------------------------------------------------------

/// One pinned configuration: Fnv1a64 of the canonical checkpoint after
/// Step(400) (block counters, meta-blocking stats and every candidate's
/// likelihood), and PipelineMatchDigest after Step(0).
struct PinnedPipeline {
  const char* name;
  uint64_t checkpoint;
  uint64_t matches;
};

// MakeCloud(1203, 300), threshold 0.3, sorted-neighborhood window 8 with 5
// keys per entity. Generated by a build of the commit before the
// block-store collapse (see the header), where the in-memory run used the
// keyed store and the budgeted run the flat one; both produced these values.
// A mismatch prints the configuration's line in this format.
constexpr PinnedPipeline kPinnedPipelines[] = {
    {"token/WEP", 0x7911d74e08b3a142, 0xfbd7ec7e6b93a959},
    {"token/CEP", 0x724b51f8b938564d, 0x49c3e94e6ec97b26},
    {"token/WNP", 0x3f6e5fb78e818503, 0xd2436279f596c379},
    {"token/CNP", 0x89ce409ee8d60b9d, 0x5c7a6b229e9c037b},
    {"pis/WEP", 0xbc09d55eca4142ff, 0x2700d9696113cfef},
    {"pis/CEP", 0xbf1db21914807d9b, 0x46c3e895affa9afb},
    {"pis/WNP", 0x9c48d3ecb5c25cd7, 0x2087e228a3b3c077},
    {"pis/CNP", 0x6151480eb5938582, 0x4fbb7bffeaffdcaf},
    {"attr-cluster/WEP", 0x726e8cc238d2bba6, 0x1d77f89a50c9908b},
    {"attr-cluster/CEP", 0x730e883b0601b1d0, 0x2b44ee734b2f3170},
    {"attr-cluster/WNP", 0xea74209881d45697, 0xde7f961caa49b6a4},
    {"attr-cluster/CNP", 0x575c52dd871d88e8, 0xfdcf8c3fcb9028ec},
    {"token+pis/WEP", 0xec5061dc27e8db72, 0x9b9bf518ccea93ef},
    {"token+pis/CEP", 0x07c21cd75a05f1b4, 0xe400a4a85a023496},
    {"token+pis/WNP", 0xff24f57a01530873, 0x1add5d9022e0051e},
    {"token+pis/CNP", 0xbee44228dc0a8952, 0xe400a4a85a023496},
    {"qgram/WEP", 0x19f3b0119b383f26, 0x3f23c58028df7557},
    {"qgram/CEP", 0xd8cbd9b378af8310, 0x48900ef2038c88f0},
    {"qgram/WNP", 0xa27dfbc57af434fd, 0x1b7011d3a96aaf54},
    {"qgram/CNP", 0x044c0994567962a4, 0xe5272d125c2454fb},
    {"sorted-nbhd/WEP", 0x7053f0688394a9de, 0xbf440bf2931e7fb4},
    {"sorted-nbhd/CEP", 0x39fd8a45d1f74adc, 0x34298a210ccd2b19},
    {"sorted-nbhd/WNP", 0xb73d2095f391e718, 0x7d9f96f8634a90ab},
    {"sorted-nbhd/CNP", 0xa5f48b0e0ec5afd6, 0x307e2e05ccf29fd9},
    {"WNP/CBS", 0xdef9a352ce0ab5a0, 0x9becf2713d2f85d6},
    {"WNP/JS", 0x5c51ef0351280aec, 0x7b0df26c3b1f9d09},
    {"WNP/EJS", 0x6f351f397220081d, 0x19bf25a8844dfd6f},
    {"WNP/ARCS", 0x66a8e1d942c5e549, 0x4304efbb0f3bd855},
    {"reciprocal-WNP", 0x1c01c21ac1a25536, 0x198905ff295e8098},
    {"no-auto-purge", 0x8475a513993a4a9c, 0x8e10d95b6b61174a},
    {"no-filtering", 0x65da137ce0ca23b2, 0x8ad09d5ea0dfff47},
    {"dirty", 0xda46ec21b85ff586, 0xaa6c2ce5f54af0cb},
    {"no-meta-blocking", 0xce3bad3ecf056f48, 0x177a77350c0d8caf},
};

/// The 33 configurations: every blocker under each pruning scheme (ECBS),
/// every other weighting scheme under WNP, then one switch at a time off
/// the default workflow.
std::vector<std::pair<std::string, WorkflowOptions>> PipelineConfigs() {
  WorkflowOptions base = SessionOptions();
  base.sn_options.window_size = 8;
  base.sn_options.keys_per_entity = 5;
  std::vector<std::pair<std::string, WorkflowOptions>> configs;
  for (const BlockerChoice blocker :
       {BlockerChoice::kToken, BlockerChoice::kPis,
        BlockerChoice::kAttributeClustering, BlockerChoice::kTokenPlusPis,
        BlockerChoice::kQGram, BlockerChoice::kSortedNeighborhood}) {
    for (const PruningScheme pruning :
         {PruningScheme::kWep, PruningScheme::kCep, PruningScheme::kWnp,
          PruningScheme::kCnp}) {
      WorkflowOptions o = base;
      o.blocker = blocker;
      o.meta.weighting = WeightingScheme::kEcbs;
      o.meta.pruning = pruning;
      configs.emplace_back(std::string(BlockerChoiceName(blocker)) + "/" +
                               std::string(PruningSchemeName(pruning)),
                           o);
    }
  }
  for (const WeightingScheme weighting :
       {WeightingScheme::kCbs, WeightingScheme::kJs, WeightingScheme::kEjs,
        WeightingScheme::kArcs}) {
    WorkflowOptions o = base;
    o.meta.weighting = weighting;
    configs.emplace_back("WNP/" + std::string(WeightingSchemeName(weighting)),
                         o);
  }
  WorkflowOptions o = base;
  o.meta.reciprocal = true;
  configs.emplace_back("reciprocal-WNP", o);
  o = base;
  o.auto_purge = false;
  configs.emplace_back("no-auto-purge", o);
  o = base;
  o.filter_ratio = 1.0;
  configs.emplace_back("no-filtering", o);
  o = base;
  o.meta.mode = ResolutionMode::kDirty;
  o.progressive.mode = ResolutionMode::kDirty;
  configs.emplace_back("dirty", o);
  o = base;
  o.enable_meta_blocking = false;
  configs.emplace_back("no-meta-blocking", o);
  return configs;
}

/// Every match (pair, comparisons_done, similarity bits) in order, then the
/// comparisons executed.
uint64_t PipelineMatchDigest(const ResolutionRun& run) {
  uint64_t h = Fnv1a64("minoan-pipeline-matches");
  for (const MatchEvent& m : run.matches) {
    h = HashCombine(h, PairKey(m.a, m.b));
    h = HashCombine(h, m.comparisons_done);
    h = HashCombine(h, std::bit_cast<uint64_t>(m.similarity));
  }
  return HashCombine(h, run.comparisons_executed);
}

std::string Hex(uint64_t v) {
  char buf[19];
  std::snprintf(buf, sizeof(buf), "0x%016llx",
                static_cast<unsigned long long>(v));
  return buf;
}

TEST(GoldenCheckpointTest, StaticPipelineMatchesParentDigests) {
  const EntityCollection collection = MakeCloud(1203, 300);
  extmem::MemoryBudgetOptions spill;
  spill.shuffle_budget_bytes = 16 << 10;
  const auto configs = PipelineConfigs();
  ASSERT_EQ(configs.size(), std::size(kPinnedPipelines));
  for (size_t i = 0; i < configs.size(); ++i) {
    const auto& [name, base] = configs[i];
    ASSERT_EQ(name, kPinnedPipelines[i].name);
    for (const bool budgeted : {false, true}) {
      WorkflowOptions options = base;
      if (budgeted) {
        options.num_threads = 4;
        options.memory = spill;
      }
      const std::string label = name + (budgeted ? " @4t/16k" : " @1t");
      auto session = ResolutionSession::Open(collection, options);
      ASSERT_TRUE(session.ok()) << label << ": " << session.status().message();
      session->Step(400);
      std::ostringstream checkpoint;
      ASSERT_TRUE(session->Checkpoint(checkpoint).ok()) << label;
      session->Step(0);
      const uint64_t checkpoint_digest =
          Fnv1a64(CanonicalizeCheckpoint(checkpoint.str()));
      const uint64_t match_digest =
          PipelineMatchDigest(session->Report().progressive.run);
      EXPECT_EQ(checkpoint_digest, kPinnedPipelines[i].checkpoint) << label;
      EXPECT_EQ(match_digest, kPinnedPipelines[i].matches) << label;
      if (checkpoint_digest != kPinnedPipelines[i].checkpoint ||
          match_digest != kPinnedPipelines[i].matches) {
        std::cout << "    {\"" << name << "\", " << Hex(checkpoint_digest)
                  << ", " << Hex(match_digest) << "},\n";
      }
    }
  }
}

// ---------------------------------------------------------------------------
// Corpus loader digests
// ---------------------------------------------------------------------------

TEST(GoldenCheckpointTest, CorpusLoaderMatchesParentCollectionDigests) {
  // Fnv1a64 of EntityCollection::Save after LoadCorpusDirectory over the
  // two loader corpora of loader_corpus.h (see the header for the rule).
  const testutil::ScratchDir scratch("golden-loader");
  const std::string hand = scratch.str() + "/hand";
  const std::string cloud = scratch.str() + "/cloud";
  std::filesystem::create_directories(hand);
  testutil::WriteHandCorpus(hand);
  testutil::WriteLoaderCloud(cloud);
  const struct {
    const char* name;
    std::string dir;
    uint64_t digest;
  } kPinned[] = {
      {"hand", hand, 0xdd8c966244ce4a47},
      {"cloud", cloud, 0x40abba7b93bd95b9},
  };
  for (const auto& corpus : kPinned) {
    auto collection = LoadCorpusDirectory(corpus.dir);
    ASSERT_TRUE(collection.ok()) << corpus.name;
    const uint64_t digest = Fnv1a64(testutil::SavedBytes(*collection));
    EXPECT_EQ(digest, corpus.digest) << corpus.name;
    if (digest != corpus.digest) {
      std::cout << "      {\"" << corpus.name << "\", ..., " << Hex(digest)
                << "},\n";
    }
  }
}

}  // namespace
}  // namespace minoan
