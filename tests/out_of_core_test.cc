// Out-of-core suite: the compressed run codec (round trips plus hostile
// truncation / bit-flip fuzzing — run under ASan in CI), cascaded run
// merges at small fan-ins, mid-merge failure cleanup, the streaming
// postings path, and the full budgeted pipeline parity matrix: every
// blocker × {CEP, WEP} under a forced tiny memory budget must produce
// byte-identical matches and checkpoints to the unbudgeted run, at 1 and 4
// threads.

#include <cstdint>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "blocking/sharded_blocking.h"
#include "core/session.h"
#include "datagen/lod_generator.h"
#include "extmem/memory_budget.h"
#include "extmem/run_codec.h"
#include "extmem/shuffle.h"
#include "extmem/spill_file.h"
#include "gtest/gtest.h"
#include "util/serde.h"
#include "util/thread_pool.h"

namespace minoan {
namespace {

namespace fs = std::filesystem;

/// A fresh directory under the system temp dir that the test removes; any
/// entry still present at assertion time is a leaked spill artifact.
class TempBase {
 public:
  explicit TempBase(const char* tag) {
    path_ = fs::temp_directory_path() /
            (std::string("minoan-ooc-test-") + tag);
    fs::remove_all(path_);
    fs::create_directories(path_);
  }
  ~TempBase() { fs::remove_all(path_); }

  std::string str() const { return path_.string(); }

  size_t NumEntries() const {
    size_t n = 0;
    for ([[maybe_unused]] const auto& entry : fs::directory_iterator(path_)) {
      ++n;
    }
    return n;
  }

 private:
  fs::path path_;
};

/// Builds a shuffle record ([u32 LE key_len][key][payload]) from a string
/// key and arbitrary payload bytes.
std::string StringRecord(const std::string& key, const std::string& payload) {
  std::string record;
  extmem::EncodeKey(key, record);
  record.append(payload);
  return record;
}

std::string U32Record(uint32_t key, uint32_t payload) {
  std::string record;
  extmem::EncodeKey(key, record);
  extmem::AppendU32Le(record, payload);
  return record;
}

std::string ReadFileBytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream os;
  os << in.rdbuf();
  return os.str();
}

void WriteFileBytes(const std::string& path, std::string_view bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

// ---------------------------------------------------------------------------
// Compressed run codec
// ---------------------------------------------------------------------------

TEST(RunCodecTest, VarintRoundTripsEdgeValues) {
  const std::vector<uint64_t> values = {
      0,     1,          127,        128,        255,       16383,
      16384, 1u << 20,   0xffffffffu, (1ull << 32), UINT64_MAX};
  std::string buf;
  for (const uint64_t v : values) extmem::PutVarint(buf, v);
  size_t pos = 0;
  for (const uint64_t expected : values) {
    uint64_t v = 0;
    ASSERT_TRUE(extmem::GetVarint(buf, pos, v));
    EXPECT_EQ(v, expected);
  }
  EXPECT_EQ(pos, buf.size());

  // Truncation: drop the terminating byte of the last (10-byte) varint.
  std::string cut;
  extmem::PutVarint(cut, UINT64_MAX);
  cut.pop_back();
  pos = 0;
  uint64_t v = 0;
  EXPECT_FALSE(extmem::GetVarint(cut, pos, v));

  // Overlong: eleven continuation bytes never terminate a valid varint.
  const std::string overlong(11, static_cast<char>(0x80));
  pos = 0;
  EXPECT_FALSE(extmem::GetVarint(overlong, pos, v));
}

std::vector<std::string> CodecSampleRecords() {
  std::vector<std::string> records;
  // Long shared prefixes (the front-coding sweet spot), interleaved with
  // empty keys, empty payloads, and binary payload bytes.
  records.push_back(StringRecord("", "empty key"));
  records.push_back(StringRecord("", ""));
  for (int i = 0; i < 40; ++i) {
    char key[32];
    std::snprintf(key, sizeof(key), "entity/block/%05d", i);
    std::string payload;
    extmem::AppendU32Le(payload, static_cast<uint32_t>(i));
    if (i % 3 == 0) payload.append(std::string(i, '\0'));
    records.push_back(StringRecord(key, payload));
  }
  records.push_back(StringRecord(std::string(2000, 'k'), "big key"));
  records.push_back(
      StringRecord(std::string(2000, 'k') + "tail", "shares 2000 bytes"));
  return records;
}

TEST(RunCodecTest, RoundTripsFrontCodedRecords) {
  TempBase base("codec");
  const std::string path = base.str() + "/run-0.spill";
  const std::vector<std::string> records = CodecSampleRecords();
  uint64_t compressed = 0;
  {
    extmem::CompressedRunWriter writer(path);
    for (const std::string& r : records) writer.Append(r);
    EXPECT_EQ(writer.records(), records.size());
    compressed = writer.Close();
  }
  // Front coding must actually compress the shared-prefix records.
  uint64_t raw = 0;
  for (const std::string& r : records) raw += r.size();
  EXPECT_LT(compressed, raw);

  extmem::CompressedRunReader reader(path);
  std::string_view record;
  for (const std::string& expected : records) {
    ASSERT_TRUE(reader.Next(record));
    EXPECT_EQ(record, expected);
  }
  EXPECT_FALSE(reader.Next(record));
}

TEST(RunCodecTest, RoundTripsUnsortedRecords) {
  // Sorted order is a compression hint, not a correctness requirement.
  TempBase base("codec-unsorted");
  const std::string path = base.str() + "/run-0.spill";
  const std::vector<std::string> records = {
      StringRecord("zebra", "1"), StringRecord("apple", "2"),
      StringRecord("zeb", "3"), StringRecord("", "4")};
  {
    extmem::CompressedRunWriter writer(path);
    for (const std::string& r : records) writer.Append(r);
    writer.Close();
  }
  extmem::CompressedRunReader reader(path);
  std::string_view record;
  for (const std::string& expected : records) {
    ASSERT_TRUE(reader.Next(record));
    EXPECT_EQ(record, expected);
  }
  EXPECT_FALSE(reader.Next(record));
}

TEST(RunCodecTest, BadMagicThrows) {
  TempBase base("codec-magic");
  const std::string path = base.str() + "/run-0.spill";
  WriteFileBytes(path, "NOTARUN!rest of the file");
  EXPECT_THROW(extmem::CompressedRunReader reader(path), extmem::SpillError);
  WriteFileBytes(path, "MNR");  // shorter than the magic
  EXPECT_THROW(extmem::CompressedRunReader reader(path), extmem::SpillError);
}

/// Reads every record of a (possibly corrupt) compressed run, returning the
/// count. Throwing SpillError is a legal outcome for the caller to catch;
/// anything else (crash, hang, unbounded allocation) fails the test by
/// sanitizer or timeout.
size_t DrainRun(const std::string& path) {
  extmem::CompressedRunReader reader(path);
  std::string_view record;
  size_t n = 0;
  while (reader.Next(record)) ++n;
  return n;
}

TEST(RunCodecTest, TruncationFuzzNeverCrashes) {
  TempBase base("codec-trunc");
  const std::string full_path = base.str() + "/full.spill";
  const std::vector<std::string> records = CodecSampleRecords();
  {
    extmem::CompressedRunWriter writer(full_path);
    for (const std::string& r : records) writer.Append(r);
    writer.Close();
  }
  const std::string bytes = ReadFileBytes(full_path);
  ASSERT_GT(bytes.size(), extmem::kRunMagic.size());

  const std::string cut_path = base.str() + "/cut.spill";
  // EVERY prefix of the file: the reader must return at most the records
  // the prefix fully contains, or throw SpillError — never crash.
  for (size_t cut = 0; cut < bytes.size(); ++cut) {
    WriteFileBytes(cut_path, std::string_view(bytes).substr(0, cut));
    try {
      const size_t n = DrainRun(cut_path);
      EXPECT_LE(n, records.size()) << "cut at " << cut;
    } catch (const extmem::SpillError&) {
      // Expected for most cut points.
    }
  }
}

TEST(RunCodecTest, BitFlipFuzzNeverCrashes) {
  TempBase base("codec-flip");
  const std::string full_path = base.str() + "/full.spill";
  const std::vector<std::string> records = CodecSampleRecords();
  {
    extmem::CompressedRunWriter writer(full_path);
    for (const std::string& r : records) writer.Append(r);
    writer.Close();
  }
  const std::string bytes = ReadFileBytes(full_path);
  const std::string flip_path = base.str() + "/flip.spill";

  // Deterministic bit positions (golden-ratio stride covers the file
  // uniformly). A flip may decode to different-but-valid records — only
  // boundedness matters: each parsed record consumes at least one header
  // byte, so the count can never exceed the file size.
  for (size_t i = 0; i < 400; ++i) {
    const size_t bit = (i * 2654435761u) % (bytes.size() * 8);
    std::string flipped = bytes;
    flipped[bit / 8] ^= static_cast<char>(1u << (bit % 8));
    WriteFileBytes(flip_path, flipped);
    try {
      const size_t n = DrainRun(flip_path);
      EXPECT_LE(n, bytes.size()) << "flip at bit " << bit;
    } catch (const extmem::SpillError&) {
      // Expected for flips that land in a length or the magic.
    }
  }
}

// ---------------------------------------------------------------------------
// Cascaded run merges
// ---------------------------------------------------------------------------

TEST(CascadeMergeTest, ParityAtSmallFanIns) {
  const auto arrival = [](size_t i) {
    return static_cast<uint32_t>((i * 2654435761u) % 97);
  };
  constexpr size_t kRecords = 3000;

  extmem::SpillShuffle reference(/*run_bytes=*/0, nullptr);
  for (size_t i = 0; i < kRecords; ++i) {
    reference.Add(U32Record(arrival(i), static_cast<uint32_t>(i)));
  }
  auto ref_source = reference.Finish();
  std::vector<std::string> expected;
  {
    std::string_view record;
    while (ref_source->Next(record)) expected.emplace_back(record);
  }
  ASSERT_EQ(expected.size(), kRecords);

  for (const uint32_t fanin : {2u, 3u, 7u}) {
    TempBase base("cascade");
    extmem::ScopedSpillDir dir(base.str());
    extmem::ResetSpillTelemetry();
    extmem::SpillShuffle spilled(/*run_bytes=*/256, &dir, fanin);
    for (size_t i = 0; i < kRecords; ++i) {
      spilled.Add(U32Record(arrival(i), static_cast<uint32_t>(i)));
    }
    ASSERT_GT(spilled.runs_spilled(), fanin)
        << "fan-in " << fanin << ": budget did not force a cascade";
    auto source = spilled.Finish();
    std::string_view record;
    size_t count = 0;
    while (source->Next(record)) {
      ASSERT_LT(count, expected.size());
      ASSERT_EQ(record, expected[count])
          << "fan-in " << fanin << " diverges at record " << count;
      ++count;
    }
    EXPECT_EQ(count, kRecords) << "fan-in " << fanin;
    EXPECT_GT(extmem::GetSpillTelemetry().cascade_merges, 0u)
        << "fan-in " << fanin << " never cascaded";
  }
}

TEST(CascadeMergeTest, FailedMergeRemovesPartialOutput) {
  TempBase base("cascade-fail");
  size_t files_before_finish = 0;
  {
    extmem::ScopedSpillDir dir(base.str());
    extmem::SpillShuffle sink(/*run_bytes=*/256, &dir, /*max_merge_fanin=*/2);
    for (size_t i = 0; i < 3000; ++i) {
      sink.Add(U32Record(static_cast<uint32_t>(i % 97),
                         static_cast<uint32_t>(i)));
    }
    ASSERT_GE(sink.runs_spilled(), 3u);

    // Corrupt the TAIL of the first run: the magic and the leading records
    // stay valid, so the merge primes cleanly, creates its output file, and
    // only then hits the truncation — exercising the partial-output removal
    // path (not the pre-writer priming throw).
    const std::string run0 = (dir.path() / "run-0.spill").string();
    ASSERT_TRUE(fs::exists(run0));
    fs::resize_file(run0, fs::file_size(run0) - 3);

    for ([[maybe_unused]] const auto& e : fs::directory_iterator(dir.path())) {
      ++files_before_finish;
    }
    EXPECT_THROW(sink.Finish(), extmem::SpillError);

    // No partially written merge output may survive the throw; the inputs
    // of the failed merge are still there (the dir removes them wholesale).
    size_t files_after = 0;
    for ([[maybe_unused]] const auto& e : fs::directory_iterator(dir.path())) {
      ++files_after;
    }
    EXPECT_EQ(files_after, files_before_finish)
        << "failed cascade merge left a partial output run behind";
  }
  EXPECT_EQ(base.NumEntries(), 0u) << "spill dir leaked after failed merge";
}

// ---------------------------------------------------------------------------
// Streaming postings
// ---------------------------------------------------------------------------

TEST(StreamingPostingsTest, MatchesMaterializedPostings) {
  constexpr uint32_t kEntities = 1500;
  const auto emit = [](EntityId e, std::vector<uint32_t>& keys) {
    keys.push_back(e % 97);
    keys.push_back((e * 7) % 61 + 1000);
    if (e % 5 == 0) keys.push_back(e % 97);  // duplicate emission preserved
  };
  const auto hash = [](uint32_t key) { return static_cast<uint64_t>(key); };

  std::vector<KeyedPosting<uint32_t>> reference;
  BuildShardedPostings<uint32_t>(
      kEntities, nullptr, emit, hash, /*memory=*/nullptr,
      [&](uint32_t key, std::vector<EntityId>& entities) {
        reference.push_back({key, entities});
      });
  ASSERT_GT(reference.size(), 0u);

  TempBase base("stream-postings");
  extmem::MemoryBudgetOptions memory;
  memory.shuffle_budget_bytes = 16 << 10;
  memory.spill_dir = base.str();

  for (const uint32_t threads : {1u, 4u}) {
    std::unique_ptr<ThreadPool> pool;
    if (threads > 1) pool = std::make_unique<ThreadPool>(threads);
    size_t i = 0;
    BuildShardedPostings<uint32_t>(
        kEntities, pool.get(), emit, hash, &memory,
        [&](uint32_t key, std::vector<EntityId>& entities) {
          ASSERT_LT(i, reference.size());
          EXPECT_EQ(key, reference[i].key) << "posting " << i;
          EXPECT_EQ(entities, reference[i].entities)
              << "posting " << i << " at " << threads << " threads";
          ++i;
        });
    EXPECT_EQ(i, reference.size()) << threads << " threads";
  }
  EXPECT_EQ(base.NumEntries(), 0u) << "streaming postings leaked spill files";
}

// ---------------------------------------------------------------------------
// Budgeted pipeline parity matrix
// ---------------------------------------------------------------------------

/// A parsed "MNER-SESS-v1" checkpoint with the wall-time fields (phase
/// millis, resolve millis) dropped — those are legitimately nondeterministic;
/// everything else, including the raw resolver-state tail bytes, must be
/// byte-identical between a budgeted and an unbudgeted run.
struct ParsedCheckpoint {
  std::string magic;
  uint32_t num_entities = 0;
  uint32_t num_kbs = 0;
  uint64_t total_triples = 0;
  uint64_t options_digest = 0;
  uint64_t blocks_built = 0;
  uint64_t blocks_after_cleaning = 0;
  uint64_t comparisons_before_meta = 0;
  uint64_t comparisons_after_meta = 0;
  uint64_t graph_edges = 0;
  uint64_t retained_edges = 0;
  double mean_weight = 0.0;
  uint64_t nominations = 0;
  uint64_t distinct_pairs = 0;
  std::vector<std::pair<std::string, uint64_t>> phases;  // (name, cardinality)
  std::string resolver_tail;
};

ParsedCheckpoint ParseCheckpoint(const std::string& bytes) {
  ParsedCheckpoint p;
  std::istringstream in(bytes);
  EXPECT_TRUE(serde::ReadString(in, p.magic));
  EXPECT_TRUE(serde::ReadU32(in, p.num_entities));
  EXPECT_TRUE(serde::ReadU32(in, p.num_kbs));
  EXPECT_TRUE(serde::ReadU64(in, p.total_triples));
  EXPECT_TRUE(serde::ReadU64(in, p.options_digest));
  EXPECT_TRUE(serde::ReadU64(in, p.blocks_built));
  EXPECT_TRUE(serde::ReadU64(in, p.blocks_after_cleaning));
  EXPECT_TRUE(serde::ReadU64(in, p.comparisons_before_meta));
  EXPECT_TRUE(serde::ReadU64(in, p.comparisons_after_meta));
  EXPECT_TRUE(serde::ReadU64(in, p.graph_edges));
  EXPECT_TRUE(serde::ReadU64(in, p.retained_edges));
  EXPECT_TRUE(serde::ReadDouble(in, p.mean_weight));
  EXPECT_TRUE(serde::ReadU64(in, p.nominations));
  EXPECT_TRUE(serde::ReadU64(in, p.distinct_pairs));
  uint64_t n_phases = 0;
  EXPECT_TRUE(serde::ReadU64(in, n_phases));
  for (uint64_t i = 0; i < n_phases; ++i) {
    std::string name;
    double millis = 0.0;
    uint64_t cardinality = 0;
    EXPECT_TRUE(serde::ReadString(in, name));
    EXPECT_TRUE(serde::ReadDouble(in, millis));  // wall time: dropped
    EXPECT_TRUE(serde::ReadU64(in, cardinality));
    p.phases.emplace_back(std::move(name), cardinality);
  }
  double resolve_millis = 0.0;
  EXPECT_TRUE(serde::ReadDouble(in, resolve_millis));  // wall time: dropped
  std::ostringstream tail;
  tail << in.rdbuf();
  p.resolver_tail = tail.str();
  return p;
}

void ExpectCheckpointsMatch(const ParsedCheckpoint& ref,
                            const ParsedCheckpoint& got,
                            const std::string& label) {
  EXPECT_EQ(ref.magic, got.magic) << label;
  EXPECT_EQ(ref.num_entities, got.num_entities) << label;
  EXPECT_EQ(ref.num_kbs, got.num_kbs) << label;
  EXPECT_EQ(ref.total_triples, got.total_triples) << label;
  EXPECT_EQ(ref.options_digest, got.options_digest)
      << label << ": the memory budget must not enter the options digest";
  EXPECT_EQ(ref.blocks_built, got.blocks_built) << label;
  EXPECT_EQ(ref.blocks_after_cleaning, got.blocks_after_cleaning) << label;
  EXPECT_EQ(ref.comparisons_before_meta, got.comparisons_before_meta)
      << label;
  EXPECT_EQ(ref.comparisons_after_meta, got.comparisons_after_meta) << label;
  EXPECT_EQ(ref.graph_edges, got.graph_edges) << label;
  EXPECT_EQ(ref.retained_edges, got.retained_edges) << label;
  EXPECT_EQ(std::memcmp(&ref.mean_weight, &got.mean_weight, sizeof(double)),
            0)
      << label << ": mean weight bits differ";
  EXPECT_EQ(ref.nominations, got.nominations) << label;
  EXPECT_EQ(ref.distinct_pairs, got.distinct_pairs) << label;
  EXPECT_EQ(ref.phases, got.phases) << label;
  EXPECT_EQ(ref.resolver_tail, got.resolver_tail)
      << label << ": resolver state bytes differ";
}

struct PipelineRun {
  ResolutionReport report;
  ParsedCheckpoint checkpoint;
};

class OutOfCorePipelineTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    datagen::LodCloudConfig cfg;
    cfg.seed = 20260807;
    cfg.num_real_entities = 400;
    cfg.num_kbs = 4;
    cfg.center_kbs = 2;
    auto cloud = datagen::GenerateLodCloud(cfg);
    ASSERT_TRUE(cloud.ok());
    auto collection = cloud->BuildCollection();
    ASSERT_TRUE(collection.ok());
    collection_ = new EntityCollection(std::move(collection).value());
  }
  static void TearDownTestSuite() {
    delete collection_;
    collection_ = nullptr;
  }

  /// One budgeted or unbudgeted session: checkpoint mid-run (after 400
  /// comparisons), then run to exhaustion and report.
  static PipelineRun RunPipeline(BlockerChoice blocker, PruningScheme pruning,
                                 uint32_t threads,
                                 const extmem::MemoryBudgetOptions* memory) {
    WorkflowOptions options;
    options.blocker = blocker;
    // Wider windows / more keys than the defaults: on this small corpus the
    // default sorted neighborhood is too sparse to surface matches that
    // survive edge pruning, and a zero-match run is a vacuous parity check.
    options.sn_options.window_size = 8;
    options.sn_options.keys_per_entity = 5;
    options.meta.weighting = WeightingScheme::kEcbs;
    options.meta.pruning = pruning;
    options.num_threads = threads;
    options.progressive.matcher.threshold = 0.3;
    if (memory != nullptr) options.memory = *memory;
    auto session = ResolutionSession::Open(*collection_, options);
    EXPECT_TRUE(session.ok()) << session.status().message();
    session->Step(400);
    std::ostringstream checkpoint;
    EXPECT_TRUE(session->Checkpoint(checkpoint).ok());
    session->Step(0);
    PipelineRun run;
    run.report = session->Report();
    run.checkpoint = ParseCheckpoint(checkpoint.str());
    return run;
  }

  static void ExpectRunsMatch(const PipelineRun& ref, const PipelineRun& got,
                              const std::string& label) {
    ExpectCheckpointsMatch(ref.checkpoint, got.checkpoint, label);
    EXPECT_EQ(ref.report.blocks_built, got.report.blocks_built) << label;
    EXPECT_EQ(ref.report.blocks_after_cleaning,
              got.report.blocks_after_cleaning)
        << label;
    EXPECT_EQ(ref.report.comparisons_before_meta,
              got.report.comparisons_before_meta)
        << label;
    EXPECT_EQ(ref.report.comparisons_after_meta,
              got.report.comparisons_after_meta)
        << label;
    EXPECT_EQ(ref.report.meta_stats.retained_edges,
              got.report.meta_stats.retained_edges)
        << label;
    EXPECT_EQ(ref.report.progressive.run.comparisons_executed,
              got.report.progressive.run.comparisons_executed)
        << label;
    const auto& ref_matches = ref.report.progressive.run.matches;
    const auto& got_matches = got.report.progressive.run.matches;
    ASSERT_EQ(ref_matches.size(), got_matches.size()) << label;
    for (size_t i = 0; i < ref_matches.size(); ++i) {
      EXPECT_EQ(ref_matches[i].a, got_matches[i].a) << label << " match " << i;
      EXPECT_EQ(ref_matches[i].b, got_matches[i].b) << label << " match " << i;
      EXPECT_EQ(ref_matches[i].comparisons_done,
                got_matches[i].comparisons_done)
          << label << " match " << i;
      EXPECT_EQ(std::memcmp(&ref_matches[i].similarity,
                            &got_matches[i].similarity, sizeof(double)),
                0)
          << label << " match " << i << ": similarity bits differ";
    }
  }

  static EntityCollection* collection_;
};

EntityCollection* OutOfCorePipelineTest::collection_ = nullptr;

TEST_F(OutOfCorePipelineTest, EveryBlockerAndEdgePruningIsByteIdentical) {
  TempBase base("pipeline");
  extmem::MemoryBudgetOptions memory;
  memory.shuffle_budget_bytes = 16 << 10;
  memory.spill_dir = base.str();

  const std::vector<std::pair<BlockerChoice, const char*>> blockers = {
      {BlockerChoice::kToken, "token"},
      {BlockerChoice::kPis, "pis"},
      {BlockerChoice::kQGram, "qgram"},
      {BlockerChoice::kAttributeClustering, "attr-cluster"},
      {BlockerChoice::kSortedNeighborhood, "sorted-nbhd"},
  };
  for (const auto& [blocker, blocker_name] : blockers) {
    for (const PruningScheme pruning :
         {PruningScheme::kCep, PruningScheme::kWep}) {
      const std::string tag = std::string(blocker_name) + "/" +
                              std::string(PruningSchemeName(pruning));
      const PipelineRun reference =
          RunPipeline(blocker, pruning, /*threads=*/1, nullptr);
      ASSERT_GT(reference.report.progressive.run.matches.size(), 0u) << tag;
      for (const uint32_t threads : {1u, 4u}) {
        extmem::ResetSpillTelemetry();
        const PipelineRun budgeted =
            RunPipeline(blocker, pruning, threads, &memory);
        EXPECT_GT(extmem::GetSpillTelemetry().runs_spilled, 0u)
            << tag << ": the budget never forced a spill";
        ExpectRunsMatch(reference, budgeted,
                        tag + " @" + std::to_string(threads) + "t");
      }
      EXPECT_EQ(base.NumEntries(), 0u) << tag << " leaked spill files";
    }
  }
}

}  // namespace
}  // namespace minoan
