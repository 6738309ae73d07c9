// Determinism suite for the external-memory shuffle engine (src/extmem/):
// spill-file and merge primitives, forced-spill byte parity against the
// in-memory paths for blocking postings and meta-blocking vote shards at
// 1/2/4/7 threads, whole-session match-sequence invariance, and temp-file
// cleanup on success AND on exception. Budgets are chosen tiny enough that
// every shard spills several sorted runs — the telemetry asserts it.

#include <algorithm>
#include <cstring>
#include <filesystem>
#include <memory>
#include <string>
#include <vector>

#include "blocking/blocking_method.h"
#include "blocking/sharded_blocking.h"
#include "core/session.h"
#include "datagen/lod_generator.h"
#include "extmem/memory_budget.h"
#include "extmem/run_merger.h"
#include "extmem/shuffle.h"
#include "extmem/spill_file.h"
#include "gtest/gtest.h"
#include "metablocking/blocking_graph.h"
#include "metablocking/meta_blocking.h"
#include "metablocking/sharded_prune.h"
#include "util/thread_pool.h"

namespace minoan {
namespace {

namespace fs = std::filesystem;

/// A fresh directory under the system temp dir that the test removes; any
/// "minoan-spill-*" subdirectory still present at assertion time is a
/// leaked spill dir.
class TempBase {
 public:
  explicit TempBase(const char* tag) {
    path_ = fs::temp_directory_path() /
            (std::string("minoan-spill-test-") + tag);
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

std::string MakeRecord(uint32_t key, uint32_t payload) {
  std::string record;
  extmem::EncodeKey(key, record);
  extmem::AppendU32Le(record, payload);
  return record;
}

// ---------------------------------------------------------------------------
// Primitives
// ---------------------------------------------------------------------------

TEST(SpillFileTest, RoundTripsBinaryRecords) {
  TempBase base("file");
  const std::string path = base.str() + "/run-0.spill";
  const std::vector<std::string> records = {
      std::string("plain"), std::string("\x00\xff\x00", 3), std::string(),
      std::string(1000, 'x')};
  {
    extmem::SpillFileWriter writer(path);
    for (const std::string& r : records) writer.Append(r);
    EXPECT_GT(writer.Close(), 0u);
    EXPECT_EQ(writer.records(), records.size());
  }
  extmem::SpillFileReader reader(path);
  std::string_view record;
  for (const std::string& expected : records) {
    ASSERT_TRUE(reader.Next(record));
    EXPECT_EQ(record, expected);
  }
  EXPECT_FALSE(reader.Next(record));
}

TEST(SpillFileTest, MissingFileAndTruncationThrow) {
  TempBase base("file-err");
  EXPECT_THROW(extmem::SpillFileReader(base.str() + "/absent.spill"),
               extmem::SpillError);
  const std::string path = base.str() + "/trunc.spill";
  {
    extmem::SpillFileWriter writer(path);
    writer.Append("hello world");
    writer.Close();
  }
  fs::resize_file(path, 7);  // cut the record body short
  extmem::SpillFileReader reader(path);
  std::string_view record;
  EXPECT_THROW(reader.Next(record), extmem::SpillError);
}

TEST(SpillShuffleTest, InMemorySortIsStable) {
  extmem::SpillShuffle sink(/*run_bytes=*/0, nullptr);
  // Equal keys must keep arrival order (payload tracks it).
  sink.Add(MakeRecord(7, 0));
  sink.Add(MakeRecord(3, 1));
  sink.Add(MakeRecord(7, 2));
  sink.Add(MakeRecord(3, 3));
  sink.Add(MakeRecord(1, 4));
  auto source = sink.Finish();
  std::vector<std::pair<uint32_t, uint32_t>> seen;
  std::string_view record;
  while (source->Next(record)) {
    seen.emplace_back(
        extmem::DecodeKey<uint32_t>(extmem::RecordKey(record)),
        extmem::ReadU32Le(extmem::RecordPayload(record)));
  }
  const std::vector<std::pair<uint32_t, uint32_t>> expected = {
      {1, 4}, {3, 1}, {3, 3}, {7, 0}, {7, 2}};
  EXPECT_EQ(seen, expected);
}

TEST(SpillShuffleTest, SpilledMergeEqualsInMemorySort) {
  // Deterministic pseudo-random arrival with many duplicate keys, tiny run
  // budget → many runs, each splitting equal-key groups.
  const auto arrival = [](size_t i) {
    return static_cast<uint32_t>((i * 2654435761u) % 97);
  };
  constexpr size_t kRecords = 3000;

  extmem::SpillShuffle reference(/*run_bytes=*/0, nullptr);
  for (size_t i = 0; i < kRecords; ++i) {
    reference.Add(MakeRecord(arrival(i), static_cast<uint32_t>(i)));
  }
  auto ref_source = reference.Finish();

  TempBase base("merge");
  extmem::ScopedSpillDir dir(base.str());
  extmem::SpillShuffle spilled(/*run_bytes=*/256, &dir);
  for (size_t i = 0; i < kRecords; ++i) {
    spilled.Add(MakeRecord(arrival(i), static_cast<uint32_t>(i)));
  }
  EXPECT_GE(spilled.runs_spilled(), 3u);
  auto spill_source = spilled.Finish();

  std::string_view ref_record, spill_record;
  size_t count = 0;
  while (ref_source->Next(ref_record)) {
    ASSERT_TRUE(spill_source->Next(spill_record)) << "at record " << count;
    ASSERT_EQ(ref_record, spill_record) << "at record " << count;
    ++count;
  }
  EXPECT_FALSE(spill_source->Next(spill_record));
  EXPECT_EQ(count, kRecords);
}

TEST(SpillShuffleTest, RunSpilledShuffleCleansUpOnSuccessAndException) {
  TempBase base("cleanup");
  extmem::MemoryBudgetOptions memory;
  memory.spill_run_bytes = 256;
  memory.spill_dir = base.str();

  const auto scan = [](size_t, size_t begin, size_t end, const auto& route) {
    std::string record;
    for (size_t i = begin; i < end; ++i) {
      record.clear();
      extmem::EncodeKey(static_cast<uint32_t>(i % 31), record);
      extmem::AppendU32Le(record, static_cast<uint32_t>(i));
      route(static_cast<uint32_t>(i % 4), record);
    }
  };
  uint64_t consumed = 0;
  extmem::RunSpilledShuffle(
      nullptr, /*total=*/5000, /*chunk_size=*/256, /*num_shards=*/4, memory,
      scan, [&](uint32_t, extmem::ShuffleSource& source) {
        std::string_view record;
        while (source.Next(record)) ++consumed;
      });
  EXPECT_EQ(consumed, 5000u);
  EXPECT_EQ(base.NumEntries(), 0u) << "spill dir leaked after success";

  // An exception from the consume stage must unwind through the engine
  // with every temp file removed.
  EXPECT_THROW(
      extmem::RunSpilledShuffle(
          nullptr, 5000, 256, 4, memory, scan,
          [&](uint32_t, extmem::ShuffleSource&) {
            throw std::runtime_error("consumer failure");
          }),
      std::runtime_error);
  EXPECT_EQ(base.NumEntries(), 0u) << "spill dir leaked after exception";
}

TEST(SpillShuffleTest, UnwritableSpillDirThrowsSpillError) {
  extmem::MemoryBudgetOptions memory;
  memory.spill_run_bytes = 256;
  memory.spill_dir = "/proc/definitely-not-writable";
  EXPECT_THROW(
      extmem::RunSpilledShuffle(
          nullptr, 10, 4, 2, memory,
          [](size_t, size_t, size_t, const auto&) {},
          [](uint32_t, extmem::ShuffleSource&) {}),
      extmem::SpillError);
}

// ---------------------------------------------------------------------------
// Engine parity on a generated LOD corpus
// ---------------------------------------------------------------------------

/// True when two block collections are identical: same blocks, same entity
/// lists, same order.
::testing::AssertionResult SameBlocks(const BlockCollection& a,
                                      const BlockCollection& b) {
  if (a.num_blocks() != b.num_blocks()) {
    return ::testing::AssertionFailure()
           << "block count mismatch: " << a.num_blocks() << " vs "
           << b.num_blocks();
  }
  for (uint32_t i = 0; i < a.num_blocks(); ++i) {
    if (!std::ranges::equal(a.entities(i), b.entities(i))) {
      return ::testing::AssertionFailure()
             << "block " << i << " entity list mismatch";
    }
  }
  return ::testing::AssertionSuccess();
}

class SpillParityTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    datagen::LodCloudConfig cfg;
    cfg.seed = 20260715;
    cfg.num_real_entities = 700;
    cfg.num_kbs = 5;
    cfg.center_kbs = 2;
    auto cloud = datagen::GenerateLodCloud(cfg);
    ASSERT_TRUE(cloud.ok());
    auto collection = cloud->BuildCollection();
    ASSERT_TRUE(collection.ok());
    collection_ = new EntityCollection(std::move(collection).value());
    ASSERT_GT(collection_->num_entities(), 3 * kBlockingChunkEntities);
  }
  static void TearDownTestSuite() {
    delete collection_;
    collection_ = nullptr;
  }

  /// A budget small enough to force multi-run spilling on this corpus:
  /// 16 KiB across 64 shards = the 256-byte per-shard floor.
  static extmem::MemoryBudgetOptions TinyBudget(const TempBase& base) {
    extmem::MemoryBudgetOptions memory;
    memory.shuffle_budget_bytes = 16 << 10;
    memory.spill_dir = base.str();
    return memory;
  }

  static EntityCollection* collection_;
};

EntityCollection* SpillParityTest::collection_ = nullptr;

TEST_F(SpillParityTest, BlockingPostingsAreByteIdenticalUnderSpilling) {
  TempBase base("blocking");
  std::vector<std::unique_ptr<BlockingMethod>> methods;
  methods.push_back(std::make_unique<TokenBlocking>());
  methods.push_back(std::make_unique<PisBlocking>());
  methods.push_back(std::make_unique<AttributeClusteringBlocking>());
  {
    std::vector<std::unique_ptr<BlockingMethod>> parts;
    parts.push_back(std::make_unique<TokenBlocking>());
    parts.push_back(std::make_unique<PisBlocking>());
    methods.push_back(std::make_unique<CompositeBlocking>(std::move(parts)));
  }
  for (const auto& method : methods) {
    const BlockCollection in_memory = method->Build(*collection_);
    ASSERT_GT(in_memory.num_blocks(), 0u) << method->name();
    method->set_memory_budget(TinyBudget(base));
    const BlockCollection spilled_seq = method->Build(*collection_);
    EXPECT_TRUE(SameBlocks(in_memory, spilled_seq))
        << method->name() << " spilled, sequential";
    for (uint32_t threads : {2u, 4u, 7u}) {
      ThreadPool pool(threads);
      const BlockCollection spilled = method->Build(*collection_, &pool);
      EXPECT_TRUE(SameBlocks(in_memory, spilled))
          << method->name() << " spilled at " << threads << " threads";
    }
    method->set_memory_budget({});
    EXPECT_EQ(base.NumEntries(), 0u)
        << method->name() << " leaked spill files";
  }
}

TEST_F(SpillParityTest, EveryShardSpillsSeveralRunsUnderTheTinyBudget) {
  TempBase base("telemetry");
  TokenBlocking token;
  token.set_memory_budget(TinyBudget(base));
  extmem::ResetSpillTelemetry();
  const BlockCollection blocks = token.Build(*collection_);
  ASSERT_GT(blocks.num_blocks(), 0u);
  const extmem::SpillTelemetry t = extmem::GetSpillTelemetry();
  EXPECT_EQ(t.sinks_loaded, kBlockingMergeShards);
  EXPECT_EQ(t.sinks_spilled, kBlockingMergeShards);
  // The acceptance bar: >= 3 sorted runs spilled by EVERY shard.
  EXPECT_GE(t.min_runs_per_loaded_sink, 3u);
  EXPECT_GE(t.runs_spilled, 3u * kBlockingMergeShards);
  EXPECT_GT(t.bytes_spilled, 0u);
}

TEST_F(SpillParityTest, VoteShardPruningIsByteIdenticalUnderSpilling) {
  TempBase base("prune");
  BlockCollection blocks = TokenBlocking().Build(*collection_);
  blocks.BuildEntityIndex(collection_->num_entities());
  for (const PruningScheme pruning :
       {PruningScheme::kWnp, PruningScheme::kCnp, PruningScheme::kWep,
        PruningScheme::kCep}) {
    for (const bool reciprocal : {false, true}) {
      if (reciprocal && (pruning == PruningScheme::kWep ||
                         pruning == PruningScheme::kCep)) {
        continue;  // reciprocity is a node-centric notion
      }
      MetaBlockingOptions opts;
      opts.weighting = WeightingScheme::kEcbs;
      opts.pruning = pruning;
      opts.reciprocal = reciprocal;
      const BlockingGraphView view(blocks, *collection_, opts.weighting,
                                   opts.mode);
      MetaBlockingStats in_memory_stats;
      const auto in_memory =
          ShardedPrune(view, opts, nullptr, &in_memory_stats);
      ASSERT_GT(in_memory.size(), 0u);

      opts.memory = TinyBudget(base);
      extmem::ResetSpillTelemetry();
      MetaBlockingStats seq_stats;
      const auto spilled_seq = ShardedPrune(view, opts, nullptr, &seq_stats);
      EXPECT_GT(extmem::GetSpillTelemetry().runs_spilled, 0u);
      ASSERT_EQ(in_memory.size(), spilled_seq.size());
      EXPECT_EQ(std::memcmp(in_memory.data(), spilled_seq.data(),
                            in_memory.size() * sizeof(WeightedComparison)),
                0)
          << PruningSchemeName(pruning) << (reciprocal ? "+recip" : "");
      EXPECT_EQ(in_memory_stats.nominations, seq_stats.nominations);
      EXPECT_EQ(in_memory_stats.distinct_pairs, seq_stats.distinct_pairs);
      EXPECT_EQ(in_memory_stats.graph_edges, seq_stats.graph_edges);

      for (uint32_t threads : {2u, 7u}) {
        ThreadPool pool(threads);
        const auto spilled = ShardedPrune(view, opts, &pool);
        ASSERT_EQ(in_memory.size(), spilled.size());
        EXPECT_EQ(std::memcmp(in_memory.data(), spilled.data(),
                              in_memory.size() * sizeof(WeightedComparison)),
                  0)
            << PruningSchemeName(pruning) << (reciprocal ? "+recip" : "")
            << " at " << threads << " threads";
      }
      EXPECT_EQ(base.NumEntries(), 0u) << "pruning leaked spill files";
    }
  }
}

TEST_F(SpillParityTest, SessionMatchSequenceIsInvariantUnderSpilling) {
  TempBase base("session");
  const auto run = [&](bool spill, uint32_t threads) {
    WorkflowOptions options;
    options.num_threads = threads;
    options.progressive.matcher.threshold = 0.3;
    if (spill) options.memory = TinyBudget(base);
    auto session = ResolutionSession::Open(*collection_, options);
    EXPECT_TRUE(session.ok());
    session->Step(0);
    return session->Report();
  };
  const ResolutionReport reference = run(false, 1);
  ASSERT_GT(reference.progressive.run.matches.size(), 0u);
  for (uint32_t threads : {1u, 2u, 4u, 7u}) {
    const ResolutionReport report = run(true, threads);
    EXPECT_EQ(reference.blocks_built, report.blocks_built);
    EXPECT_EQ(reference.blocks_after_cleaning, report.blocks_after_cleaning);
    EXPECT_EQ(reference.comparisons_before_meta,
              report.comparisons_before_meta);
    EXPECT_EQ(reference.comparisons_after_meta,
              report.comparisons_after_meta);
    EXPECT_EQ(reference.meta_stats.retained_edges,
              report.meta_stats.retained_edges);
    EXPECT_EQ(std::memcmp(&reference.meta_stats.mean_weight,
                          &report.meta_stats.mean_weight, sizeof(double)),
              0);
    EXPECT_EQ(reference.progressive.run.comparisons_executed,
              report.progressive.run.comparisons_executed);
    const auto& ref_matches = reference.progressive.run.matches;
    const auto& got_matches = report.progressive.run.matches;
    ASSERT_EQ(ref_matches.size(), got_matches.size())
        << "spilled at " << threads << " threads";
    for (size_t i = 0; i < ref_matches.size(); ++i) {
      EXPECT_EQ(ref_matches[i].a, got_matches[i].a);
      EXPECT_EQ(ref_matches[i].b, got_matches[i].b);
      EXPECT_EQ(ref_matches[i].comparisons_done,
                got_matches[i].comparisons_done);
      EXPECT_EQ(std::memcmp(&ref_matches[i].similarity,
                            &got_matches[i].similarity, sizeof(double)),
                0)
          << "match " << i << " similarity bits differ at " << threads
          << " threads";
    }
  }
  EXPECT_EQ(base.NumEntries(), 0u) << "session leaked spill files";
}

TEST_F(SpillParityTest, SessionSurfacesUnwritableSpillDirAsStatus) {
  WorkflowOptions options;
  options.memory.shuffle_budget_bytes = 16 << 10;
  options.memory.spill_dir = "/proc/definitely-not-writable";
  auto session = ResolutionSession::Open(*collection_, options);
  ASSERT_FALSE(session.ok());
  EXPECT_EQ(session.status().code(), StatusCode::kIoError);
}

}  // namespace
}  // namespace minoan
