// Determinism suite for the shard engine (src/extmem/): typed shards and
// their spilled merges, forced-spill byte parity against unbudgeted runs
// for blocking postings and meta-blocking vote shards at 1/2/4/7 threads,
// whole-session match-sequence and observability invariance across
// budgets, and temp-file cleanup on success AND on exception. Budgets are
// chosen tiny enough that every shard spills several sorted runs — the
// telemetry asserts it.

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
#include "extmem/records.h"
#include "extmem/shuffle.h"
#include "extmem/spill_file.h"
#include "gtest/gtest.h"
#include "scratch_dir.h"
#include "metablocking/blocking_graph.h"
#include "metablocking/meta_blocking.h"
#include "metablocking/sharded_prune.h"
#include "obs/metrics.h"
#include "util/thread_pool.h"

namespace minoan {
namespace {

namespace fs = std::filesystem;

using U32Record = extmem::KeyedEntity<uint32_t>;

/// Deterministic pseudo-random arrival with many duplicate keys.
U32Record Arrival(size_t i) {
  return U32Record{static_cast<uint32_t>((i * 2654435761u) % 97),
                   static_cast<uint32_t>(i)};
}

/// Drains a finished shard.
std::vector<std::pair<uint32_t, uint32_t>> Drain(
    extmem::Shard<U32Record>& shard) {
  std::vector<std::pair<uint32_t, uint32_t>> out;
  while (const U32Record* record = shard.Next()) {
    out.emplace_back(record->key, record->entity);
  }
  return out;
}

// ---------------------------------------------------------------------------
// Shards and the sharded shuffle
// ---------------------------------------------------------------------------

TEST(SpillShuffleTest, NeverSpillingShardYieldsTheRecordOrder) {
  extmem::ScopedSpillDir dir("");
  extmem::Shard<U32Record> shard(/*run_bytes=*/0, &dir, nullptr);
  std::vector<U32Record> records = {{7, 2}, {3, 1}, {7, 0}, {3, 3}, {1, 4}};
  shard.Append(records);
  shard.Finish();
  const std::vector<std::pair<uint32_t, uint32_t>> expected = {
      {1, 4}, {3, 1}, {3, 3}, {7, 0}, {7, 2}};
  EXPECT_EQ(Drain(shard), expected);
  EXPECT_EQ(shard.records(), 5u);
  EXPECT_TRUE(dir.path().empty()) << "a shard without a budget made a dir";
}

TEST(SpillShuffleTest, SpilledMergeEqualsInMemorySort) {
  // A tiny run budget → many runs, each splitting equal-key groups.
  constexpr size_t kRecords = 3000;
  std::vector<U32Record> records;
  for (size_t i = 0; i < kRecords; ++i) records.push_back(Arrival(i));
  std::vector<std::pair<uint32_t, uint32_t>> expected;
  for (const U32Record& r : records) expected.emplace_back(r.key, r.entity);
  std::sort(expected.begin(), expected.end());

  testutil::ScratchDir base("spill-merge");
  extmem::ScopedSpillDir dir(base.str());
  extmem::ResetSpillTelemetry();
  extmem::Shard<U32Record> spilled(/*run_bytes=*/256, &dir, nullptr);
  for (size_t i = 0; i < kRecords; i += 100) {
    spilled.Append(std::span<U32Record>(records).subspan(i, 100));
  }
  EXPECT_GE(extmem::GetSpillTelemetry().runs_spilled, 3u);
  spilled.Finish();
  EXPECT_EQ(Drain(spilled), expected);
}

TEST(SpillShuffleTest, ShardedShuffleCleansUpOnSuccessAndException) {
  testutil::ScratchDir base("spill-cleanup");
  extmem::MemoryBudgetOptions memory;
  memory.shuffle_budget_bytes = 1024;  // 256 bytes for each of 4 shards
  memory.spill_dir = base.str();

  const auto scan = [](size_t, size_t begin, size_t end, const auto& route) {
    for (size_t i = begin; i < end; ++i) {
      route(static_cast<uint32_t>(i % 4),
            U32Record{static_cast<uint32_t>(i % 31), static_cast<uint32_t>(i)});
    }
  };
  uint64_t consumed = 0;
  extmem::ResetSpillTelemetry();
  {
    extmem::ShardedShuffle<U32Record> shuffle(nullptr, memory, 4);
    shuffle.Scatter(/*total=*/5000, /*chunk_size=*/256, scan);
    shuffle.Finish([&](uint32_t, extmem::Shard<U32Record>& shard) {
      consumed += Drain(shard).size();
    });
  }
  EXPECT_EQ(consumed, 5000u);
  EXPECT_GE(extmem::GetSpillTelemetry().min_runs_per_loaded_sink, 3u);
  EXPECT_EQ(base.NumEntries(), 0u) << "spill dir leaked after success";

  // An exception from the consumer must unwind through the engine with
  // every temp file removed.
  EXPECT_THROW(
      {
        extmem::ShardedShuffle<U32Record> shuffle(nullptr, memory, 4);
        shuffle.Scatter(5000, 256, scan);
        shuffle.Finish([](uint32_t, extmem::Shard<U32Record>&) {
          throw std::runtime_error("consumer failure");
        });
      },
      std::runtime_error);
  EXPECT_EQ(base.NumEntries(), 0u) << "spill dir leaked after exception";
}

TEST(SpillShuffleTest, UnwritableSpillDirThrowsOnlyWhenAShardSpills) {
  const auto scan = [](size_t, size_t begin, size_t end, const auto& route) {
    for (size_t i = begin; i < end; ++i) {
      route(0, U32Record{static_cast<uint32_t>(i), 0});
    }
  };
  extmem::MemoryBudgetOptions memory;
  memory.spill_dir = "/proc/definitely-not-writable";
  // A budget that is never reached opens no file and makes no directory.
  memory.shuffle_budget_bytes = 64ull << 30;
  {
    extmem::ShardedShuffle<U32Record> shuffle(nullptr, memory, 1);
    shuffle.Scatter(1000, 256, scan);
    uint64_t consumed = 0;
    shuffle.Finish([&](uint32_t, extmem::Shard<U32Record>& shard) {
      consumed += Drain(shard).size();
    });
    EXPECT_EQ(consumed, 1000u);
  }
  memory.shuffle_budget_bytes = 256;
  extmem::ShardedShuffle<U32Record> shuffle(nullptr, memory, 1);
  EXPECT_THROW(shuffle.Scatter(1000, 256, scan), extmem::SpillError);
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
  static extmem::MemoryBudgetOptions TinyBudget(
      const testutil::ScratchDir& base) {
    extmem::MemoryBudgetOptions memory;
    memory.shuffle_budget_bytes = 16 << 10;
    memory.spill_dir = base.str();
    return memory;
  }

  static EntityCollection* collection_;
};

EntityCollection* SpillParityTest::collection_ = nullptr;

TEST_F(SpillParityTest, BlockingPostingsAreByteIdenticalUnderSpilling) {
  testutil::ScratchDir base("spill-blocking");
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
  testutil::ScratchDir base("spill-telemetry");
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
  testutil::ScratchDir base("spill-prune");
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

/// The blocking.* and prune.* metrics of one run: every counter, plus the
/// count and sum of every histogram.
std::vector<std::pair<std::string, uint64_t>> ShardCoreMetrics() {
  const obs::StatsSnapshot snapshot =
      obs::MetricsRegistry::Default().Snapshot();
  const auto in_scope = [](const std::string& name) {
    return name.starts_with("blocking.") || name.starts_with("prune.");
  };
  std::vector<std::pair<std::string, uint64_t>> out;
  for (const auto& [name, value] : snapshot.counters) {
    if (in_scope(name)) out.emplace_back(name, value);
  }
  for (const auto& [name, histogram] : snapshot.histograms) {
    if (!in_scope(name)) continue;
    out.emplace_back(name + ".count", histogram.count);
    out.emplace_back(name + ".sum", histogram.sum);
  }
  return out;
}

TEST_F(SpillParityTest, SessionMatchSequenceIsInvariantUnderSpilling) {
  testutil::ScratchDir base("spill-session");
  struct Run {
    ResolutionReport report;
    std::vector<std::pair<std::string, uint64_t>> metrics;
    uint64_t spilled_runs = 0;
  };
  const auto run = [&](const extmem::MemoryBudgetOptions& memory,
                       uint32_t threads) {
    WorkflowOptions options;
    options.num_threads = threads;
    options.progressive.matcher.threshold = 0.3;
    options.memory = memory;
    obs::MetricsRegistry::Default().ResetAll();
    auto session = ResolutionSession::Open(*collection_, options);
    EXPECT_TRUE(session.ok());
    session->Step(0);
    return Run{session->Report(), ShardCoreMetrics(),
               extmem::GetSpillTelemetry().runs_spilled};
  };
  const Run reference = run({}, 1);
  ASSERT_GT(reference.report.progressive.run.matches.size(), 0u);
  for (const char* name : {"blocking.shard_records", "blocking.merge_fanin",
                           "prune.shard_votes"}) {
    const auto it = std::ranges::find(
        reference.metrics, std::string(name) + ".count",
        &std::pair<std::string, uint64_t>::first);
    ASSERT_NE(it, reference.metrics.end()) << name;
    EXPECT_GT(it->second, 0u) << name;
  }
  extmem::MemoryBudgetOptions never_spills;
  never_spills.shuffle_budget_bytes = 64ull << 30;
  never_spills.spill_dir = base.str();
  std::vector<std::pair<std::string, Run>> runs;
  runs.emplace_back("64 GiB budget", run(never_spills, 4));
  EXPECT_EQ(runs.back().second.spilled_runs, 0u);
  for (uint32_t threads : {1u, 2u, 4u, 7u}) {
    runs.emplace_back("spilled at " + std::to_string(threads) + " threads",
                      run(TinyBudget(base), threads));
    EXPECT_GT(runs.back().second.spilled_runs, 0u);
  }
  for (const auto& [label, got] : runs) {
    const ResolutionReport& report = got.report;
    EXPECT_EQ(reference.metrics, got.metrics) << label;
    EXPECT_EQ(reference.report.blocks_built, report.blocks_built);
    EXPECT_EQ(reference.report.blocks_after_cleaning,
              report.blocks_after_cleaning);
    EXPECT_EQ(reference.report.comparisons_before_meta,
              report.comparisons_before_meta);
    EXPECT_EQ(reference.report.comparisons_after_meta,
              report.comparisons_after_meta);
    EXPECT_EQ(reference.report.meta_stats.retained_edges,
              report.meta_stats.retained_edges);
    EXPECT_EQ(std::memcmp(&reference.report.meta_stats.mean_weight,
                          &report.meta_stats.mean_weight, sizeof(double)),
              0);
    EXPECT_EQ(reference.report.progressive.run.comparisons_executed,
              report.progressive.run.comparisons_executed);
    const auto& ref_matches = reference.report.progressive.run.matches;
    const auto& got_matches = report.progressive.run.matches;
    ASSERT_EQ(ref_matches.size(), got_matches.size()) << label;
    for (size_t i = 0; i < ref_matches.size(); ++i) {
      EXPECT_EQ(ref_matches[i].a, got_matches[i].a);
      EXPECT_EQ(ref_matches[i].b, got_matches[i].b);
      EXPECT_EQ(ref_matches[i].comparisons_done,
                got_matches[i].comparisons_done);
      EXPECT_EQ(std::memcmp(&ref_matches[i].similarity,
                            &got_matches[i].similarity, sizeof(double)),
                0)
          << "match " << i << " similarity bits differ, " << label;
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
