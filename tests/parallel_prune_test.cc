// Parity suite for the sharded pruning core: the parallel path must return
// BYTE-identical retained-edge lists to the single-threaded path for every
// pruning scheme × reciprocal setting, on a generated LOD corpus large
// enough to span many work chunks and vote shards. Plus regression tests
// for the ThreadPool exception contract and the PairWeight point probe.

#include <cstring>
#include <stdexcept>
#include <vector>

#include "blocking/blocking_method.h"
#include "datagen/lod_generator.h"
#include "gtest/gtest.h"
#include "metablocking/blocking_graph.h"
#include "metablocking/meta_blocking.h"
#include "metablocking/sharded_prune.h"
#include "util/hash.h"
#include "util/thread_pool.h"

namespace minoan {
namespace {

/// True when the two retained lists are byte-identical (same pairs, same
/// order, same weight bits). WeightedComparison is a packed POD, so memcmp
/// is exact.
::testing::AssertionResult ByteIdentical(
    const std::vector<WeightedComparison>& a,
    const std::vector<WeightedComparison>& b) {
  static_assert(sizeof(WeightedComparison) == 16,
                "memcmp comparison assumes a padding-free layout");
  if (a.size() != b.size()) {
    return ::testing::AssertionFailure()
           << "size mismatch: " << a.size() << " vs " << b.size();
  }
  for (size_t i = 0; i < a.size(); ++i) {
    if (std::memcmp(&a[i], &b[i], sizeof(WeightedComparison)) != 0) {
      return ::testing::AssertionFailure()
             << "edge " << i << " differs: (" << a[i].a << "," << a[i].b
             << "," << a[i].weight << ") vs (" << b[i].a << "," << b[i].b
             << "," << b[i].weight << ")";
    }
  }
  return ::testing::AssertionSuccess();
}

// ---------------------------------------------------------------------------
// Sequential vs parallel parity over the full scheme grid
// ---------------------------------------------------------------------------

struct ParityCase {
  WeightingScheme weighting;
  PruningScheme pruning;
  bool reciprocal;
};

std::string ParityCaseName(const ::testing::TestParamInfo<ParityCase>& info) {
  return std::string(WeightingSchemeName(info.param.weighting)) + "_" +
         std::string(PruningSchemeName(info.param.pruning)) +
         (info.param.reciprocal ? "_recip" : "");
}

class ShardedParity : public ::testing::TestWithParam<ParityCase> {
 protected:
  static void SetUpTestSuite() {
    datagen::LodCloudConfig cfg;
    cfg.seed = 20260727;
    cfg.num_real_entities = 700;
    cfg.num_kbs = 5;
    cfg.center_kbs = 2;
    auto cloud = datagen::GenerateLodCloud(cfg);
    ASSERT_TRUE(cloud.ok());
    auto collection = cloud->BuildCollection();
    ASSERT_TRUE(collection.ok());
    collection_ = new EntityCollection(std::move(collection).value());
    blocks_ = new BlockCollection(TokenBlocking().Build(*collection_));
    blocks_->BuildEntityIndex(collection_->num_entities());
    // The parity claim is only meaningful when the corpus spans several
    // fixed-size chunks (FP reduction order) and both vote shards and
    // chunk boundaries get exercised.
    ASSERT_GT(collection_->num_entities(), 3 * kPruneChunkEntities);
  }
  static void TearDownTestSuite() {
    delete blocks_;
    delete collection_;
    blocks_ = nullptr;
    collection_ = nullptr;
  }

  static EntityCollection* collection_;
  static BlockCollection* blocks_;
};

EntityCollection* ShardedParity::collection_ = nullptr;
BlockCollection* ShardedParity::blocks_ = nullptr;

TEST_P(ShardedParity, ParallelPruningIsByteIdentical) {
  MetaBlockingOptions opts;
  opts.weighting = GetParam().weighting;
  opts.pruning = GetParam().pruning;
  opts.reciprocal = GetParam().reciprocal;

  opts.num_threads = 1;
  MetaBlockingStats seq_stats;
  const auto sequential =
      MetaBlocking(opts).Prune(*blocks_, *collection_, &seq_stats);
  EXPECT_GT(sequential.size(), 0u);

  for (uint32_t threads : {2u, 4u, 7u}) {
    opts.num_threads = threads;
    MetaBlockingStats par_stats;
    const auto parallel =
        MetaBlocking(opts).Prune(*blocks_, *collection_, &par_stats);
    EXPECT_TRUE(ByteIdentical(sequential, parallel)) << threads << " threads";
    // Counters fold in fixed chunk order: bit-equal, not just near.
    EXPECT_EQ(seq_stats.graph_edges, par_stats.graph_edges);
    EXPECT_EQ(seq_stats.mean_weight, par_stats.mean_weight);
    EXPECT_EQ(seq_stats.nominations, par_stats.nominations);
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllPruningSchemes, ShardedParity,
    ::testing::Values(
        // All four pruning schemes × reciprocal, with weighting schemes
        // chosen to stress floating point: ECBS (log products) everywhere,
        // plus EJS (degree pass) and ARCS (reciprocal sums) spot checks,
        // and the integer-count CBS and ratio JS schemes.
        ParityCase{WeightingScheme::kEcbs, PruningScheme::kWep, false},
        ParityCase{WeightingScheme::kEcbs, PruningScheme::kWep, true},
        ParityCase{WeightingScheme::kEcbs, PruningScheme::kCep, false},
        ParityCase{WeightingScheme::kEcbs, PruningScheme::kCep, true},
        ParityCase{WeightingScheme::kEcbs, PruningScheme::kWnp, false},
        ParityCase{WeightingScheme::kEcbs, PruningScheme::kWnp, true},
        ParityCase{WeightingScheme::kEcbs, PruningScheme::kCnp, false},
        ParityCase{WeightingScheme::kEcbs, PruningScheme::kCnp, true},
        ParityCase{WeightingScheme::kEjs, PruningScheme::kWnp, false},
        ParityCase{WeightingScheme::kEjs, PruningScheme::kCnp, true},
        ParityCase{WeightingScheme::kArcs, PruningScheme::kWep, false},
        ParityCase{WeightingScheme::kArcs, PruningScheme::kCnp, false},
        ParityCase{WeightingScheme::kCbs, PruningScheme::kWep, false},
        ParityCase{WeightingScheme::kCbs, PruningScheme::kCep, false},
        ParityCase{WeightingScheme::kCbs, PruningScheme::kWnp, false},
        ParityCase{WeightingScheme::kCbs, PruningScheme::kWnp, true},
        ParityCase{WeightingScheme::kCbs, PruningScheme::kCnp, false},
        ParityCase{WeightingScheme::kJs, PruningScheme::kWnp, false},
        ParityCase{WeightingScheme::kJs, PruningScheme::kCnp, true}),
    ParityCaseName);

TEST(ShardedPruneTest, AutoThreadCountMatchesSequential) {
  datagen::LodCloudConfig cfg;
  cfg.seed = 7;
  cfg.num_real_entities = 120;
  cfg.num_kbs = 3;
  auto cloud = datagen::GenerateLodCloud(cfg);
  ASSERT_TRUE(cloud.ok());
  auto collection = cloud->BuildCollection();
  ASSERT_TRUE(collection.ok());
  BlockCollection blocks = TokenBlocking().Build(*collection);

  MetaBlockingOptions opts;
  opts.num_threads = 1;
  const auto sequential = MetaBlocking(opts).Prune(blocks, *collection);
  opts.num_threads = 0;  // hardware concurrency
  const auto parallel = MetaBlocking(opts).Prune(blocks, *collection);
  EXPECT_TRUE(ByteIdentical(sequential, parallel));
}

TEST(ShardedPruneTest, EmptyCollectionYieldsNoEdges) {
  BlockCollection blocks;
  EntityCollection collection;
  ASSERT_TRUE(collection.Finalize().ok());
  MetaBlockingOptions opts;
  opts.num_threads = 4;
  MetaBlockingStats stats;
  const auto retained = MetaBlocking(opts).Prune(blocks, collection, &stats);
  EXPECT_TRUE(retained.empty());
  EXPECT_EQ(stats.graph_edges, 0u);
}

// ---------------------------------------------------------------------------
// PairWeight point probe vs full neighborhood enumeration
// ---------------------------------------------------------------------------

TEST(PairWeightTest, ProbeMatchesEnumerationForEveryScheme) {
  datagen::LodCloudConfig cfg;
  cfg.seed = 99;
  cfg.num_real_entities = 80;
  cfg.num_kbs = 3;
  auto cloud = datagen::GenerateLodCloud(cfg);
  ASSERT_TRUE(cloud.ok());
  auto collection = cloud->BuildCollection();
  ASSERT_TRUE(collection.ok());
  BlockCollection blocks = TokenBlocking().Build(*collection);
  blocks.BuildEntityIndex(collection->num_entities());

  for (uint32_t ws = 0; ws < kNumWeightingSchemes; ++ws) {
    const auto scheme = static_cast<WeightingScheme>(ws);
    const BlockingGraphView view(blocks, *collection, scheme,
                                 ResolutionMode::kCleanClean);
    NeighborScratch scratch(collection->num_entities());
    uint64_t probed = 0;
    const EntityId sample =
        std::min<EntityId>(64, collection->num_entities());
    for (EntityId e = 0; e < sample; ++e) {
      view.ForNeighbors(scratch, e, /*only_greater=*/false,
                        [&](EntityId nb, uint32_t common, double arcs) {
                          EXPECT_EQ(view.PairWeight(e, nb),
                                    view.EdgeWeight(e, nb, common, arcs))
                              << WeightingSchemeName(scheme) << " edge ("
                              << e << "," << nb << ")";
                          ++probed;
                        });
    }
    EXPECT_GT(probed, 0u) << WeightingSchemeName(scheme);
  }
}

TEST(PairWeightTest, SelfAndSameKbEdgesAreZero) {
  datagen::LodCloudConfig cfg;
  cfg.seed = 11;
  cfg.num_real_entities = 40;
  cfg.num_kbs = 2;
  auto cloud = datagen::GenerateLodCloud(cfg);
  ASSERT_TRUE(cloud.ok());
  auto collection = cloud->BuildCollection();
  ASSERT_TRUE(collection.ok());
  BlockCollection blocks = TokenBlocking().Build(*collection);
  const BlockingGraphView view(blocks, *collection, WeightingScheme::kCbs,
                               ResolutionMode::kCleanClean);
  EXPECT_EQ(view.PairWeight(0, 0), 0.0);
  // Find two entities of the same KB: their clean-clean weight must be 0
  // no matter how many blocks they share.
  for (EntityId a = 0; a + 1 < collection->num_entities(); ++a) {
    if (!collection->CrossKb(a, a + 1)) {
      EXPECT_EQ(view.PairWeight(a, a + 1), 0.0);
      return;
    }
  }
}

// ---------------------------------------------------------------------------
// ThreadPool exception contract
// ---------------------------------------------------------------------------

TEST(ThreadPoolExceptionTest, WaitRethrowsTaskException) {
  ThreadPool pool(2);
  pool.Submit([] { throw std::runtime_error("task boom"); });
  EXPECT_THROW(pool.Wait(), std::runtime_error);
}

TEST(ThreadPoolExceptionTest, PoolSurvivesThrowingTask) {
  ThreadPool pool(2);
  pool.Submit([] { throw std::runtime_error("boom"); });
  EXPECT_THROW(pool.Wait(), std::runtime_error);
  // The worker must not have died and in_flight_ must be drained: new work
  // still executes and Wait() neither deadlocks nor rethrows stale state.
  std::atomic<int> count{0};
  for (int i = 0; i < 32; ++i) {
    pool.Submit([&count] { count.fetch_add(1); });
  }
  pool.Wait();
  EXPECT_EQ(count.load(), 32);
}

TEST(ThreadPoolExceptionTest, FirstOfManyExceptionsWins) {
  ThreadPool pool(4);
  for (int i = 0; i < 16; ++i) {
    pool.Submit([] { throw std::runtime_error("boom"); });
  }
  // Exactly one rethrow; afterwards the slate is clean.
  EXPECT_THROW(pool.Wait(), std::runtime_error);
  pool.Wait();
}

TEST(ThreadPoolExceptionTest, ParallelForRethrowsAndCompletes) {
  ThreadPool pool(4);
  std::vector<std::atomic<int>> hits(100);
  EXPECT_THROW(
      pool.ParallelFor(100,
                       [&](size_t i) {
                         if (i == 37) throw std::runtime_error("mid boom");
                         hits[i].fetch_add(1);
                       }),
      std::runtime_error);
  // All other iterations ran exactly once (chunks run to completion; only
  // the throwing chunk stops early).
  EXPECT_EQ(hits[0].load(), 1);
  EXPECT_EQ(hits[99].load(), 1);
  // The pool is reusable.
  std::atomic<int> count{0};
  pool.ParallelFor(10, [&](size_t) { count.fetch_add(1); });
  EXPECT_EQ(count.load(), 10);
}

TEST(ThreadPoolExceptionTest, DestructionWithPendingExceptionIsSafe) {
  // A captured exception nobody waited for must not terminate the process.
  ThreadPool pool(2);
  pool.Submit([] { throw std::runtime_error("unobserved"); });
  // Destructor drains and joins.
}

}  // namespace
}  // namespace minoan
