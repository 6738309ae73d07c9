// Experiment M1 — substrate micro-benchmarks (google-benchmark).
//
// Kernel-level costs underpinning the experiment harnesses: tokenization,
// N-Triples parsing, similarity kernels, block building, blocking-graph
// weighting, and scheduler operations.

#include <benchmark/benchmark.h>

#include <sstream>

#include "bench_common.h"
#include "metablocking/blocking_graph.h"
#include "progressive/scheduler.h"
#include "rdf/ntriples.h"
#include "text/similarity.h"
#include "text/tokenizer.h"
#include "util/rng.h"

namespace minoan {
namespace {

using bench::CloudProfile;
using bench::MakeConfig;
using bench::World;

// Shared medium world, built once.
const World& SharedWorld() {
  static World* world =
      new World(World::Make(MakeConfig(CloudProfile::kMixed, 1)));
  return *world;
}

void BM_Tokenize(benchmark::State& state) {
  Tokenizer tokenizer;
  const std::string text =
      "The Minoan palace complex of Knossos, near Heraklion (Crete), "
      "flourished circa 1950-1450 BCE and is linked to king Minos.";
  std::vector<std::string> out;
  for (auto _ : state) {
    out.clear();
    tokenizer.Tokenize(text, out);
    benchmark::DoNotOptimize(out);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_Tokenize);

void BM_NTriplesParseLine(benchmark::State& state) {
  rdf::NTriplesParser parser;
  const std::string line =
      "<http://kb0.minoan.org/resource/knossos_palace> "
      "<http://schema.minoan.org/prop/name> \"knossos minoan palace\"@en .";
  rdf::Triple t;
  bool is_triple;
  for (auto _ : state) {
    benchmark::DoNotOptimize(parser.ParseLine(line, t, is_triple));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_NTriplesParseLine);

void BM_JaccardTokenSets(benchmark::State& state) {
  const size_t n = static_cast<size_t>(state.range(0));
  Rng rng(1);
  std::vector<uint32_t> a, b;
  for (size_t i = 0; i < n; ++i) {
    a.push_back(static_cast<uint32_t>(rng.Below(1u << 20)));
    b.push_back(static_cast<uint32_t>(rng.Below(1u << 20)));
  }
  SortUnique(a);
  SortUnique(b);
  for (auto _ : state) {
    benchmark::DoNotOptimize(JaccardSimilarity(a, b));
  }
  state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK(BM_JaccardTokenSets)->Arg(16)->Arg(64)->Arg(256);

void BM_ProfileSimilarity(benchmark::State& state) {
  const World& w = SharedWorld();
  Rng rng(7);
  const uint32_t n = w.collection->num_entities();
  for (auto _ : state) {
    const EntityId a = static_cast<EntityId>(rng.Below(n));
    const EntityId b = static_cast<EntityId>(rng.Below(n));
    benchmark::DoNotOptimize(w.evaluator->Similarity(a, b));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_ProfileSimilarity);

void BM_TokenBlockingBuild(benchmark::State& state) {
  const World& w = SharedWorld();
  for (auto _ : state) {
    BlockCollection blocks = TokenBlocking().Build(*w.collection);
    benchmark::DoNotOptimize(blocks.num_blocks());
  }
  state.SetItemsProcessed(state.iterations() * w.collection->num_entities());
}
BENCHMARK(BM_TokenBlockingBuild);

void BM_BlockingGraphNeighbors(benchmark::State& state) {
  const World& w = SharedWorld();
  static BlockCollection* blocks =
      new BlockCollection(TokenBlocking().Build(*w.collection));
  const BlockingGraphView view(*blocks, *w.collection,
                               WeightingScheme::kEcbs,
                               ResolutionMode::kCleanClean);
  NeighborScratch scratch(w.collection->num_entities());
  Rng rng(11);
  const uint32_t n = w.collection->num_entities();
  for (auto _ : state) {
    const EntityId e = static_cast<EntityId>(rng.Below(n));
    uint64_t edges = 0;
    view.ForNeighbors(scratch, e, false,
                      [&](EntityId, uint32_t, double) { ++edges; });
    benchmark::DoNotOptimize(edges);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_BlockingGraphNeighbors);

void BM_SchedulerPushPop(benchmark::State& state) {
  Rng rng(13);
  for (auto _ : state) {
    state.PauseTiming();
    ComparisonScheduler scheduler;
    state.ResumeTiming();
    for (int i = 0; i < 1024; ++i) {
      const uint32_t slot = scheduler.FindOrAdd(
          PairKey(static_cast<uint32_t>(rng.Below(1000)),
                  static_cast<uint32_t>(1000 + rng.Below(1000))));
      scheduler.Push(slot, rng.NextDouble());
    }
    uint32_t slot;
    double priority;
    while (scheduler.Pop(slot, priority)) {
      benchmark::DoNotOptimize(slot);
    }
  }
  state.SetItemsProcessed(state.iterations() * 1024);
}
BENCHMARK(BM_SchedulerPushPop);

// Begin's shape: index n candidates, prime them as one sorted run, drain.
// Arg(1) feeds them already in pop order (meta-blocking's order under the
// default benefit model), Arg(0) shuffled (the full-sort fallback).
void BM_SchedulerPrimeDrain(benchmark::State& state) {
  constexpr size_t kSlots = 1 << 16;
  Rng rng(17);
  std::vector<uint64_t> pairs(kSlots);
  std::vector<double> priorities(kSlots);
  for (size_t i = 0; i < kSlots; ++i) {
    pairs[i] = PairKey(static_cast<uint32_t>(i),
                       static_cast<uint32_t>(kSlots + rng.Below(kSlots)));
    priorities[i] = 1.0 - static_cast<double>(i) / kSlots;
  }
  if (state.range(0) == 0) {
    for (size_t i = kSlots - 1; i > 0; --i) {
      const size_t j = static_cast<size_t>(rng.Below(i + 1));
      std::swap(pairs[i], pairs[j]);
      std::swap(priorities[i], priorities[j]);
    }
  }
  for (auto _ : state) {
    ComparisonScheduler scheduler;
    scheduler.Reserve(kSlots);
    std::vector<ComparisonScheduler::PrimeEntry> entries(kSlots);
    for (size_t i = 0; i < kSlots; ++i) {
      entries[i] = {priorities[i], pairs[i], scheduler.FindOrAdd(pairs[i])};
    }
    scheduler.Prime(entries);
    uint32_t slot;
    double priority;
    while (scheduler.Pop(slot, priority)) {
      benchmark::DoNotOptimize(slot);
    }
  }
  state.SetItemsProcessed(state.iterations() * kSlots);
}
BENCHMARK(BM_SchedulerPrimeDrain)->Arg(1)->Arg(0);

void BM_GenerateCloud(benchmark::State& state) {
  datagen::LodCloudConfig cfg = MakeConfig(CloudProfile::kMixed, 1);
  cfg.num_real_entities = static_cast<uint32_t>(state.range(0));
  for (auto _ : state) {
    auto cloud = datagen::GenerateLodCloud(cfg);
    benchmark::DoNotOptimize(cloud->total_triples());
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_GenerateCloud)->Arg(500)->Arg(2000);

}  // namespace
}  // namespace minoan

BENCHMARK_MAIN();
