// Copyright 2026 The MinoanER Authors.
// Shared setup for the experiment harnesses: standard synthetic clouds and
// a World bundle (collection + truth + graph + evaluator + candidates).
//
// Three standard cloud profiles mirror the poster's data regimes:
//   kCenter    — encyclopedic KBs, highly similar duplicate descriptions
//   kPeriphery — domain KBs, somehow similar descriptions, opaque IRIs
//   kMixed     — both (the realistic Web-of-Data case)

#ifndef MINOAN_BENCH_BENCH_COMMON_H_
#define MINOAN_BENCH_BENCH_COMMON_H_

#include <cstdio>
#include <cstdlib>
#include <memory>
#include <string>

#include "blocking/blocking_method.h"
#include "datagen/lod_generator.h"
#include "eval/ground_truth.h"
#include "kb/neighbor_graph.h"
#include "matching/similarity_evaluator.h"
#include "metablocking/meta_blocking.h"
#include "progressive/resolver.h"

namespace minoan {
namespace bench {

enum class CloudProfile { kCenter, kPeriphery, kMixed };

inline const char* CloudProfileName(CloudProfile profile) {
  switch (profile) {
    case CloudProfile::kCenter:
      return "center";
    case CloudProfile::kPeriphery:
      return "periphery";
    case CloudProfile::kMixed:
      return "mixed";
  }
  return "?";
}

/// Standard generator configuration per profile. `scale` multiplies the
/// default universe size (benches default to scale 1; pass --scale N).
inline datagen::LodCloudConfig MakeConfig(CloudProfile profile,
                                          uint32_t scale = 1,
                                          uint64_t seed = 20160315) {
  datagen::LodCloudConfig cfg;
  cfg.seed = seed;
  cfg.num_real_entities = 1200 * scale;
  switch (profile) {
    case CloudProfile::kCenter:
      cfg.num_kbs = 4;
      cfg.center_kbs = 4;
      break;
    case CloudProfile::kPeriphery:
      cfg.num_kbs = 6;
      cfg.center_kbs = 0;
      cfg.periphery_coverage = 0.25;
      cfg.periphery_token_overlap = 0.25;
      break;
    case CloudProfile::kMixed:
      cfg.num_kbs = 6;
      cfg.center_kbs = 2;
      break;
  }
  return cfg;
}

/// Everything an experiment needs, with stable internal references.
struct World {
  std::unique_ptr<datagen::LodCloud> cloud;
  std::unique_ptr<EntityCollection> collection;
  std::unique_ptr<GroundTruth> truth;
  std::unique_ptr<NeighborGraph> graph;
  std::unique_ptr<SimilarityEvaluator> evaluator;

  static World Make(const datagen::LodCloudConfig& cfg) {
    World w;
    auto cloud = datagen::GenerateLodCloud(cfg);
    if (!cloud.ok()) Die("generator", cloud.status());
    w.cloud = std::make_unique<datagen::LodCloud>(std::move(cloud).value());
    auto collection = w.cloud->BuildCollection();
    if (!collection.ok()) Die("ingest", collection.status());
    w.collection = std::make_unique<EntityCollection>(
        std::move(collection).value());
    auto truth = GroundTruth::FromCloud(*w.cloud, *w.collection);
    if (!truth.ok()) Die("truth", truth.status());
    w.truth = std::make_unique<GroundTruth>(std::move(truth).value());
    w.graph = std::make_unique<NeighborGraph>(*w.collection);
    w.evaluator = std::make_unique<SimilarityEvaluator>(*w.collection);
    return w;
  }

  /// Token blocking + default meta-blocking -> candidate comparisons.
  std::vector<WeightedComparison> DefaultCandidates() const {
    BlockCollection blocks = TokenBlocking().Build(*collection);
    MetaBlockingOptions meta;
    return MetaBlocking(meta).Prune(blocks, *collection);
  }

 private:
  [[noreturn]] static void Die(const char* stage, const Status& status) {
    std::fprintf(stderr, "bench setup failed at %s: %s\n", stage,
                 status.ToString().c_str());
    std::exit(1);
  }
};

/// Begin + Step to exhaustion over `candidates`; returns the run's result.
inline ProgressiveResult RunToEnd(
    ProgressiveResolver& resolver,
    const std::vector<WeightedComparison>& candidates) {
  resolver.Begin(candidates);
  resolver.Step(0);
  return resolver.result();
}

/// Parses `--scale N` (or `--scale=N`) from argv; default 1, minimum 1.
inline uint32_t ParseScale(int argc, char** argv) {
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg.rfind("--scale", 0) != 0) continue;
    const size_t eq = arg.find('=');
    int value = 0;
    if (eq != std::string::npos) {
      value = std::atoi(arg.c_str() + eq + 1);
    } else if (i + 1 < argc) {
      value = std::atoi(argv[i + 1]);
    }
    if (value > 0) return static_cast<uint32_t>(value);
  }
  return 1;
}

}  // namespace bench
}  // namespace minoan

#endif  // MINOAN_BENCH_BENCH_COMMON_H_
