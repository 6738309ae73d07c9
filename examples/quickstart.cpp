// Quickstart: the MinoanER public API in ~60 lines.
//
//   1. Get Linked Data into an EntityCollection (here: the bundled
//      synthetic LOD-cloud generator; see lod_cloud_resolution.cpp for
//      loading real N-Triples files).
//   2. Open a ResolutionSession and spend the comparison budget in steps
//      (Step(0) once is the classic one-shot run).
//   3. Inspect the report: per-phase stats, matches, quality.
//
// Build & run:  ./build/examples/quickstart

#include <cstdio>
#include <iostream>

#include "core/session.h"
#include "datagen/lod_generator.h"
#include "eval/ground_truth.h"
#include "eval/metrics.h"

int main() {
  using namespace minoan;  // NOLINT

  // --- 1. Data: a small synthetic Web-of-Data slice -----------------------
  datagen::LodCloudConfig config;
  config.seed = 1;
  config.num_real_entities = 500;  // real-world entities in the universe
  config.num_kbs = 4;              // autonomous knowledge bases
  config.center_kbs = 2;           // encyclopedic (highly similar) KBs
  auto cloud = datagen::GenerateLodCloud(config);
  if (!cloud.ok()) {
    std::fprintf(stderr, "generate: %s\n", cloud.status().ToString().c_str());
    return 1;
  }
  auto collection = cloud->BuildCollection();
  if (!collection.ok()) {
    std::fprintf(stderr, "ingest: %s\n",
                 collection.status().ToString().c_str());
    return 1;
  }
  std::printf("ingested %u descriptions from %u KBs (%llu triples)\n",
              collection->num_entities(), collection->num_kbs(),
              static_cast<unsigned long long>(collection->total_triples()));

  // --- 2. Resolve, pay-as-you-go -------------------------------------------
  WorkflowOptions options;
  options.blocker = BlockerChoice::kTokenPlusPis;  // schema-agnostic blocking
  options.meta.weighting = WeightingScheme::kEcbs; // meta-blocking scheme
  options.meta.pruning = PruningScheme::kWnp;
  options.progressive.benefit = BenefitModel::kEntityCoverage;
  options.progressive.matcher.threshold = 0.35;    // match decision
  options.progressive.matcher.budget = 0;          // 0 = no overall cap

  // Open runs the static phases (blocking -> cleaning -> meta-blocking);
  // each Step then spends part of the comparison budget and streams back
  // what it found. Stop whenever the matches so far are good enough —
  // or call Step(0) once for the classic run-to-completion behavior.
  auto session = ResolutionSession::Open(*collection, options);
  if (!session.ok()) {
    std::fprintf(stderr, "open: %s\n", session.status().ToString().c_str());
    return 1;
  }
  while (!session->finished()) {
    const StepResult step = session->Step(2000);
    std::printf("  step: +%llu comparisons -> +%zu matches (%llu total)\n",
                static_cast<unsigned long long>(step.comparisons),
                step.matches.size(),
                static_cast<unsigned long long>(session->matches_found()));
  }
  const ResolutionReport report = session->Report();

  // --- 3. Results ----------------------------------------------------------
  std::cout << report.Summary();

  // The generator ships exhaustive ground truth, so we can score the run.
  auto truth = GroundTruth::FromCloud(*cloud, *collection);
  if (truth.ok()) {
    const MatchingMetrics m =
        EvaluateMatches(report.progressive.run.matches, *truth);
    std::printf("precision %.3f | recall %.3f | F1 %.3f\n", m.precision,
                m.recall, m.f1);
  }

  // Print a couple of resolved pairs with their IRIs.
  std::printf("\nsample matches:\n");
  size_t shown = 0;
  for (const MatchEvent& m : report.progressive.run.matches) {
    std::printf("  %.3f  %s  <->  %s\n", m.similarity,
                std::string(collection->EntityIri(m.a)).c_str(),
                std::string(collection->EntityIri(m.b)).c_str());
    if (++shown == 5) break;
  }
  return 0;
}
