// Experiment F1 — Figure 1: the Minoan ER framework, end to end.
//
// Reproduces the poster's architecture figure as a runnable artifact: every
// phase of the pipeline (blocking, block cleaning, meta-blocking, the
// scheduling/matching/update loop) with its output cardinality and wall
// time, on the mixed-profile cloud.

#include <cstdio>
#include <iostream>

#include "bench_common.h"
#include "core/session.h"
#include "eval/metrics.h"
#include "eval/progressive_metrics.h"
#include "util/table.h"

using namespace minoan;        // NOLINT
using namespace minoan::bench; // NOLINT

int main(int argc, char** argv) {
  const uint32_t scale = ParseScale(argc, argv);
  std::printf("== F1: The Minoan ER framework (Figure 1), mixed cloud, "
              "scale %u ==\n\n", scale);
  World w = World::Make(MakeConfig(CloudProfile::kMixed, scale));
  std::printf("cloud: %u KBs, %u descriptions, %llu triples, %llu truth "
              "pairs\n\n",
              w.collection->num_kbs(), w.collection->num_entities(),
              static_cast<unsigned long long>(w.collection->total_triples()),
              static_cast<unsigned long long>(w.truth->num_pairs()));

  WorkflowOptions opts;
  opts.progressive.matcher.threshold = 0.35;
  auto session = ResolutionSession::Open(*w.collection, opts);
  if (!session.ok()) {
    std::fprintf(stderr, "pipeline failed: %s\n",
                 session.status().ToString().c_str());
    return 1;
  }
  session->Step(0);
  const ResolutionReport report = session->Report();

  Table phases({"phase", "wall_ms", "output"});
  for (const PhaseStats& p : report.phases) {
    phases.AddRow().Cell(p.name).Cell(p.millis, 2).Cell(p.output_cardinality);
  }
  phases.Print(std::cout);

  const MatchingMetrics m =
      EvaluateMatches(report.progressive.run.matches, *w.truth);
  const QualityAspects q = EvaluateQualityAspects(
      report.progressive.run, *w.truth, *w.collection, *w.graph);

  std::printf("\n");
  Table outcome({"metric", "value"});
  outcome.AddRow().Cell("aggregate comparisons (blocking)")
      .Cell(report.comparisons_before_meta);
  outcome.AddRow().Cell("retained comparisons (meta-blocking)")
      .Cell(report.comparisons_after_meta);
  outcome.AddRow().Cell("comparisons executed")
      .Cell(report.progressive.run.comparisons_executed);
  outcome.AddRow().Cell("matches found")
      .Cell(static_cast<uint64_t>(report.progressive.run.matches.size()));
  outcome.AddRow().Cell("pairs discovered by update phase")
      .Cell(report.progressive.discovered_pairs);
  outcome.AddRow().Cell("evidence-assisted matches")
      .Cell(report.progressive.evidence_assisted_matches);
  outcome.AddRow().Cell("precision").Cell(m.precision, 4);
  outcome.AddRow().Cell("recall").Cell(m.recall, 4);
  outcome.AddRow().Cell("F1").Cell(m.f1, 4);
  outcome.AddRow().Cell("attribute completeness")
      .Cell(q.attribute_completeness, 4);
  outcome.AddRow().Cell("entity coverage").Cell(q.entity_coverage, 4);
  outcome.AddRow().Cell("relationship completeness")
      .Cell(q.relationship_completeness, 4);
  outcome.Print(std::cout);
  return 0;
}
