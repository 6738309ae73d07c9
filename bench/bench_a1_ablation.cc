// Experiment A1 — ablations of MinoanER's design choices.
//
// Four knobs DESIGN.md calls out, each swept in isolation on the mixed
// cloud (final recall, AUC, precision):
//   1. evidence priority  — how strongly update-phase pairs preempt
//                           blocking candidates in the schedule;
//   2. evidence weight    — the similarity bonus of neighbor evidence
//                           (kept below the threshold by design);
//   3. update fan-out cap — neighbors considered per side per update;
//   4. block filtering    — the ratio of smallest blocks each entity keeps;
// plus the warm-start ablation (existing owl:sameAs links as seeds).

#include <cstdio>
#include <iostream>

#include "bench_common.h"
#include "blocking/block_cleaning.h"
#include "core/session.h"
#include "eval/metrics.h"
#include "eval/progressive_metrics.h"
#include "progressive/resolver.h"
#include "util/table.h"

using namespace minoan;        // NOLINT
using namespace minoan::bench; // NOLINT

namespace {

struct Scores {
  double recall;
  double precision;
  double auc;
};

Scores Score(const ProgressiveResult& result, const World& w,
             uint64_t horizon) {
  const MatchingMetrics m = EvaluateMatches(result.run.matches, *w.truth);
  return {m.recall, m.precision,
          ProgressiveRecallAuc(result.run, *w.truth, horizon)};
}

}  // namespace

int main(int argc, char** argv) {
  const uint32_t scale = ParseScale(argc, argv);
  std::printf("== A1: design-choice ablations (mixed cloud, scale %u) ==\n\n",
              scale);
  World w = World::Make(MakeConfig(CloudProfile::kMixed, scale));
  const auto candidates = w.DefaultCandidates();
  const uint64_t horizon = candidates.size();

  auto run_with = [&](auto mutate) {
    ProgressiveOptions opts;
    opts.matcher.threshold = 0.35;
    mutate(opts);
    ProgressiveResolver resolver(*w.collection, *w.graph, *w.evaluator, opts);
    return Score(RunToEnd(resolver, candidates), w, horizon);
  };

  {
    std::printf("1) evidence priority (update pairs vs candidates):\n");
    Table t({"evidence_priority", "recall", "precision", "AUC"});
    for (double ep : {0.0, 0.2, 0.4, 0.7, 1.0}) {
      const Scores s =
          run_with([&](ProgressiveOptions& o) { o.evidence.priority = ep; });
      t.AddRow().Cell(ep, 1).Cell(s.recall, 4).Cell(s.precision, 4).Cell(
          s.auc, 4);
    }
    t.Print(std::cout);
    std::printf("\n");
  }
  {
    std::printf("2) evidence weight (similarity bonus; threshold 0.35):\n");
    Table t({"evidence_weight", "recall", "precision", "AUC"});
    for (double ew : {0.0, 0.15, 0.3, 0.4}) {
      const Scores s =
          run_with([&](ProgressiveOptions& o) { o.evidence.weight = ew; });
      t.AddRow().Cell(ew, 2).Cell(s.recall, 4).Cell(s.precision, 4).Cell(
          s.auc, 4);
    }
    t.Print(std::cout);
    std::printf("   (>= threshold lets evidence alone fabricate matches: "
                "precision collapses)\n\n");
  }
  {
    std::printf("3) update-phase fan-out cap (neighbors per side):\n");
    Table t({"max_neighbors", "recall", "precision", "AUC",
             "scheduler_pushes"});
    for (uint32_t cap : {2u, 8u, 16u, 64u}) {
      ProgressiveOptions opts;
      opts.matcher.threshold = 0.35;
      opts.evidence.max_neighbors_per_side = cap;
      ProgressiveResolver resolver(*w.collection, *w.graph, *w.evaluator,
                                   opts);
      const ProgressiveResult result = RunToEnd(resolver, candidates);
      const Scores s = Score(result, w, horizon);
      t.AddRow()
          .Cell(static_cast<uint64_t>(cap))
          .Cell(s.recall, 4)
          .Cell(s.precision, 4)
          .Cell(s.auc, 4)
          .Cell(result.scheduler_pushes);
    }
    t.Print(std::cout);
    std::printf("\n");
  }
  {
    std::printf("4) block-filtering ratio (pipeline end-to-end):\n");
    Table t({"filter_ratio", "retained_cmp", "recall", "precision"});
    for (double ratio : {1.0, 0.8, 0.6, 0.4}) {
      WorkflowOptions opts;
      opts.filter_ratio = ratio;
      opts.progressive.matcher.threshold = 0.35;
      auto session = ResolutionSession::Open(*w.collection, opts);
      if (!session.ok()) continue;
      session->Step(0);
      const ResolutionReport report = session->Report();
      const MatchingMetrics m =
          EvaluateMatches(report.progressive.run.matches, *w.truth);
      t.AddRow()
          .Cell(ratio, 1)
          .Cell(report.comparisons_after_meta)
          .Cell(m.recall, 4)
          .Cell(m.precision, 4);
    }
    t.Print(std::cout);
    std::printf("\n");
  }
  {
    std::printf("5) warm start from existing owl:sameAs links:\n");
    Table t({"seeds", "recall", "precision", "discovered_pairs"});
    for (bool seeds : {false, true}) {
      WorkflowOptions opts;
      opts.use_same_as_seeds = seeds;
      opts.progressive.matcher.threshold = 0.35;
      auto session = ResolutionSession::Open(*w.collection, opts);
      if (!session.ok()) continue;
      session->Step(0);
      const ResolutionReport report = session->Report();
      const MatchingMetrics m =
          EvaluateMatches(report.progressive.run.matches, *w.truth);
      t.AddRow()
          .Cell(seeds ? "on" : "off")
          .Cell(m.recall, 4)
          .Cell(m.precision, 4)
          .Cell(report.progressive.discovered_pairs);
    }
    t.Print(std::cout);
    std::printf("   (with seeds, recall counts only matches found by THIS "
                "run; the seeded pairs are free)\n");
  }
  return 0;
}
