// Experiment T5 — quality-aspect benefit models vs the quantity baseline.
//
// The poster's central contribution: "in contrast to existing works in
// progressive relational ER, which consider the quantity of entity pairs
// resolved as the benefit of ER, we explore different aspects of data
// quality … attribute completeness … entity coverage … relationship
// completeness." This harness runs each scheduler at a small budget and
// reports all three quality aspects; each benefit model should lead (or
// co-lead) on its own target metric.

#include <cstdio>
#include <iostream>

#include "baseline/schedulers.h"
#include "bench_common.h"
#include "eval/progressive_metrics.h"
#include "progressive/resolver.h"
#include "util/table.h"

using namespace minoan;        // NOLINT
using namespace minoan::bench; // NOLINT

int main(int argc, char** argv) {
  const uint32_t scale = ParseScale(argc, argv);
  std::printf("== T5: quality-aspect benefit models (mixed cloud, scale %u) "
              "==\n\n", scale);
  World w = World::Make(MakeConfig(CloudProfile::kMixed, scale));
  const auto candidates = w.DefaultCandidates();
  const double kThreshold = 0.35;

  for (double budget_fraction : {0.10, 0.25}) {
    const uint64_t budget =
        static_cast<uint64_t>(budget_fraction * candidates.size());
    std::printf("budget = %llu comparisons (%s of candidates):\n",
                static_cast<unsigned long long>(budget),
                FormatPercent(budget_fraction, 0).c_str());
    Table table({"scheduler", "matches", "attr_completeness",
                 "entity_coverage", "rel_completeness"});

    auto add_row = [&](const std::string& name, const ResolutionRun& run) {
      const QualityAspects q = EvaluateQualityAspects(
          run, *w.truth, *w.collection, *w.graph);
      table.AddRow()
          .Cell(name)
          .Cell(static_cast<uint64_t>(run.matches.size()))
          .Cell(q.attribute_completeness, 4)
          .Cell(q.entity_coverage, 4)
          .Cell(q.relationship_completeness, 4);
    };

    {
      MatcherOptions mopts;
      mopts.threshold = kThreshold;
      mopts.budget = budget;
      BatchMatcher matcher(*w.evaluator, mopts);
      add_row("random", matcher.Run(baseline::RandomOrder(candidates, 777)));
    }
    {
      baseline::AltowimResolver::Options opts;
      opts.matcher.threshold = kThreshold;
      opts.matcher.budget = budget;
      baseline::AltowimResolver resolver(*w.collection, *w.evaluator, opts);
      add_row("altowim-quantity", resolver.Run(candidates));
    }
    for (uint32_t model = 0; model < kNumBenefitModels; ++model) {
      ProgressiveOptions opts;
      opts.benefit = static_cast<BenefitModel>(model);
      opts.benefit_weight = 2.0;  // sharpened scheduling for the comparison
      opts.matcher.threshold = kThreshold;
      opts.matcher.budget = budget;
      ProgressiveResolver resolver(*w.collection, *w.graph, *w.evaluator,
                                   opts);
      add_row(std::string("minoan/") +
                  std::string(BenefitModelName(opts.benefit)),
              RunToEnd(resolver, candidates).run);
    }
    table.Print(std::cout);
    std::printf("\n");
  }
  std::printf("(each minoan/<aspect> scheduler should lead its own column "
              "at small budgets)\n");
  return 0;
}
