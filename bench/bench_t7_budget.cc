// Experiment T7 — pay-as-you-go: benefit vs cost budget.
//
// The poster: "since this inherently iterative process entails an
// additional overhead, we are interested in maximizing its benefit, given a
// computational cost budget … this iterative process continues until the
// cost budget is consumed." This harness sweeps the budget and reports each
// benefit model's realized benefit and quality metrics, demonstrating
// diminishing returns (the marginal benefit of each extra budget slice
// shrinks).

#include <cstdio>
#include <iostream>

#include "bench_common.h"
#include "eval/metrics.h"
#include "eval/progressive_metrics.h"
#include "progressive/resolver.h"
#include "util/table.h"

using namespace minoan;        // NOLINT
using namespace minoan::bench; // NOLINT

int main(int argc, char** argv) {
  const uint32_t scale = ParseScale(argc, argv);
  std::printf("== T7: benefit vs budget (mixed cloud, scale %u) ==\n\n",
              scale);
  World w = World::Make(MakeConfig(CloudProfile::kMixed, scale));
  const auto candidates = w.DefaultCandidates();
  const std::vector<double> fractions = {0.05, 0.10, 0.25, 0.50, 1.00};

  for (uint32_t model = 0; model < kNumBenefitModels; ++model) {
    const BenefitModel benefit = static_cast<BenefitModel>(model);
    std::printf("benefit model: %s\n",
                std::string(BenefitModelName(benefit)).c_str());
    Table table({"budget", "comparisons", "matches", "recall",
                 "realized_benefit", "marginal_benefit_per_1k",
                 "attr_compl", "coverage", "rel_compl"});
    double prev_benefit = 0.0;
    uint64_t prev_budget = 0;
    for (double f : fractions) {
      const uint64_t budget = static_cast<uint64_t>(f * candidates.size());
      ProgressiveOptions opts;
      opts.benefit = benefit;
      opts.matcher.threshold = 0.35;
      opts.matcher.budget = budget;
      ProgressiveResolver resolver(*w.collection, *w.graph, *w.evaluator,
                                   opts);
      const ProgressiveResult result = RunToEnd(resolver, candidates);
      const double realized = result.benefit_trace.empty()
                                  ? 0.0
                                  : result.benefit_trace.back();
      const MatchingMetrics m =
          EvaluateMatches(result.run.matches, *w.truth);
      const QualityAspects q = EvaluateQualityAspects(
          result.run, *w.truth, *w.collection, *w.graph);
      const double marginal =
          budget > prev_budget
              ? 1000.0 * (realized - prev_benefit) /
                    static_cast<double>(budget - prev_budget)
              : 0.0;
      table.AddRow()
          .Cell(FormatPercent(f, 0))
          .Cell(result.run.comparisons_executed)
          .Cell(static_cast<uint64_t>(result.run.matches.size()))
          .Cell(m.recall, 4)
          .Cell(realized, 1)
          .Cell(marginal, 2)
          .Cell(q.attribute_completeness, 4)
          .Cell(q.entity_coverage, 4)
          .Cell(q.relationship_completeness, 4);
      prev_benefit = realized;
      prev_budget = budget;
    }
    table.Print(std::cout);
    std::printf("\n");
  }
  std::printf("(marginal benefit per 1k extra comparisons shrinks with the "
              "budget: diminishing returns,\n the reason scheduling "
              "matters)\n");
  return 0;
}
