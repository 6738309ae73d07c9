// Experiment F2 — progressive recall: recall vs comparisons per scheduler.
//
// The poster: "those comparisons are executed before less promising ones
// and thus, higher benefit is provided early on in the process". This
// harness prints the progressive-recall series (recall at budget fractions)
// and the normalized AUC for: random order, static weight-descending order,
// the Altowim-style quantity-progressive baseline [1], and the MinoanER
// progressive resolver under each benefit model.
// Expected shape: every scheduler above random; MinoanER curves dominate
// early (small budgets); all converge as the budget approaches 100%.

#include <cstdio>
#include <iostream>

#include "baseline/schedulers.h"
#include "bench_common.h"
#include "eval/progressive_metrics.h"
#include "progressive/resolver.h"
#include "util/table.h"

using namespace minoan;        // NOLINT
using namespace minoan::bench; // NOLINT

namespace {

double RecallAt(const ResolutionRun& run, const GroundTruth& truth,
                uint64_t budget) {
  const ResolutionRun cut = TruncateRun(run, budget);
  uint64_t correct = 0;
  std::unordered_set<uint64_t> seen;
  for (const MatchEvent& m : cut.matches) {
    if (truth.Matches(m.a, m.b) && seen.insert(PairKey(m.a, m.b)).second) {
      ++correct;
    }
  }
  return truth.num_pairs() == 0
             ? 0.0
             : static_cast<double>(correct) /
                   static_cast<double>(truth.num_pairs());
}

}  // namespace

int main(int argc, char** argv) {
  const uint32_t scale = ParseScale(argc, argv);
  std::printf("== F2: progressive recall curves (mixed cloud, scale %u) "
              "==\n\n", scale);
  World w = World::Make(MakeConfig(CloudProfile::kMixed, scale));
  const auto candidates = w.DefaultCandidates();
  const uint64_t horizon = candidates.size();
  std::printf("candidates after meta-blocking: %llu; truth pairs: %llu\n\n",
              static_cast<unsigned long long>(horizon),
              static_cast<unsigned long long>(w.truth->num_pairs()));

  const double kThreshold = 0.35;
  std::vector<std::pair<std::string, ResolutionRun>> runs;

  {  // Random order (non-progressive floor).
    MatcherOptions mopts;
    mopts.threshold = kThreshold;
    BatchMatcher matcher(*w.evaluator, mopts);
    runs.emplace_back("random",
                      matcher.Run(baseline::RandomOrder(candidates, 777)));
  }
  {  // Oracle order (theoretical ceiling over the same candidates).
    MatcherOptions mopts;
    mopts.threshold = kThreshold;
    BatchMatcher matcher(*w.evaluator, mopts);
    runs.emplace_back(
        "oracle (ceiling)",
        matcher.Run(baseline::OracleOrder(
            candidates, [&](EntityId a, EntityId b) {
              return w.truth->Matches(a, b);
            })));
  }
  {  // Static similarity-descending order.
    MatcherOptions mopts;
    mopts.threshold = kThreshold;
    BatchMatcher matcher(*w.evaluator, mopts);
    runs.emplace_back("static-weight",
                      matcher.Run(baseline::WeightDescendingOrder(candidates)));
  }
  {  // Altowim-style quantity-progressive baseline.
    baseline::AltowimResolver::Options opts;
    opts.matcher.threshold = kThreshold;
    baseline::AltowimResolver resolver(*w.collection, *w.evaluator, opts);
    runs.emplace_back("altowim-quantity", resolver.Run(candidates));
  }
  for (uint32_t model = 0; model < kNumBenefitModels; ++model) {
    ProgressiveOptions opts;
    opts.benefit = static_cast<BenefitModel>(model);
    opts.matcher.threshold = kThreshold;
    ProgressiveResolver resolver(*w.collection, *w.graph, *w.evaluator, opts);
    runs.emplace_back(
        std::string("minoan/") + std::string(BenefitModelName(opts.benefit)),
        RunToEnd(resolver, candidates).run);
  }

  const std::vector<double> fractions = {0.01, 0.02, 0.05, 0.10, 0.25,
                                         0.50, 0.75, 1.00};
  std::vector<std::string> headers = {"scheduler"};
  for (double f : fractions) headers.push_back(FormatPercent(f, 0));
  headers.push_back("AUC");
  Table table(headers);
  for (const auto& [name, run] : runs) {
    table.AddRow().Cell(name);
    for (double f : fractions) {
      table.Cell(RecallAt(run, *w.truth,
                          static_cast<uint64_t>(f * horizon)),
                 3);
    }
    table.Cell(ProgressiveRecallAuc(run, *w.truth, horizon), 4);
  }
  table.Print(std::cout);
  std::printf("\n(series = recall after x%% of the comparison budget; AUC "
              "normalized over the full horizon)\n");
  return 0;
}
