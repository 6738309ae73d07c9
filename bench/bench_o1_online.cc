// Experiment O1 — the online incremental engine vs. batch re-runs.
//
// The online subsystem exists so that absorbing new evidence does not mean
// re-running the pipeline from scratch. This harness quantifies that on the
// standard mixed cloud:
//
//   * ingest throughput   — entities/sec through Ingest (index + schedule
//     the delta candidates);
//   * resolve throughput  — comparisons/sec through ResolveBudget;
//   * query latency       — mean microseconds per Query(e, 5) after full
//     resolution (all pending executed, pure ranking);
//   * absorb-one          — wall time to Ingest ONE held-out entity and
//     resolve its delta, against the batch alternative: rebuild the
//     collection and re-run the whole MinoanER pipeline.
//
// Results print as a table and are also written to bench_o1_online.json.

#include <cstdio>
#include <fstream>
#include <iostream>
#include <string>
#include <unordered_map>
#include <vector>

#include "bench_common.h"
#include "core/session.h"
#include "online/online_resolver.h"
#include "util/stopwatch.h"
#include "util/table.h"

using namespace minoan;        // NOLINT
using namespace minoan::bench; // NOLINT

namespace {

using online::GroupBySubject;

online::OnlineOptions MakeOnlineOptions() {
  online::OnlineOptions options;
  options.matcher.threshold = 0.3;
  return options;
}

}  // namespace

int main(int argc, char** argv) {
  const uint32_t scale = ParseScale(argc, argv);
  std::printf("== O1: online incremental engine vs batch re-run (scale %u) "
              "==\n\n", scale);
  const datagen::LodCloudConfig cfg = MakeConfig(CloudProfile::kMixed, scale);
  auto cloud = datagen::GenerateLodCloud(cfg);
  if (!cloud.ok()) {
    std::fprintf(stderr, "generator: %s\n", cloud.status().ToString().c_str());
    return 1;
  }

  // Pre-group every KB's triples into entity bundles (parsing/grouping is
  // feed preparation, not engine work — excluded from the timings).
  std::vector<std::vector<std::vector<rdf::Triple>>> per_kb;
  uint64_t total_entities = 0;
  for (const datagen::GeneratedKb& kb : cloud->kbs) {
    per_kb.push_back(GroupBySubject(kb.triples));
    total_entities += per_kb.back().size();
  }

  // --- Ingest throughput ---------------------------------------------------
  online::OnlineResolver resolver(MakeOnlineOptions());
  std::vector<uint32_t> kb_ids;
  for (const datagen::GeneratedKb& kb : cloud->kbs) {
    kb_ids.push_back(resolver.EnsureKb(kb.name));
  }
  Stopwatch ingest_watch;
  for (size_t k = 0; k < per_kb.size(); ++k) {
    for (const auto& entity : per_kb[k]) {
      auto id = resolver.Ingest(kb_ids[k], entity);
      if (!id.ok()) {
        std::fprintf(stderr, "ingest: %s\n", id.status().ToString().c_str());
        return 1;
      }
    }
  }
  const double ingest_ms = ingest_watch.ElapsedMillis();
  const double ingest_eps =
      static_cast<double>(total_entities) / (ingest_ms / 1000.0);

  // --- Resolve throughput --------------------------------------------------
  Stopwatch resolve_watch;
  const online::OnlineStepResult full = resolver.ResolveBudget(1ull << 40);
  const double resolve_ms = resolve_watch.ElapsedMillis();
  const double resolve_cps =
      resolve_ms > 0.0
          ? static_cast<double>(full.comparisons) / (resolve_ms / 1000.0)
          : 0.0;

  // --- Query latency -------------------------------------------------------
  const uint32_t n = resolver.collection().num_entities();
  const uint32_t stride = n > 256 ? n / 256 : 1;
  uint64_t queries = 0;
  Stopwatch query_watch;
  for (EntityId e = 0; e < n; e += stride) {
    (void)resolver.Query(e, 5);
    ++queries;
  }
  const double query_mean_us =
      static_cast<double>(query_watch.ElapsedMicros()) /
      static_cast<double>(queries);

  // --- Absorb one new entity vs batch re-run -------------------------------
  // Online side: a second engine ingests everything except the last entity
  // of KB 0 and fully resolves; we then time absorbing the held-out entity.
  online::OnlineResolver absorber(MakeOnlineOptions());
  std::vector<uint32_t> absorber_kbs;
  for (const datagen::GeneratedKb& kb : cloud->kbs) {
    absorber_kbs.push_back(absorber.EnsureKb(kb.name));
  }
  const auto& held_out = per_kb[0].back();
  for (size_t k = 0; k < per_kb.size(); ++k) {
    const size_t limit = per_kb[k].size() - (k == 0 ? 1 : 0);
    for (size_t i = 0; i < limit; ++i) {
      (void)absorber.Ingest(absorber_kbs[k], per_kb[k][i]);
    }
  }
  (void)absorber.ResolveBudget(1ull << 40);
  Stopwatch absorb_watch;
  (void)absorber.Ingest(absorber_kbs[0], held_out);
  const online::OnlineStepResult absorb_step =
      absorber.ResolveBudget(1ull << 40);
  const double absorb_ms = absorb_watch.ElapsedMillis();

  // Batch side: rebuild the collection and re-run the whole pipeline.
  Stopwatch batch_watch;
  auto batch_collection = cloud->BuildCollection();
  if (!batch_collection.ok()) {
    std::fprintf(stderr, "ingest: %s\n",
                 batch_collection.status().ToString().c_str());
    return 1;
  }
  WorkflowOptions workflow;
  workflow.progressive.matcher.threshold = 0.3;
  auto session = ResolutionSession::Open(*batch_collection, workflow);
  if (!session.ok()) {
    std::fprintf(stderr, "pipeline: %s\n",
                 session.status().ToString().c_str());
    return 1;
  }
  session->Step(0);
  const double batch_ms = batch_watch.ElapsedMillis();
  const double speedup = absorb_ms > 0.0 ? batch_ms / absorb_ms : 0.0;

  // --- Report --------------------------------------------------------------
  Table table({"metric", "value"});
  table.AddRow().Cell("entities").Cell(total_entities);
  table.AddRow().Cell("ingest ms").Cell(ingest_ms, 1);
  table.AddRow().Cell("ingest entities/s").Cell(ingest_eps, 0);
  table.AddRow().Cell("resolve comparisons").Cell(full.comparisons);
  table.AddRow().Cell("resolve ms").Cell(resolve_ms, 1);
  table.AddRow().Cell("resolve cmp/s").Cell(resolve_cps, 0);
  table.AddRow().Cell("matches").Cell(
      uint64_t{resolver.run().matches.size()});
  table.AddRow().Cell("query mean us").Cell(query_mean_us, 1);
  table.AddRow().Cell("absorb-one ms").Cell(absorb_ms, 3);
  table.AddRow().Cell("absorb-one comparisons").Cell(absorb_step.comparisons);
  table.AddRow().Cell("batch re-run ms").Cell(batch_ms, 1);
  table.AddRow().Cell("absorb speedup").Cell(speedup, 1);
  table.Print(std::cout);
  std::printf("\n(absorb speedup = batch pipeline re-run time / time to "
              "ingest+resolve one new entity online)\n");

  const char* json_path = "bench_o1_online.json";
  std::ofstream json(json_path);
  char buf[1024];
  std::snprintf(
      buf, sizeof(buf),
      "{\n"
      "  \"bench\": \"o1_online\",\n"
      "  \"scale\": %u,\n"
      "  \"entities\": %llu,\n"
      "  \"ingest_ms\": %.3f,\n"
      "  \"ingest_entities_per_sec\": %.1f,\n"
      "  \"resolve_comparisons\": %llu,\n"
      "  \"resolve_ms\": %.3f,\n"
      "  \"resolve_comparisons_per_sec\": %.1f,\n"
      "  \"matches\": %zu,\n"
      "  \"query_count\": %llu,\n"
      "  \"query_mean_us\": %.2f,\n"
      "  \"absorb_one_ms\": %.4f,\n"
      "  \"absorb_one_comparisons\": %llu,\n"
      "  \"batch_rerun_ms\": %.3f,\n"
      "  \"absorb_speedup\": %.2f\n"
      "}\n",
      scale, static_cast<unsigned long long>(total_entities), ingest_ms,
      ingest_eps, static_cast<unsigned long long>(full.comparisons),
      resolve_ms, resolve_cps, resolver.run().matches.size(),
      static_cast<unsigned long long>(queries), query_mean_us, absorb_ms,
      static_cast<unsigned long long>(absorb_step.comparisons), batch_ms,
      speedup);
  json << buf;
  std::printf("wrote %s\n", json_path);
  return 0;
}
