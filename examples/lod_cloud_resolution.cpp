// Scenario: interlinking a LOD cloud from N-Triples files on disk.
//
// The workflow a data publisher would run: load every KB dump in a
// directory, resolve across them, and emit the discovered equivalences as
// owl:sameAs triples — the links whose scarcity in the periphery motivates
// the poster ("the majority of KBs are sparsely linked").
//
// Usage:
//   ./build/examples/lod_cloud_resolution [data_dir] [output.nt]
//
// Without arguments, a demonstration cloud is generated into a temp
// directory first, so the example is runnable out of the box. If the
// directory contains a ground_truth.tsv, the run is scored against it.

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <iostream>

#include "core/session.h"
#include "datagen/lod_generator.h"
#include "eval/ground_truth.h"
#include "eval/metrics.h"
#include "kb/stats.h"
#include "matching/matcher.h"

using namespace minoan;  // NOLINT

namespace {

Status ResolveDirectory(const std::string& dir, const std::string& out_path) {
  // --- Load every RDF file as one knowledge base ---------------------------
  MINOAN_ASSIGN_OR_RETURN(const EntityCollection collection,
                          LoadCorpusDirectory(dir));
  for (uint32_t kb = 0; kb < collection.num_kbs(); ++kb) {
    std::printf("  loaded %-22s %8llu triples -> KB %u\n",
                collection.kb(kb).name.c_str(),
                static_cast<unsigned long long>(collection.kb(kb).triples), kb);
  }

  // --- Cloud shape before resolution --------------------------------------
  const CloudStats before = ComputeCloudStats(collection);
  std::printf("\ncloud: %u KBs, %u descriptions, %u vocabularies "
              "(%.0f%% proprietary), %llu existing sameAs links\n\n",
              before.num_kbs, before.num_entities, before.num_vocabularies,
              100.0 * before.proprietary_ratio,
              static_cast<unsigned long long>(before.num_same_as));

  // --- Resolve --------------------------------------------------------------
  WorkflowOptions options;
  options.progressive.matcher.threshold = 0.35;
  MINOAN_ASSIGN_OR_RETURN(ResolutionSession session,
                          ResolutionSession::Open(collection, options));
  session.Step(0);  // the whole budget in one step
  const ResolutionReport report = session.Report();
  std::cout << report.Summary() << "\n";

  // Clean-clean post-processing: at most one partner per entity per KB.
  const std::vector<MatchEvent> links =
      UniqueMappingClustering(report.progressive.run.matches, collection);

  // --- Score against ground truth when available ---------------------------
  const std::string truth_path = dir + "/ground_truth.tsv";
  if (std::filesystem::exists(truth_path)) {
    auto truth = GroundTruth::FromTsv(truth_path, collection);
    if (truth.ok()) {
      const MatchingMetrics raw =
          EvaluateMatches(report.progressive.run.matches, *truth);
      const MatchingMetrics clustered = EvaluateMatches(links, *truth);
      std::printf("raw matches:      precision %.3f recall %.3f\n",
                  raw.precision, raw.recall);
      std::printf("unique-mapped:    precision %.3f recall %.3f\n",
                  clustered.precision, clustered.recall);
    }
  }

  // --- Emit discovered links as owl:sameAs ---------------------------------
  std::ofstream out(out_path);
  if (!out) return Status::IoError("cannot write " + out_path);
  const size_t written =
      WriteSameAsLinks(report.progressive.run.matches, collection, out);
  std::printf("\nwrote %zu owl:sameAs links to %s\n", written,
              out_path.c_str());
  return Status::Ok();
}

}  // namespace

int main(int argc, char** argv) {
  std::string dir;
  std::string out_path = "discovered_links.nt";
  if (argc >= 2) {
    dir = argv[1];
    if (argc >= 3) out_path = argv[2];
  } else {
    // Self-contained demo: generate a cloud to resolve.
    dir = (std::filesystem::temp_directory_path() / "minoan_demo_cloud")
              .string();
    std::filesystem::remove_all(dir);
    datagen::LodCloudConfig config;
    config.seed = 7;
    config.num_real_entities = 800;
    config.num_kbs = 5;
    config.center_kbs = 2;
    auto cloud = datagen::GenerateLodCloud(config);
    if (!cloud.ok() || !cloud->WriteTo(dir).ok()) {
      std::fprintf(stderr, "demo cloud generation failed\n");
      return 1;
    }
    std::printf("generated demo cloud in %s\n", dir.c_str());
  }
  std::printf("resolving %s\n", dir.c_str());
  const Status status = ResolveDirectory(dir, out_path);
  if (!status.ok()) {
    std::fprintf(stderr, "error: %s\n", status.ToString().c_str());
    return 1;
  }
  return 0;
}
