// minoan_perfbench: the measuring side of the benchmark of record.
//
//   minoan_perfbench gen      --workload W --seed N --data DIR
//   minoan_perfbench run      --workload W --data DIR --work DIR --check 0|1
//   minoan_perfbench trace    --workload W --data DIR --work DIR
//   minoan_perfbench selftest
//
// `gen` writes a workload's inputs (datagen .nt files + ground_truth.tsv).
// `run` is one untraced repetition through the public API — a
// ResolutionSession for the batch workloads, an in-process server::Server
// driven by server::Client connections for served-mix — and prints one JSON
// line of raw measurements and output digests. `trace` is the separate
// traced run: it repeats the workload with harness-side spans around every
// call into a layer (perfbench/spans.h), at 1 and 4 threads, and checks that
// the layer-by-layer calls reproduce the session's outputs. run.py owns
// every reduction (medians, percentiles, self time); this program measures
// and checks, nothing more.

#include <algorithm>
#include <atomic>
#include <bit>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <optional>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <type_traits>
#include <unordered_set>
#include <utility>
#include <vector>

#include "blocking/block_cleaning.h"
#include "blocking/flat_block_store.h"
#include "core/minoan_er.h"
#include "core/session.h"
#include "datagen/lod_generator.h"
#include "eval/ground_truth.h"
#include "eval/progressive_metrics.h"
#include "kb/collection.h"
#include "kb/neighbor_graph.h"
#include "matching/matcher.h"
#include "matching/similarity_evaluator.h"
#include "metablocking/meta_blocking.h"
#include "obs/metrics.h"
#include "obs/report.h"
#include "online/incremental_collection.h"
#include "online/online_resolver.h"
#include "progressive/resolver.h"
#include "rdf/ntriples.h"
#include "rdf/turtle.h"
#include "server/client.h"
#include "server/server.h"
#include "spans.h"
#include "util/cli_flags.h"
#include "util/hash.h"
#include "util/thread_pool.h"

namespace perfbench {
namespace {

using namespace minoan;  // NOLINT
namespace fs = std::filesystem;
using Clock = std::chrono::steady_clock;

// ---- Workloads ------------------------------------------------------------
// Why each exists is recorded in perfbench/README.md. The batch workloads run
// the library-default workflow (token+PIS blocking, auto-purge, filter 0.8,
// default meta-blocking, quantity benefit) at threshold 0.35 — what a
// `minoan serve` batch session runs.

constexpr double kThreshold = 0.35;
constexpr uint32_t kKbs = 6;
constexpr uint32_t kCenterKbs = 2;
constexpr uint32_t kBatchThreads = 4;
constexpr uint64_t kStepBudget = 8192;
// served-mix traffic.
constexpr uint32_t kServerThreads = 2;
constexpr uint32_t kFeedEntities = 3000;
constexpr size_t kFeedDocEntities = 10;
// Requests per feed tenant: the first kFeedDocs documents of its cloud (a
// 3,000-entity cloud holds about 470), so every seed sends the same traffic.
// With 200, the feeds finish in about half the bulk tenant's time, so the
// bulk tenant's Steps set the makespan. Each feed is a chain of 600 round
// trips, and when the host is short of CPU each thread wakeup on it waits
// longer: with 400 documents the feeds set the makespan, and it doubled in
// such a window while Step latency rose by a third.
constexpr size_t kFeedDocs = 200;
constexpr uint64_t kFeedResolveBudget = 2000;
constexpr uint32_t kQueryK = 5;
constexpr int kFeeds = 2;
// Pairs timed by the similarity micro-measurement of the traced run.
constexpr size_t kSimilaritySample = 50'000;

struct Workload {
  std::string name;
  uint32_t entities = 0;          // real-world entities of the main corpus
  uint64_t budget = 0;            // comparisons the (bulk) resolution spends
  uint64_t shuffle_budget = 0;    // memory.shuffle_budget_bytes, 0 = in memory
  bool served = false;
};

// batch-loop and the served bulk tenant spend 400,000 comparisons: short of
// exhaustion on every seed (a 20,000-entity cloud exhausts after 470k-600k),
// so every seed runs the same loop work instead of its corpus's own count.
constexpr uint64_t kLoopBudget = 400'000;

const Workload* FindWorkload(const std::string& name) {
  static const Workload kWorkloads[] = {
      {"batch-loop", 20'000, kLoopBudget, 0, false},
      {"batch-spill", 60'000, 50'000, 16ull << 20, false},
      {"served-mix", 20'000, kLoopBudget, 0, true},
  };
  for (const Workload& w : kWorkloads) {
    if (w.name == name) return &w;
  }
  return nullptr;
}

// Corpus seeds: the main corpus derives from the run's seed; each feed
// tenant gets its own cloud from a seed derived from it.
uint64_t FeedSeed(uint64_t seed, int feed) {
  return HashCombine(seed, 0x9e3779b97f4a7c15ULL + static_cast<uint64_t>(feed));
}
// The generator jitters each KB's coverage by up to ±20%, so two seeds'
// clouds can differ in scale by a third — more than the run-to-run noise the
// benchmark has to resolve. Generation therefore holds the scale: it tries
// generator seeds derived from the run's seed in order and keeps the first
// cloud whose center KBs, and whose KBs all together, describe within
// kScaleTolerance of their nominal number of entities; after
// kMaxScaleAttempts it keeps the closest one, so generation time stays
// bounded. Seeds then vary a workload's content, not its size.
constexpr double kScaleTolerance = 0.04;
constexpr uint64_t kMaxScaleAttempts = 16;

// ---- Small utilities ------------------------------------------------------

double SecondsSince(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}
double MillisSince(Clock::time_point t0) {
  return std::chrono::duration<double, std::milli>(Clock::now() - t0).count();
}

/// One flat JSON object, written field by field.
class Json {
 public:
  Json& Num(const std::string& key, double v) {
    char buf[64];
    std::snprintf(buf, sizeof buf, "%.17g", std::isfinite(v) ? v : 0.0);
    return Raw(key, buf);
  }
  Json& Int(const std::string& key, uint64_t v) {
    return Raw(key, std::to_string(v));
  }
  Json& Str(const std::string& key, const std::string& v) {
    return Raw(key, Quote(v));
  }
  Json& Array(const std::string& key, const std::vector<double>& values) {
    std::string body = "[";
    char buf[64];
    for (size_t i = 0; i < values.size(); ++i) {
      std::snprintf(buf, sizeof buf, "%s%.9g", i ? "," : "", values[i]);
      body += buf;
    }
    return Raw(key, body + "]");
  }
  Json& Strings(const std::string& key, const std::vector<std::string>& vs) {
    std::string body = "[";
    for (size_t i = 0; i < vs.size(); ++i) body += (i ? "," : "") + Quote(vs[i]);
    return Raw(key, body + "]");
  }
  Json& Object(const std::string& key, const Json& inner) {
    return Raw(key, inner.Text());
  }
  std::string Text() const { return "{" + text_ + "}"; }

 private:
  static std::string Quote(const std::string& v) {
    std::string quoted = "\"";
    for (char c : v) {
      if (c == '"' || c == '\\') quoted += '\\';
      quoted += (c == '\n' || c == '\t') ? ' ' : c;
    }
    return quoted + "\"";
  }
  Json& Raw(const std::string& key, const std::string& value) {
    if (!text_.empty()) text_ += ",";
    text_ += "\"" + key + "\":" + value;
    return *this;
  }
  std::string text_;
};

/// Operations attempted and the failures among them (requests that errored
/// and output checks that did not hold). Every failure fails the run.
struct Tally {
  uint64_t attempted = 0;
  std::vector<std::string> errors;

  bool Check(bool ok, const std::string& what) {
    ++attempted;
    if (!ok) errors.push_back(what);
    return ok;
  }
  void Add(const Tally& other) {
    attempted += other.attempted;
    errors.insert(errors.end(), other.errors.begin(), other.errors.end());
  }
};

std::vector<std::string> NtFiles(const std::string& dir) {
  std::vector<std::string> files;
  std::error_code ec;
  for (const auto& entry : fs::directory_iterator(dir, ec)) {
    if (entry.path().extension() == ".nt") files.push_back(entry.path());
  }
  std::sort(files.begin(), files.end());
  return files;
}

bool DirEmpty(const std::string& dir) {
  std::error_code ec;
  return !fs::exists(dir, ec) || fs::is_empty(dir, ec);
}

std::string Hex(uint64_t v) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%016llx", static_cast<unsigned long long>(v));
  return buf;
}

/// Digest of a match sequence: order, pairs, discovery stamps, similarity
/// bits, and the comparisons spent.
uint64_t MatchDigest(const std::vector<MatchEvent>& matches,
                     uint64_t comparisons) {
  uint64_t h = Fnv1a64("perfbench-matches");
  for (const MatchEvent& m : matches) {
    h = HashCombine(h, m.comparisons_done);
    h = HashCombine(h, (uint64_t{m.a} << 32) | m.b);
    h = HashCombine(h, std::bit_cast<uint64_t>(m.similarity));
  }
  return HashCombine(h, comparisons);
}

/// The owl:sameAs rendering the server's Links reply and the CLI's links
/// file use, so in-process and served links compare byte for byte.
std::string LinksText(const std::vector<MatchEvent>& matches,
                      const EntityCollection& collection) {
  std::ostringstream text;
  rdf::NTriplesWriter writer(text);
  for (const MatchEvent& m : UniqueMappingClustering(matches, collection)) {
    writer.Write({rdf::Term::Iri(std::string(collection.EntityIri(m.a))),
                  rdf::Term::Iri(std::string(rdf::kOwlSameAs)),
                  rdf::Term::Iri(std::string(collection.EntityIri(m.b)))});
  }
  return text.str();
}

double PeakRssMiB() {
  return static_cast<double>(obs::PeakRssBytes()) / (1024.0 * 1024.0);
}

// ---- Inputs ---------------------------------------------------------------

/// How far the cloud's center KBs, and all its KBs together, are from the
/// number of entities their configured coverage asks for: the larger of the
/// two relative deviations.
double ScaleDeviation(const datagen::LodCloud& cloud,
                      const datagen::LodCloudConfig& config) {
  double center = 0, center_nominal = 0, all = 0, all_nominal = 0;
  for (const datagen::GeneratedKb& kb : cloud.kbs) {
    std::unordered_set<std::string_view> subjects;
    for (const rdf::Triple& t : kb.triples) subjects.insert(t.subject.lexical);
    const double nominal =
        (kb.is_center ? config.center_coverage : config.periphery_coverage) *
        config.num_real_entities;
    all += static_cast<double>(subjects.size());
    all_nominal += nominal;
    if (kb.is_center) {
      center += static_cast<double>(subjects.size());
      center_nominal += nominal;
    }
  }
  return std::max(std::fabs(center / center_nominal - 1.0),
                  std::fabs(all / all_nominal - 1.0));
}

Status WriteCloud(uint64_t seed, uint32_t entities, const std::string& dir) {
  datagen::LodCloudConfig config;
  config.num_real_entities = entities;
  config.num_kbs = kKbs;
  config.center_kbs = kCenterKbs;
  std::optional<datagen::LodCloud> best;
  double best_deviation = 0.0;
  for (uint64_t attempt = 0; attempt < kMaxScaleAttempts; ++attempt) {
    config.seed = attempt == 0 ? seed : HashCombine(seed, attempt);
    MINOAN_ASSIGN_OR_RETURN(datagen::LodCloud cloud,
                            datagen::GenerateLodCloud(config));
    const double deviation = ScaleDeviation(cloud, config);
    if (!best || deviation < best_deviation) {
      best = std::move(cloud);
      best_deviation = deviation;
    }
    if (best_deviation <= kScaleTolerance) break;
  }
  return best->WriteTo(dir);
}

int CmdGen(const Workload& w, uint64_t seed, const std::string& data) {
  Status st = WriteCloud(seed, w.entities, data + "/corpus");
  for (int f = 0; st.ok() && w.served && f < kFeeds; ++f) {
    st = WriteCloud(FeedSeed(seed, f), kFeedEntities,
                    data + "/feed-" + std::to_string(f));
  }
  if (!st.ok()) {
    std::fprintf(stderr, "gen: %s\n", st.ToString().c_str());
    return 1;
  }
  return 0;
}

/// Parses every .nt file of `dir` and builds the finalized collection,
/// file by file as the CLI and the server's dir: loader do. Traced: one
/// rdf.parse span per file, kb.build spans around AddKnowledgeBase and
/// Finalize.
Result<EntityCollection> LoadCorpus(const std::string& dir,
                                    SpanRecorder* rec = nullptr,
                                    uint64_t parent = 0,
                                    uint64_t* triples_out = nullptr) {
  const std::vector<std::string> files = NtFiles(dir);
  if (files.empty()) return Status::NotFound("no .nt files in " + dir);
  EntityCollection collection;
  uint64_t triples_total = 0;
  for (const std::string& file : files) {
    Result<std::vector<rdf::Triple>> triples = [&] {
      ScopedSpan span(rec, "rdf.parse", parent);
      return rdf::LoadTriples(file);
    }();
    if (!triples.ok()) return triples.status();
    triples_total += triples->size();
    ScopedSpan span(rec, "kb.build", parent);
    MINOAN_RETURN_IF_ERROR(
        collection.AddKnowledgeBase(fs::path(file).stem().string(), *triples)
            .status());
  }
  {
    ScopedSpan span(rec, "kb.build", parent);
    MINOAN_RETURN_IF_ERROR(collection.Finalize());
  }
  if (triples_out != nullptr) *triples_out = triples_total;
  return collection;
}

/// A feed tenant's traffic: its cloud cut into 10-entity N-Triples
/// documents, taken round-robin over the KBs.
struct FeedDoc {
  std::string kb;
  std::string text;
  size_t entities = 0;
};

Result<std::vector<FeedDoc>> LoadFeedDocs(const std::string& dir) {
  std::vector<std::vector<FeedDoc>> per_kb;
  for (const std::string& file : NtFiles(dir)) {
    MINOAN_ASSIGN_OR_RETURN(std::vector<rdf::Triple> triples,
                            rdf::LoadTriples(file));
    const auto groups = online::GroupBySubject(triples);
    per_kb.emplace_back();
    for (size_t i = 0; i < groups.size(); i += kFeedDocEntities) {
      std::ostringstream text;
      rdf::NTriplesWriter writer(text);
      const size_t end = std::min(groups.size(), i + kFeedDocEntities);
      for (size_t g = i; g < end; ++g) writer.WriteAll(groups[g]);
      per_kb.back().push_back(
          {fs::path(file).stem().string(), text.str(), end - i});
    }
  }
  std::vector<FeedDoc> docs;
  for (size_t round = 0;; ++round) {
    bool any = false;
    for (const auto& kb_docs : per_kb) {
      if (round < kb_docs.size()) {
        docs.push_back(kb_docs[round]);
        any = true;
      }
    }
    if (!any) break;
  }
  if (docs.empty()) return Status::NotFound("no feed documents in " + dir);
  if (docs.size() > kFeedDocs) docs.resize(kFeedDocs);
  return docs;
}

WorkflowOptions BatchOptions(const Workload& w, uint32_t threads,
                             const std::string& spill_dir, bool in_memory) {
  WorkflowOptions options;
  options.progressive.matcher.threshold = kThreshold;
  options.progressive.matcher.budget = w.budget;
  options.num_threads = threads;
  if (w.shuffle_budget > 0 && !in_memory) {
    options.memory.shuffle_budget_bytes = w.shuffle_budget;
    options.memory.spill_dir = spill_dir;
  }
  return options;
}

/// Stamps each confirmed match with the time since `origin`.
class StampingObserver : public MatchObserver {
 public:
  Clock::time_point origin = Clock::now();
  std::vector<double> stamps;
  void OnMatch(const MatchEvent&) override {
    stamps.push_back(SecondsSince(origin));
  }
};

/// The stamp of the match that brings the count to half the final count,
/// 0 when there is none.
double HalfWay(const std::vector<double>& stamps) {
  return stamps.empty() ? 0.0 : stamps[(stamps.size() + 1) / 2 - 1];
}

/// Pair recall of a run through eval.
struct RecallScore {
  double final_recall = 0.0;
  /// The benchmark's recall_auc: the area under pair recall over [0,
  /// budget] comparisons, as a share of the budget (ProgressiveRecallAuc
  /// with the workload's budget as horizon), in [0, 1]. The horizon is the
  /// workload's, not the run's, and a run that stops early keeps its final
  /// recall to the end of it, so a run that loses a true match, or finds it
  /// later, always scores lower.
  double auc = 0.0;
};

/// Scores a match sequence against the corpus ground truth through eval
/// and writes the recall-vs-comparisons curve beside the metrics.
RecallScore ScoreRecall(const std::vector<MatchEvent>& matches,
                        uint64_t comparisons, uint64_t budget,
                        const EntityCollection& collection,
                        const std::string& truth_path,
                        const std::string& curve_path, Tally& tally) {
  Result<GroundTruth> truth = GroundTruth::FromTsv(truth_path, collection);
  if (!tally.Check(truth.ok(), "ground truth: " + truth.status().ToString())) {
    return {};
  }
  ResolutionRun run;
  run.comparisons_executed = comparisons;
  run.matches = matches;
  const std::vector<CurvePoint> points = ProgressiveRecallCurve(run, *truth);
  if (!curve_path.empty()) {
    std::ofstream curve(curve_path);
    curve << "comparisons\trecall\n";
    for (const CurvePoint& p : points) {
      curve << p.comparisons << "\t" << p.recall << "\n";
    }
  }
  RecallScore score;
  score.final_recall = points.back().recall;
  score.auc = ProgressiveRecallAuc(run, *truth, budget);
  tally.Check(score.auc > 0.0, "recall AUC is zero");
  return score;
}

void AddRecall(Json& metrics, const RecallScore& score) {
  metrics.Num("recall_auc", score.auc).Num("final_recall", score.final_recall);
}

// ---- Layer by layer (traced run) -----------------------------------------
// Mirrors ResolutionSession::Open + the Step loop call for call, with a span
// around each layer call. The traced run checks that this reproduces the
// session's match digest, so a divergence from session.cc cannot go unseen.

MetaBlockingOptions EffectiveMetaOptions(const WorkflowOptions& options) {
  MetaBlockingOptions meta = options.meta;
  if (options.num_threads != 1 && meta.num_threads == 1) {
    meta.num_threads = options.num_threads;
  }
  if (options.memory.enabled() && !meta.memory.enabled()) {
    meta.memory = options.memory;
  }
  return meta;
}

ProgressiveOptions EffectiveProgressiveOptions(const WorkflowOptions& options) {
  ProgressiveOptions progressive = options.progressive;
  if (options.num_threads != 1 && progressive.num_threads == 1) {
    progressive.num_threads = options.num_threads;
  }
  return progressive;
}

struct LayerRun {
  uint64_t digest = 0;
  std::vector<MatchEvent> matches;
  uint64_t comparisons = 0;
  uint64_t pushes = 0;
  uint64_t blocks_built = 0;
  uint64_t blocks_after_cleaning = 0;
  uint64_t comparisons_after_cleaning = 0;
  MetaBlockingStats meta;
  ThreadPoolStats pool;
  obs::StatsSnapshot registry;
  double similarity_ns = 0.0;
};

template <typename Store>
std::vector<WeightedComparison> CleanAndPrune(
    Store& store, const EntityCollection& collection,
    const WorkflowOptions& options, ThreadPool* pool, uint32_t block_threads,
    uint32_t meta_threads, SpanRecorder* rec, uint64_t parent, LayerRun& out) {
  constexpr bool kFlat = std::is_same_v<Store, FlatBlockStore>;
  out.blocks_built = store.num_blocks();
  {
    ScopedSpan span(rec, "blocking.clean", parent);
    ThreadPool* cleaning_pool = block_threads > 1 ? pool : nullptr;
    if (options.auto_purge) {
      if constexpr (kFlat) {
        AutoPurgeFlat(store, collection, options.meta.mode, 1.025,
                      cleaning_pool);
      } else {
        AutoPurge(store, collection, options.meta.mode, 1.025, cleaning_pool);
      }
    }
    if (options.filter_ratio > 0.0 && options.filter_ratio < 1.0) {
      if constexpr (kFlat) {
        FilterBlocksFlat(store, options.filter_ratio, collection,
                         options.meta.mode, cleaning_pool);
      } else {
        FilterBlocks(store, options.filter_ratio, collection,
                     options.meta.mode, cleaning_pool);
      }
    }
    out.blocks_after_cleaning = store.num_blocks();
    // The session counts the comparisons left here, inside its
    // block-cleaning phase; the mirror does the same work, so that
    // core.phase_gap_ms compares like with like.
    out.comparisons_after_cleaning =
        store.AggregateComparisons(collection, options.meta.mode);
  }
  ScopedSpan span(rec, "metablocking.prune", parent);
  MetaBlocking meta(EffectiveMetaOptions(options));
  return pool != nullptr && meta_threads > 1
             ? meta.Prune(store, collection, *pool, &out.meta)
             : meta.Prune(store, collection, &out.meta);
}

/// Runs the pipeline under one root span named `root_name` (covering what
/// resolve_s covers: Open through finished()), then times the similarity
/// sample outside it.
LayerRun RunLayers(const EntityCollection& collection,
                   const WorkflowOptions& options, SpanRecorder* rec,
                   const std::string& root_name) {
  LayerRun out;
  obs::MetricsRegistry::Default().ResetAll();
  std::optional<ScopedSpan> root(std::in_place, rec, root_name, 0);
  const uint64_t parent = root->id();
  const uint32_t meta_threads =
      ResolveThreadCount(EffectiveMetaOptions(options).num_threads);
  const ProgressiveOptions progressive = EffectiveProgressiveOptions(options);
  const uint32_t prog_threads = ResolveThreadCount(progressive.num_threads);
  const uint32_t block_threads = ResolveThreadCount(options.num_threads);
  const uint32_t pool_threads =
      std::max({meta_threads, prog_threads, block_threads});
  std::unique_ptr<ThreadPool> pool;
  if (pool_threads > 1) {
    ScopedSpan span(rec, "util.pool_start", parent);
    pool = std::make_unique<ThreadPool>(
        pool_threads, ThreadPoolOptions{options.pin_threads});
  }
  ThreadPool* block_pool = block_threads > 1 ? pool.get() : nullptr;

  std::vector<WeightedComparison> candidates;
  if (options.memory.enabled()) {
    FlatBlockStore flat;
    {
      ScopedSpan span(rec, "blocking.build", parent);
      FlatStoreSink sink(flat);
      MakeWorkflowBlocker(options)->BuildInto(collection, block_pool, sink);
    }
    candidates = CleanAndPrune(flat, collection, options, pool.get(),
                               block_threads, meta_threads, rec, parent, out);
  } else {
    BlockCollection raw = [&] {
      ScopedSpan span(rec, "blocking.build", parent);
      return MakeWorkflowBlocker(options)->Build(collection, block_pool);
    }();
    candidates = CleanAndPrune(raw, collection, options, pool.get(),
                               block_threads, meta_threads, rec, parent, out);
  }

  std::unique_ptr<NeighborGraph> graph;
  {
    ScopedSpan span(rec, "kb.graph", parent);
    graph = std::make_unique<NeighborGraph>(collection);
  }
  std::unique_ptr<SimilarityEvaluator> evaluator;
  {
    ScopedSpan span(rec, "matching.evaluator", parent);
    evaluator =
        std::make_unique<SimilarityEvaluator>(collection, options.similarity);
  }
  // The session builds the resolver in its graph+evaluator phase, and
  // times Begin alone as the start of progressive resolution.
  std::unique_ptr<ProgressiveResolver> resolver;
  {
    ScopedSpan span(rec, "progressive.init", parent);
    resolver = std::make_unique<ProgressiveResolver>(
        collection, *graph, *evaluator, progressive, pool.get());
  }
  {
    ScopedSpan span(rec, "progressive.begin", parent);
    resolver->Begin(candidates, {});
  }
  while (!resolver->finished()) {
    ScopedSpan span(rec, "progressive.step", parent);
    if (resolver->Step(kStepBudget).comparisons == 0) break;
  }
  const ProgressiveResult& result = resolver->result();
  out.matches = result.run.matches;
  out.comparisons = result.run.comparisons_executed;
  out.pushes = result.scheduler_pushes;
  out.digest = MatchDigest(out.matches, out.comparisons);
  if (pool != nullptr) out.pool = pool->Stats();
  out.registry = obs::MetricsRegistry::Default().Snapshot();
  root.reset();

  // Similarity over a fixed, evenly strided sample of the candidate pairs.
  if (!candidates.empty()) {
    const size_t n = std::min(kSimilaritySample, candidates.size());
    const size_t stride = candidates.size() / n;
    double sum = 0.0;
    const Clock::time_point t = Clock::now();
    {
      ScopedSpan span(rec, "matching.similarity", 0);
      for (size_t i = 0; i < n; ++i) {
        const WeightedComparison& c = candidates[i * stride];
        sum += evaluator->Similarity(c.a, c.b);
      }
    }
    out.similarity_ns = MillisSince(t) * 1e6 / static_cast<double>(n);
    volatile double keep = sum;  // the timed calls must not be elided
    (void)keep;
  }
  return out;
}

/// Per-pass values the library reports about its own work (counts and
/// ratios; the spans carry the times).
Json LayerValues(const LayerRun& run) {
  Json v;
  const auto ratio = [](double a, double b) { return b > 0 ? a / b : 0.0; };
  v.Int("blocking.emissions", run.registry.CounterValue("blocking.emissions"))
      .Num("blocking.kept_ratio",
           ratio(run.blocks_after_cleaning, run.blocks_built))
      .Int("metablocking.edges", run.meta.graph_edges)
      .Num("metablocking.retained_ratio",
           ratio(run.meta.retained_edges, run.meta.graph_edges))
      .Int("extmem.spill_bytes", run.registry.CounterValue("spill.bytes"))
      .Int("extmem.runs", run.registry.CounterValue("spill.runs"))
      .Int("extmem.cascade_merges",
           run.registry.CounterValue("spill.cascade_merges"))
      .Num("matching.similarity_ns", run.similarity_ns)
      .Int("progressive.comparisons", run.comparisons)
      .Num("progressive.match_ratio", ratio(run.matches.size(), run.comparisons))
      .Num("progressive.pushes_per_comparison",
           ratio(run.pushes, run.comparisons))
      .Num("pool.busy_s", run.pool.TotalBusyMicros() / 1e6)
      .Num("pool.queue_wait_s", run.pool.queue_wait_micros / 1e6);
  return v;
}

/// A session's own account of a run: wall time to finished(), Open's wall
/// time, and its phase times — what the harness spans are reconciled with.
Json SessionTimes(const ResolutionSession& session, double resolve_s,
                  double open_s) {
  Json times;
  times.Num("resolve_s", resolve_s).Num("open_s", open_s);
  for (const obs::PhaseTiming& phase : session.Stats().phases) {
    times.Num("phase." + phase.name + "_ms", phase.millis);
  }
  return times;
}

// ---- Batch: untraced repetition ------------------------------------------

int CmdRunBatch(const Workload& w, const std::string& data,
                const std::string& work, bool check) {
  Tally tally;
  Json metrics;
  Json out;
  const std::string spill_dir = work + "/spill";
  fs::create_directories(spill_dir);

  const Clock::time_point setup_start = Clock::now();
  Result<EntityCollection> collection = LoadCorpus(data + "/corpus");
  if (!tally.Check(collection.ok(), "load: " + collection.status().ToString())) {
    out.Strings("errors", tally.errors);
    std::cout << out.Text() << std::endl;
    return 1;
  }
  metrics.Num("setup_s", SecondsSince(setup_start));

  const WorkflowOptions options =
      BatchOptions(w, kBatchThreads, spill_dir, /*in_memory=*/false);
  StampingObserver observer;
  std::vector<double> step_ms;
  uint64_t digest = 0;
  uint64_t comparisons = 0;
  std::vector<MatchEvent> matches;
  {
    observer.origin = Clock::now();
    Result<ResolutionSession> session =
        ResolutionSession::Open(*collection, options, &observer);
    if (tally.Check(session.ok(), "open: " + session.status().ToString())) {
      while (!session->finished()) {
        const Clock::time_point t = Clock::now();
        const StepResult step = session->Step(kStepBudget);
        step_ms.push_back(MillisSince(t));
        if (!tally.Check(step.comparisons > 0 || session->finished(),
                         "step made no progress")) {
          break;
        }
      }
      metrics.Num("resolve_s", SecondsSince(observer.origin));
      metrics.Num("peak_rss_mb", PeakRssMiB());
      const ResolutionReport report = session->Report();
      matches = report.progressive.run.matches;
      comparisons = report.progressive.run.comparisons_executed;
      digest = MatchDigest(matches, comparisons);
    }
  }
  tally.Check(!matches.empty(), "no matches");
  tally.Check(observer.stamps.size() == matches.size(),
              "observer saw a different match count than the report");
  metrics.Num("half_matches_s", HalfWay(observer.stamps));
  if (check) {
    // The traced run's layer-by-layer calls must reproduce the session.
    SpanRecorder rec;
    const LayerRun traced = RunLayers(*collection, options, &rec, "resolve.t4");
    tally.Check(traced.digest == digest,
                "traced layer-by-layer run differs from the session");
    AddRecall(metrics, ScoreRecall(matches, comparisons, w.budget, *collection,
                                   data + "/corpus/ground_truth.tsv",
                                   work + "/recall_curve.tsv", tally));
  }
  if (w.shuffle_budget > 0) {
    tally.Check(DirEmpty(spill_dir), "spill directory not empty after run");
  }
  out.Object("metrics", metrics)
      .Array("step_ms", step_ms)
      .Str("digest", Hex(digest))
      .Int("matches", matches.size())
      .Int("comparisons", comparisons)
      .Int("attempted", tally.attempted)
      .Strings("errors", tally.errors);
  std::cout << out.Text() << std::endl;
  return 0;
}

// ---- Batch: traced run ----------------------------------------------------

int CmdTraceBatch(const Workload& w, const std::string& data,
                  const std::string& work) {
  Tally tally;
  SpanRecorder rec;
  Json out;
  const std::string spill_dir = work + "/spill";
  fs::create_directories(spill_dir);

  uint64_t triples = 0;
  Result<EntityCollection> collection = [&] {
    ScopedSpan setup(&rec, "setup", 0);
    return LoadCorpus(data + "/corpus", &rec, setup.id(), &triples);
  }();
  if (!tally.Check(collection.ok(), "load: " + collection.status().ToString())) {
    out.Strings("errors", tally.errors);
    std::cout << out.Text() << std::endl;
    return 1;
  }

  // 1. The untraced session pass: reference digest, the session's own phase
  //    times, and its minoan-stats-v1 file for tools/validate_obs.py.
  Json session_json;
  uint64_t session_digest = 0;
  uint64_t session_cleaned = 0;  // comparisons left after block cleaning
  {
    obs::MetricsRegistry::Default().ResetAll();
    const WorkflowOptions options =
        BatchOptions(w, kBatchThreads, spill_dir, false);
    const Clock::time_point t0 = Clock::now();
    Result<ResolutionSession> session =
        ResolutionSession::Open(*collection, options);
    const double open_s = SecondsSince(t0);
    if (tally.Check(session.ok(), "open: " + session.status().ToString())) {
      while (!session->finished()) {
        if (session->Step(kStepBudget).comparisons == 0 &&
            !session->finished()) {
          break;
        }
      }
      session_json = SessionTimes(*session, SecondsSince(t0), open_s);
      const ResolutionReport report = session->Report();
      session_digest = MatchDigest(report.progressive.run.matches,
                                   report.progressive.run.comparisons_executed);
      session_cleaned = report.comparisons_before_meta;
      std::ofstream stats(work + "/session-stats.json");
      session->WriteStatsJson(stats);
    }
  }

  // 2. Traced layer passes: 4 threads (the untraced configuration), 1 thread
  //    (parallel efficiency), and for a budgeted workload the in-memory path.
  struct Pass {
    std::string root;
    uint32_t threads;
    bool in_memory;
  };
  std::vector<Pass> passes = {{"resolve.t4", kBatchThreads, false},
                              {"resolve.t1", 1, false}};
  if (w.shuffle_budget > 0) passes.push_back({"resolve.inmem", kBatchThreads, true});
  Json values;
  std::vector<MatchEvent> t4_matches;
  uint64_t t4_comparisons = 0;
  for (const Pass& pass : passes) {
    const WorkflowOptions options =
        BatchOptions(w, pass.threads, spill_dir, pass.in_memory);
    const LayerRun run = RunLayers(*collection, options, &rec, pass.root);
    tally.Check(run.digest == session_digest,
                pass.root + ": layer-by-layer digest differs from the session");
    tally.Check(run.comparisons_after_cleaning == session_cleaned,
                pass.root + ": comparisons after cleaning differ from the "
                            "session's");
    if (pass.root == "resolve.t4") {
      values = LayerValues(run);
      t4_matches = run.matches;
      t4_comparisons = run.comparisons;
    }
  }
  if (w.shuffle_budget > 0) {
    tally.Check(DirEmpty(spill_dir), "spill directory not empty after run");
  }
  RecallScore recall;
  {
    ScopedSpan span(&rec, "eval.score", 0);
    recall = ScoreRecall(t4_matches, t4_comparisons, w.budget, *collection,
                         data + "/corpus/ground_truth.tsv", "", tally);
  }

  std::ofstream spans(work + "/spans.jsonl");
  rec.WriteJsonLines(spans);
  values.Int("rdf.triples", triples)
      .Num("eval.final_recall", recall.final_recall)
      .Num("eval.recall_auc", recall.auc);
  out.Object("values", values)
      .Object("session", session_json)
      .Str("digest", Hex(session_digest))
      .Str("spans", work + "/spans.jsonl")
      .Strings("stats_files", {work + "/session-stats.json"})
      .Int("attempted", tally.attempted)
      .Strings("errors", tally.errors);
  std::cout << out.Text() << std::endl;
  return 0;
}

// ---- Served ---------------------------------------------------------------

struct FeedReplay {
  uint64_t digest = 0;
  std::vector<double> ingest_ms, resolve_ms, query_ms;
  uint64_t entities = 0;
  uint64_t resolve_comparisons = 0;
};

/// Replays one feed tenant's request sequence against an in-process
/// OnlineResolver configured as the server configures a cold online session.
FeedReplay ReplayFeed(const std::vector<FeedDoc>& docs, SpanRecorder* rec,
                      uint64_t parent, Tally& tally) {
  FeedReplay out;
  online::OnlineOptions options;
  options.matcher.threshold = kThreshold;
  online::OnlineResolver engine(options);
  for (const FeedDoc& doc : docs) {
    std::vector<EntityId> ids;
    Clock::time_point t = Clock::now();
    {
      ScopedSpan span(rec, "online.ingest", parent);
      auto triples = rdf::NTriplesParser().ParseString(doc.text);
      if (!tally.Check(triples.ok(), "replay parse failed")) return out;
      const uint32_t kb = engine.EnsureKb(doc.kb);
      for (const auto& group : online::GroupBySubject(*triples)) {
        auto id = engine.Ingest(kb, group);
        if (!tally.Check(id.ok(), "replay ingest failed")) return out;
        ids.push_back(*id);
      }
    }
    out.ingest_ms.push_back(MillisSince(t));
    out.entities += ids.size();
    t = Clock::now();
    {
      ScopedSpan span(rec, "online.resolve", parent);
      out.resolve_comparisons +=
          engine.ResolveBudget(kFeedResolveBudget).comparisons;
    }
    out.resolve_ms.push_back(MillisSince(t));
    t = Clock::now();
    {
      ScopedSpan span(rec, "online.query", parent);
      engine.Query(ids.front(), kQueryK);
    }
    out.query_ms.push_back(MillisSince(t));
  }
  out.digest = MatchDigest(engine.run().matches, 0);
  return out;
}

struct ServedPass {
  double setup_s = 0.0;
  double makespan_s = 0.0;
  double bulk_s = 0.0;  // when the bulk tenant's last reply arrived
  double feed_s = 0.0;  // when the slower feed tenant's last reply arrived
  double half_matches_s = 0.0;
  double peak_rss_mb = 0.0;
  double request_us_p50 = 0.0;
  std::vector<double> step_ms;
  std::vector<double> ingest_ms, resolve_ms, query_ms;
  std::vector<MatchEvent> bulk_matches;
  uint64_t bulk_comparisons = 0;
  std::string bulk_links;
  uint64_t feed_digest[kFeeds] = {};
  std::string stats_json;  // the server's minoan-stats-v1 at the end
};

/// One served-mix pass: an in-process server with kServerThreads
/// fair-share slots, a bulk tenant stepping a batch session with
/// Step(8192) until it has spent kLoopBudget, and two feed tenants each looping
/// Ingest → ResolveBudget(2000) → Query(first new id, k=5) — three closed
/// loops, one client connection each. With `rec`, every request is a span
/// (request id = rid) under one "traffic" root.
ServedPass RunServed(const std::string& data, const std::string& work,
                     const std::vector<FeedDoc> (&docs)[kFeeds],
                     SpanRecorder* rec, Tally& tally) {
  ServedPass out;
  const Clock::time_point setup_start = Clock::now();
  server::ServerOptions options;
  options.port = 0;
  options.num_threads = kServerThreads;
  options.state_dir = work + "/state";
  auto server = server::Server::Start(options);
  if (!tally.Check(server.ok(), "server start: " + server.status().ToString())) {
    return out;
  }
  std::unique_ptr<server::Client> clients[1 + kFeeds];
  for (auto& client : clients) {
    auto connected = server::Client::Connect("127.0.0.1", (*server)->port());
    if (!tally.Check(connected.ok(), "connect: " + connected.status().ToString())) {
      return out;
    }
    client = std::move(*connected);
  }
  const Clock::time_point bulk_open = Clock::now();
  auto bulk = clients[0]->CreateSession("bulk", server::SessionKind::kBatch,
                                        "dir:" + data + "/corpus", kThreshold);
  uint64_t feed_ids[kFeeds] = {};
  bool created = tally.Check(bulk.ok(), "create bulk: " + bulk.status().ToString());
  for (int f = 0; f < kFeeds; ++f) {
    auto id = clients[1 + f]->CreateSession("feed-" + std::to_string(f),
                                            server::SessionKind::kOnline, "",
                                            kThreshold);
    created &= tally.Check(id.ok(), "create feed: " + id.status().ToString());
    if (id.ok()) feed_ids[f] = *id;
  }
  out.setup_s = SecondsSince(setup_start);
  if (!created) return out;

  std::atomic<uint64_t> next_rid{0};
  Tally thread_tally[1 + kFeeds];
  std::vector<std::pair<double, uint64_t>> timeline;  // (t, total matches)
  std::vector<double> feed_lat[kFeeds][3];
  double feed_end[kFeeds] = {};
  const Clock::time_point start = Clock::now();
  {
    ScopedSpan traffic(rec, "traffic", 0, Usage::kThread);
    const uint64_t root = traffic.id();
    std::vector<std::thread> threads;
    threads.emplace_back([&] {
      Tally& t = thread_tally[0];
      while (true) {
        const Clock::time_point t0 = Clock::now();
        Result<server::StepReply> reply = [&] {
          ScopedSpan span(rec, "server.step", root, Usage::kThread, ++next_rid);
          return clients[0]->Step(
              *bulk, std::min(kStepBudget, kLoopBudget - out.bulk_comparisons));
        }();
        out.step_ms.push_back(MillisSince(t0));
        if (!t.Check(reply.ok(), "bulk step: " + reply.status().ToString())) break;
        timeline.emplace_back(SecondsSince(bulk_open), reply->total_matches);
        out.bulk_comparisons = reply->total_comparisons;
        if (reply->finished || out.bulk_comparisons >= kLoopBudget) break;
        if (!t.Check(reply->comparisons > 0, "bulk step made no progress")) break;
      }
      out.bulk_s = SecondsSince(start);
    });
    for (int f = 0; f < kFeeds; ++f) {
      threads.emplace_back([&, f] {
        Tally& t = thread_tally[1 + f];
        server::Client& client = *clients[1 + f];
        for (const FeedDoc& doc : docs[f]) {
          Clock::time_point t0 = Clock::now();
          Result<std::vector<EntityId>> ids = [&] {
            ScopedSpan span(rec, "server.ingest", root, Usage::kThread, ++next_rid);
            return client.Ingest(feed_ids[f], doc.kb, doc.text);
          }();
          feed_lat[f][0].push_back(MillisSince(t0));
          if (!t.Check(ids.ok() && ids->size() == doc.entities,
                       "ingest: " + ids.status().ToString())) {
            break;
          }
          t0 = Clock::now();
          Result<server::StepReply> resolved = [&] {
            ScopedSpan span(rec, "server.resolve", root, Usage::kThread, ++next_rid);
            return client.ResolveBudget(feed_ids[f], kFeedResolveBudget);
          }();
          feed_lat[f][1].push_back(MillisSince(t0));
          if (!t.Check(resolved.ok(), "resolve: " + resolved.status().ToString())) break;
          t0 = Clock::now();
          Result<std::vector<online::QueryCandidate>> top = [&] {
            ScopedSpan span(rec, "server.query", root, Usage::kThread, ++next_rid);
            return client.Query(feed_ids[f], ids->front(), kQueryK);
          }();
          feed_lat[f][2].push_back(MillisSince(t0));
          if (!t.Check(top.ok(), "query: " + top.status().ToString())) break;
        }
        feed_end[f] = SecondsSince(start);
      });
    }
    for (std::thread& thread : threads) thread.join();
  }
  out.makespan_s = SecondsSince(start);
  out.feed_s = *std::max_element(std::begin(feed_end), std::end(feed_end));
  out.peak_rss_mb = PeakRssMiB();
  for (const Tally& t : thread_tally) tally.Add(t);
  for (int f = 0; f < kFeeds; ++f) {
    out.ingest_ms.insert(out.ingest_ms.end(), feed_lat[f][0].begin(), feed_lat[f][0].end());
    out.resolve_ms.insert(out.resolve_ms.end(), feed_lat[f][1].begin(), feed_lat[f][1].end());
    out.query_ms.insert(out.query_ms.end(), feed_lat[f][2].begin(), feed_lat[f][2].end());
  }
  if (!timeline.empty()) {
    const uint64_t half = (timeline.back().second + 1) / 2;
    for (const auto& [t, total] : timeline) {
      if (total >= half) {
        out.half_matches_s = t;
        break;
      }
    }
  }

  // Outputs, read back over the wire once the traffic is done.
  if (auto stats = clients[0]->StatsFull();
      tally.Check(stats.ok(), "stats: " + stats.status().ToString())) {
    for (const auto& [name, hist] : stats->histograms) {
      if (name == "server.request_micros") out.request_us_p50 = hist.p50;
    }
  }
  if (auto matches = clients[0]->Matches(*bulk, 0);
      tally.Check(matches.ok(), "bulk matches: " + matches.status().ToString())) {
    out.bulk_matches = std::move(*matches);
  }
  if (auto links = clients[0]->Links(*bulk);
      tally.Check(links.ok(), "bulk links: " + links.status().ToString())) {
    out.bulk_links = std::move(*links);
  }
  for (int f = 0; f < kFeeds; ++f) {
    auto matches = clients[1 + f]->Matches(feed_ids[f], 0);
    if (tally.Check(matches.ok(), "feed matches: " + matches.status().ToString())) {
      out.feed_digest[f] = MatchDigest(*matches, 0);
    }
  }
  {
    std::ostringstream stats;
    obs::WriteStatsJson(stats, (*server)->BuildStatsReport());
    out.stats_json = stats.str();
  }
  tally.Check(clients[0]->Close(*bulk).ok(), "close bulk");
  for (int f = 0; f < kFeeds; ++f) {
    tally.Check(clients[1 + f]->Close(feed_ids[f]).ok(), "close feed");
  }
  for (auto& client : clients) client.reset();
  (*server)->Shutdown();
  return out;
}

/// In-process reference for the bulk tenant: the same corpus and options
/// as the server's batch session (dir: loader, threshold, 1 thread),
/// stepped with the same Step(8192) sequence up to the same budget. The
/// budget lives in the options here and in the client's last Step there;
/// Step(n/2) twice equals Step(n), so the comparison sequences agree.
struct BulkReplay {
  std::string links;
  uint64_t digest = 0;
  std::vector<double> step_ms;
  Json session;
};

BulkReplay ReplayBulk(const EntityCollection& collection,
                      const std::string& stats_path, Tally& tally) {
  BulkReplay out;
  WorkflowOptions options;
  options.progressive.matcher.threshold = kThreshold;
  options.progressive.matcher.budget = kLoopBudget;
  const Clock::time_point t0 = Clock::now();
  Result<ResolutionSession> session = ResolutionSession::Open(collection, options);
  const double open_s = SecondsSince(t0);
  if (!tally.Check(session.ok(), "replay open: " + session.status().ToString())) {
    return out;
  }
  while (!session->finished()) {
    const Clock::time_point t = Clock::now();
    const StepResult step = session->Step(kStepBudget);
    out.step_ms.push_back(MillisSince(t));
    if (step.comparisons == 0 && !session->finished()) break;
  }
  out.session = SessionTimes(*session, SecondsSince(t0), open_s);
  const ResolutionReport report = session->Report();
  out.links = LinksText(report.progressive.run.matches, collection);
  out.digest = MatchDigest(report.progressive.run.matches,
                           report.progressive.run.comparisons_executed);
  if (!stats_path.empty()) {
    std::ofstream stats(stats_path);
    session->WriteStatsJson(stats);
  }
  return out;
}

bool LoadAllFeedDocs(const std::string& data, std::vector<FeedDoc> (&docs)[kFeeds],
                     Tally& tally) {
  for (int f = 0; f < kFeeds; ++f) {
    auto loaded = LoadFeedDocs(data + "/feed-" + std::to_string(f));
    if (!tally.Check(loaded.ok(), "feed docs: " + loaded.status().ToString())) {
      return false;
    }
    docs[f] = std::move(*loaded);
  }
  return true;
}

/// What the in-process replays of a served pass found.
struct ServedCheck {
  BulkReplay bulk;   // the bulk sequence through a session
  Json layers;       // LayerValues of the traced layer-by-layer bulk replay
  uint64_t triples = 0;
  FeedReplay feeds[kFeeds];
  RecallScore recall;
};

/// Checks a served pass against in-process replays of the same request
/// sequences, all recorded into `rec`: the bulk sequence through a session
/// and through the traced layer-by-layer pipeline (`replay.bulk`), each feed
/// sequence against an OnlineResolver (`replay.feed`). Also scores the bulk
/// tenant's recall.
ServedCheck CheckServed(const ServedPass& pass, const std::string& data,
                        const std::vector<FeedDoc> (&docs)[kFeeds],
                        const std::string& work, const std::string& stats_path,
                        SpanRecorder& rec, Tally& tally) {
  ServedCheck out;
  Result<EntityCollection> collection = [&] {
    ScopedSpan setup(&rec, "setup", 0);
    return LoadCorpus(data + "/corpus", &rec, setup.id(), &out.triples);
  }();
  if (!tally.Check(collection.ok(), "load: " + collection.status().ToString())) {
    return out;
  }
  const uint64_t served_digest =
      MatchDigest(pass.bulk_matches, pass.bulk_comparisons);
  out.bulk = ReplayBulk(*collection, stats_path, tally);
  tally.Check(!pass.bulk_links.empty() && out.bulk.links == pass.bulk_links,
              "served bulk links differ from the in-process session's");
  tally.Check(served_digest == out.bulk.digest,
              "served bulk match log differs from the in-process session's");
  WorkflowOptions options;
  options.progressive.matcher.threshold = kThreshold;
  options.progressive.matcher.budget = kLoopBudget;
  const LayerRun layers = RunLayers(*collection, options, &rec, "replay.bulk");
  tally.Check(layers.digest == served_digest,
              "served bulk match log differs from the traced layer-by-layer "
              "replay's");
  out.layers = LayerValues(layers);
  for (int f = 0; f < kFeeds; ++f) {
    ScopedSpan span(&rec, "replay.feed", 0);
    out.feeds[f] = ReplayFeed(docs[f], &rec, span.id(), tally);
    tally.Check(out.feeds[f].digest == pass.feed_digest[f],
                "feed-" + std::to_string(f) +
                    " match log differs from its in-process replay");
  }
  ScopedSpan span(&rec, "eval.score", 0);
  out.recall = ScoreRecall(pass.bulk_matches, pass.bulk_comparisons,
                           kLoopBudget, *collection,
                           data + "/corpus/ground_truth.tsv",
                           work + "/recall_curve.tsv", tally);
  return out;
}

uint64_t ServedDigest(const ServedPass& pass) {
  uint64_t h = MatchDigest(pass.bulk_matches, pass.bulk_comparisons);
  for (uint64_t d : pass.feed_digest) h = HashCombine(h, d);
  return h;
}

int CmdRunServed(const std::string& data, const std::string& work, bool check) {
  Tally tally;
  Json out;
  Json metrics;
  std::vector<FeedDoc> docs[kFeeds];
  if (!LoadAllFeedDocs(data, docs, tally)) {
    out.Strings("errors", tally.errors);
    std::cout << out.Text() << std::endl;
    return 1;
  }
  const ServedPass pass = RunServed(data, work, docs, nullptr, tally);
  metrics.Num("setup_s", pass.setup_s)
      .Num("resolve_s", pass.makespan_s)
      .Num("bulk_s", pass.bulk_s)
      .Num("feed_s", pass.feed_s)
      .Num("half_matches_s", pass.half_matches_s)
      .Num("peak_rss_mb", pass.peak_rss_mb);
  tally.Check(!pass.bulk_matches.empty(), "bulk tenant found no matches");
  if (check) {
    SpanRecorder rec;
    AddRecall(metrics, CheckServed(pass, data, docs, work, "", rec, tally).recall);
  }
  out.Object("metrics", metrics)
      .Array("step_ms", pass.step_ms)
      .Array("ingest_ms", pass.ingest_ms)
      .Array("feed_resolve_ms", pass.resolve_ms)
      .Array("query_ms", pass.query_ms)
      .Str("digest", Hex(ServedDigest(pass)))
      .Int("matches", pass.bulk_matches.size())
      .Int("comparisons", pass.bulk_comparisons)
      .Int("attempted", tally.attempted)
      .Strings("errors", tally.errors);
  std::cout << out.Text() << std::endl;
  return 0;
}

int CmdTraceServed(const std::string& data, const std::string& work) {
  Tally tally;
  SpanRecorder rec;
  Json out;
  std::vector<FeedDoc> docs[kFeeds];
  if (!LoadAllFeedDocs(data, docs, tally)) {
    out.Strings("errors", tally.errors);
    std::cout << out.Text() << std::endl;
    return 1;
  }
  // Untraced passes (the reference for tracing overhead, and enough feed
  // samples between them for a p99), then the traced pass; all must
  // produce the same outputs.
  constexpr int kPlainPasses = 3;
  std::vector<ServedPass> plain;
  for (int i = 0; i < kPlainPasses; ++i) {
    plain.push_back(RunServed(data, work, docs, nullptr, tally));
  }
  const ServedPass traced = RunServed(data, work, docs, &rec, tally);
  std::vector<double> plain_makespan_s;
  for (const ServedPass& pass : plain) {
    tally.Check(ServedDigest(pass) == ServedDigest(traced),
                "traced served pass produced different outputs");
    plain_makespan_s.push_back(pass.makespan_s);
  }
  const auto pooled = [&](std::vector<double> ServedPass::*field) {
    std::vector<double> all;
    for (const ServedPass& pass : plain) {
      all.insert(all.end(), (pass.*field).begin(), (pass.*field).end());
    }
    return all;
  };
  {
    std::ofstream stats(work + "/server-stats.json");
    stats << traced.stats_json;
  }

  // The in-process replays isolate the server layer.
  const ServedCheck check = CheckServed(
      traced, data, docs, work, work + "/session-stats.json", rec, tally);
  Json values = check.layers;
  std::vector<double> ingest_ms, resolve_ms, query_ms;
  uint64_t entities = 0, resolve_comparisons = 0;
  for (const FeedReplay& f : check.feeds) {
    ingest_ms.insert(ingest_ms.end(), f.ingest_ms.begin(), f.ingest_ms.end());
    resolve_ms.insert(resolve_ms.end(), f.resolve_ms.begin(), f.resolve_ms.end());
    query_ms.insert(query_ms.end(), f.query_ms.begin(), f.query_ms.end());
    entities += f.entities;
    resolve_comparisons += f.resolve_comparisons;
  }
  values.Int("rdf.triples", check.triples)
      .Int("online.entities", entities)
      .Int("online.resolve_comparisons", resolve_comparisons)
      .Num("server.request_us_p50", traced.request_us_p50)
      .Num("eval.final_recall", check.recall.final_recall)
      .Num("eval.recall_auc", check.recall.auc);

  std::ofstream spans(work + "/spans.jsonl");
  rec.WriteJsonLines(spans);
  out.Object("values", values)
      .Object("session", check.bulk.session)
      .Array("plain_makespan_s", plain_makespan_s)
      .Num("traced_makespan_s", traced.makespan_s)
      .Array("step_ms", pooled(&ServedPass::step_ms))
      .Array("ingest_ms", pooled(&ServedPass::ingest_ms))
      .Array("feed_resolve_ms", pooled(&ServedPass::resolve_ms))
      .Array("query_ms", pooled(&ServedPass::query_ms))
      .Array("replay_step_ms", check.bulk.step_ms)
      .Array("replay_ingest_ms", ingest_ms)
      .Array("replay_resolve_ms", resolve_ms)
      .Array("replay_query_ms", query_ms)
      .Str("digest", Hex(ServedDigest(traced)))
      .Str("spans", work + "/spans.jsonl")
      .Strings("stats_files", {work + "/session-stats.json",
                               work + "/server-stats.json"})
      .Int("attempted", tally.attempted)
      .Strings("errors", tally.errors);
  std::cout << out.Text() << std::endl;
  return 0;
}

// ---- Self-test ------------------------------------------------------------

/// recall_auc on a hand-computed curve, through eval: 100 comparisons, two
/// truth pairs, matches at comparisons 20 (true), 50 (false) and 60 (true).
/// Recall is 0 over [0,20), 0.5 over [20,60), 1 from 60 on. Over a budget of
/// 100 the area is (40 * 0.5 + 40 * 1) / 100 = 0.6; over a budget of 200,
/// which the run stopped short of, its final recall holds to the end:
/// (20 + 40 + 100) / 200 = 0.8.
int CmdSelfTest() {
  GroundTruth truth(6, {{0, 1}, {2, 3}});
  ResolutionRun run;
  run.comparisons_executed = 100;
  run.matches = {{20, 0, 1, 0.9}, {50, 4, 5, 0.8}, {60, 2, 3, 0.7}};
  const double auc100 = ProgressiveRecallAuc(run, truth, 100);
  const double auc200 = ProgressiveRecallAuc(run, truth, 200);
  const auto near = [](double a, double b) { return std::fabs(a - b) < 1e-12; };
  const bool ok = near(auc100, 0.6) && near(auc200, 0.8);
  std::printf("{\"auc100\":%.17g,\"auc200\":%.17g,\"ok\":%s}\n", auc100,
              auc200, ok ? "true" : "false");
  return ok ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;  // NOLINT
  if (argc < 2) {
    std::fprintf(stderr,
                 "usage: minoan_perfbench gen|run|trace|selftest [--flag v]\n");
    return 2;
  }
  const std::string cmd = argv[1];
  if (cmd == "selftest") return CmdSelfTest();
  const minoan::cli::Flags flags(argc, argv, 2);
  const Workload* w = FindWorkload(flags.Get("workload", ""));
  const std::string data = flags.Get("data", "");
  if (w == nullptr || data.empty()) {
    std::fprintf(stderr, "unknown workload or missing --data\n");
    return 2;
  }
  if (cmd == "gen") return CmdGen(*w, flags.GetInt("seed", 1), data);
  const std::string work = flags.Get("work", "");
  if (work.empty()) {
    std::fprintf(stderr, "missing --work\n");
    return 2;
  }
  fs::create_directories(work);
  if (cmd == "run") {
    const bool check = flags.Get("check", "0") == "1";
    return w->served ? CmdRunServed(data, work, check)
                     : CmdRunBatch(*w, data, work, check);
  }
  if (cmd == "trace") {
    return w->served ? CmdTraceServed(data, work) : CmdTraceBatch(*w, data, work);
  }
  std::fprintf(stderr, "unknown command %s\n", cmd.c_str());
  return 2;
}
