#include "core/session.h"

#include <algorithm>
#include <bit>
#include <string>
#include <thread>
#include <vector>

#include "blocking/block_cleaning.h"
#include "extmem/spill_file.h"
#include "kb/neighbor_graph.h"
#include "matching/similarity_evaluator.h"
#include "metablocking/meta_blocking.h"
#include "obs/metrics.h"
#include "progressive/resolver.h"
#include "util/hash.h"
#include "util/serde.h"
#include "util/stopwatch.h"
#include "util/thread_pool.h"

namespace minoan {

namespace {

/// Format tag of the serialized session; bump on layout changes.
constexpr std::string_view kSessionMagic = "MNER-SESS-v1";

/// Fans the workflow-wide thread count out to phases left at their default,
/// exactly as the legacy one-shot Run did. The workflow memory budget fans
/// out the same way: a phase-level meta.memory wins when set.
MetaBlockingOptions EffectiveMetaOptions(const WorkflowOptions& options) {
  MetaBlockingOptions meta = options.meta;
  if (options.num_threads != 1 && meta.num_threads == 1) {
    meta.num_threads = options.num_threads;
  }
  if (!meta.memory.enabled()) meta.memory = options.memory;
  return meta;
}

ProgressiveOptions EffectiveProgressiveOptions(const WorkflowOptions& options) {
  ProgressiveOptions progressive = options.progressive;
  if (options.num_threads != 1 && progressive.num_threads == 1) {
    progressive.num_threads = options.num_threads;
  }
  return progressive;
}

uint64_t Mix(uint64_t seed, uint64_t v) { return HashCombine(seed, v); }
uint64_t Mix(uint64_t seed, double v) {
  return HashCombine(seed, std::bit_cast<uint64_t>(v));
}

/// Digest of every option that shapes the resolution trajectory; a restored
/// session must step identically to the checkpointing one, so mismatched
/// options are rejected instead of silently diverging.
uint64_t OptionsDigest(const WorkflowOptions& o) {
  uint64_t h = Fnv1a64("minoan-workflow-options");
  h = Mix(h, static_cast<uint64_t>(o.blocker));
  h = Mix(h, static_cast<uint64_t>(o.auto_purge));
  h = Mix(h, o.filter_ratio);
  h = Mix(h, static_cast<uint64_t>(o.enable_meta_blocking));
  h = Mix(h, static_cast<uint64_t>(o.meta.weighting));
  h = Mix(h, static_cast<uint64_t>(o.meta.pruning));
  h = Mix(h, static_cast<uint64_t>(o.meta.reciprocal));
  h = Mix(h, static_cast<uint64_t>(o.meta.mode));
  h = Mix(h, o.similarity.tfidf_weight);
  h = Mix(h, static_cast<uint64_t>(o.similarity.use_tfidf));
  h = Mix(h, static_cast<uint64_t>(o.progressive.benefit));
  h = Mix(h, o.progressive.benefit_weight);
  h = Mix(h, o.progressive.matcher.threshold);
  h = Mix(h, o.progressive.matcher.budget);
  h = Mix(h, static_cast<uint64_t>(o.progressive.enable_update_phase));
  h = Mix(h, o.progressive.evidence.increment);
  h = Mix(h, o.progressive.evidence.weight);
  h = Mix(h, o.progressive.evidence.priority);
  h = Mix(h, static_cast<uint64_t>(
                 o.progressive.evidence.max_neighbors_per_side));
  h = Mix(h, o.progressive.evidence.staleness_tolerance);
  h = Mix(h, static_cast<uint64_t>(o.progressive.mode));
  h = Mix(h, static_cast<uint64_t>(o.use_same_as_seeds));
  // Deliberately excluded: num_threads, pin_threads, memory, obs — pure
  // execution hints that never change the trajectory.
  return h;
}

}  // namespace

struct ResolutionSession::Impl {
  const EntityCollection* collection = nullptr;
  WorkflowOptions options;
  MatchObserver* observer = nullptr;

  // Static-phase products and accounting (fixed once Open returns).
  std::vector<PhaseStats> phases;
  uint64_t blocks_built = 0;
  uint64_t blocks_after_cleaning = 0;
  uint64_t comparisons_before_meta = 0;
  uint64_t comparisons_after_meta = 0;
  MetaBlockingStats meta_stats;

  std::unique_ptr<ThreadPool> pool;
  std::unique_ptr<NeighborGraph> graph;
  std::unique_ptr<SimilarityEvaluator> evaluator;
  std::unique_ptr<ProgressiveResolver> resolver;

  /// Accumulated wall time of Begin + every Step (the dynamic phase).
  double resolve_millis = 0.0;

  // Observability (out-of-band: none of this is checkpointed or digested).
  std::unique_ptr<obs::TraceRecorder> trace;  // null unless obs.enable_trace
  obs::ProgressMeter progress;

  void EmitPhase(PhaseStats phase) {
    if (observer != nullptr) observer->OnPhase(phase);
    phases.push_back(std::move(phase));
  }

  /// Rebuilds the deterministic resolution substrate (graph, evaluator,
  /// pool, resolver) shared by Open and Restore. The schedule itself comes
  /// from Begin (Open) or LoadState (Restore).
  void BuildResolutionSubstrate() {
    const ProgressiveOptions progressive =
        EffectiveProgressiveOptions(options);
    const uint32_t meta_threads =
        ResolveThreadCount(EffectiveMetaOptions(options).num_threads);
    const uint32_t prog_threads =
        ResolveThreadCount(progressive.num_threads);
    if (pool == nullptr && std::max(meta_threads, prog_threads) > 1) {
      pool = std::make_unique<ThreadPool>(
          std::max(meta_threads, prog_threads),
          ThreadPoolOptions{options.pin_threads});
    }
    graph = std::make_unique<NeighborGraph>(*collection);
    evaluator =
        std::make_unique<SimilarityEvaluator>(*collection, options.similarity);
    resolver = std::make_unique<ProgressiveResolver>(
        *collection, *graph, *evaluator, progressive, pool.get());
    if (observer != nullptr) {
      resolver->set_match_callback(
          [sink = observer](const MatchEvent& m) { sink->OnMatch(m); });
    }
    progress.Configure(options.obs.progress_every);
    if (progress.enabled()) {
      resolver->set_progress_meter(&progress);
    }
  }
};

ResolutionSession::ResolutionSession(std::unique_ptr<Impl> impl)
    : impl_(std::move(impl)) {}
ResolutionSession::ResolutionSession(ResolutionSession&&) noexcept = default;
ResolutionSession& ResolutionSession::operator=(ResolutionSession&&) noexcept =
    default;
ResolutionSession::~ResolutionSession() = default;

Result<ResolutionSession> ResolutionSession::Open(
    const EntityCollection& collection, const WorkflowOptions& options,
    MatchObserver* observer) {
  MINOAN_RETURN_IF_ERROR(options.Validate());
  if (!collection.finalized()) {
    return Status::FailedPrecondition("collection not finalized");
  }
  auto impl = std::make_unique<Impl>();
  impl->collection = &collection;
  impl->options = options;
  impl->observer = observer;
  if (options.obs.enable_trace) {
    impl->trace = std::make_unique<obs::TraceRecorder>();
  }
  // The "open" span nests every static-phase span recorded below.
  obs::PhaseSpan open_span(impl->trace.get(), "open");
  Stopwatch watch;

  // One pool serves every parallel phase of this session (thread spawn/join
  // is per-session overhead, not per-phase), created up front so blocking —
  // the first and often dominant phase — fans out too. Phases that stay at
  // num_threads == 1 keep running inline — with identical results either
  // way.
  const MetaBlockingOptions meta_options = EffectiveMetaOptions(options);
  const uint32_t meta_threads = ResolveThreadCount(meta_options.num_threads);
  const uint32_t prog_threads = ResolveThreadCount(
      EffectiveProgressiveOptions(options).num_threads);
  const uint32_t block_threads = ResolveThreadCount(options.num_threads);
  const uint32_t pool_threads =
      std::max({meta_threads, prog_threads, block_threads});
  if (pool_threads > 1) {
    impl->pool = std::make_unique<ThreadPool>(
        pool_threads, ThreadPoolOptions{options.pin_threads});
  }

  // ---- Blocking + cleaning + meta-blocking --------------------------------
  // With a memory budget the shuffles hit the filesystem; a spill failure
  // (unwritable temp dir, full disk) surfaces as a Status here instead of
  // unwinding through the caller.
  std::vector<WeightedComparison> candidates;
  try {
    // Under a budget the blocker streams its postings from spill runs and
    // the vote shards spill too; the block collection and every stage after
    // it are the same either way, and so is every downstream byte.
    ThreadPool* block_pool = block_threads > 1 ? impl->pool.get() : nullptr;
    watch.Restart();
    BlockCollection blocks;
    {
      obs::PhaseSpan span(impl->trace.get(), "blocking");
      BlockCollectionSink sink(blocks);
      MakeWorkflowBlocker(options)->BuildInto(collection, block_pool, sink);
    }
    impl->blocks_built = blocks.num_blocks();
    impl->EmitPhase({"blocking", watch.ElapsedMillis(), impl->blocks_built});

    watch.Restart();
    {
      obs::PhaseSpan span(impl->trace.get(), "block-cleaning");
      if (options.auto_purge) {
        AutoPurge(blocks, collection, options.meta.mode, /*smoothing=*/1.025,
                  block_pool);
      }
      if (options.filter_ratio > 0.0 && options.filter_ratio < 1.0) {
        FilterBlocks(blocks, options.filter_ratio, collection, block_pool);
      }
      impl->blocks_after_cleaning = blocks.num_blocks();
      impl->comparisons_before_meta =
          blocks.AggregateComparisons(collection, options.meta.mode);
    }
    impl->EmitPhase({"block-cleaning", watch.ElapsedMillis(),
                     impl->blocks_after_cleaning});

    watch.Restart();
    obs::PhaseSpan span(impl->trace.get(), "meta-blocking");
    if (options.enable_meta_blocking) {
      MetaBlocking meta(meta_options);
      candidates = impl->pool && meta_threads > 1
                       ? meta.Prune(blocks, collection, *impl->pool,
                                    &impl->meta_stats)
                       : meta.Prune(blocks, collection, &impl->meta_stats);
    } else {
      // Distinct comparisons with CBS weights (no pruning).
      for (const Comparison& c :
           blocks.DistinctComparisons(collection, options.meta.mode)) {
        candidates.push_back({c.a, c.b, 1.0});
      }
    }
  } catch (const extmem::SpillError& e) {
    return Status::IoError(e.what());
  }
  impl->comparisons_after_meta = candidates.size();
  impl->EmitPhase(
      {"meta-blocking", watch.ElapsedMillis(), candidates.size()});

  // ---- Graph + evaluator + schedule ---------------------------------------
  watch.Restart();
  {
    obs::PhaseSpan span(impl->trace.get(), "graph+evaluator");
    impl->BuildResolutionSubstrate();
  }
  impl->EmitPhase(
      {"graph+evaluator", watch.ElapsedMillis(), impl->graph->num_edges()});

  watch.Restart();
  {
    obs::PhaseSpan span(impl->trace.get(), "schedule-priming");
    std::vector<Comparison> seeds;
    if (options.use_same_as_seeds && !collection.same_as_links().empty()) {
      seeds.reserve(collection.same_as_links().size());
      for (const SameAsLink& link : collection.same_as_links()) {
        seeds.emplace_back(link.a, link.b);
      }
    }
    impl->progress.Start();  // curve origin: where budget spending begins
    impl->resolver->Begin(candidates, seeds);
  }
  impl->resolve_millis += watch.ElapsedMillis();

  return ResolutionSession(std::move(impl));
}

StepResult ResolutionSession::Step(uint64_t max_comparisons) {
  obs::PhaseSpan span(impl_->trace.get(), "step");
  const Stopwatch watch;
  StepResult out = impl_->resolver->Step(max_comparisons);
  const double millis = watch.ElapsedMillis();
  RecordLoopCounters(out);
  impl_->resolve_millis += millis;
  out.wall_millis = millis;
  // Close the quality curve at the true totals of this step (the cadence
  // sampler only fires every N comparisons).
  if (impl_->progress.enabled() && out.comparisons > 0) {
    impl_->progress.Sample(comparisons_spent(), matches_found());
  }
  if (obs::MetricsRegistry::Default().enabled()) {
    out.stats = std::make_shared<const obs::StatsSnapshot>(
        obs::MetricsRegistry::Default().Snapshot());
  }
  return out;
}

bool ResolutionSession::exhausted() const {
  return impl_->resolver->exhausted();
}

bool ResolutionSession::finished() const {
  return impl_->resolver->finished();
}

uint64_t ResolutionSession::comparisons_spent() const {
  return impl_->resolver->result().run.comparisons_executed;
}

uint64_t ResolutionSession::matches_found() const {
  return impl_->resolver->result().run.matches.size();
}

const WorkflowOptions& ResolutionSession::options() const {
  return impl_->options;
}

const EntityCollection& ResolutionSession::collection() const {
  return *impl_->collection;
}

ResolutionReport ResolutionSession::Report() const {
  ResolutionReport report;
  report.phases = impl_->phases;
  report.blocks_built = impl_->blocks_built;
  report.blocks_after_cleaning = impl_->blocks_after_cleaning;
  report.comparisons_before_meta = impl_->comparisons_before_meta;
  report.comparisons_after_meta = impl_->comparisons_after_meta;
  report.meta_stats = impl_->meta_stats;
  report.progressive = impl_->resolver->result();
  report.phases.push_back({"progressive-resolution", impl_->resolve_millis,
                           report.progressive.run.matches.size()});
  report.metrics = obs::MetricsRegistry::Default().Snapshot();
  report.progress = impl_->progress.samples();
  return report;
}

obs::StatsReport ResolutionSession::Stats() const {
  obs::StatsReport report;
  report.metrics = obs::MetricsRegistry::Default().Snapshot();
  report.phases.reserve(impl_->phases.size() + 1);
  for (const PhaseStats& phase : impl_->phases) {
    report.phases.push_back(
        {phase.name, phase.millis, phase.output_cardinality});
  }
  report.phases.push_back(
      {"progressive-resolution", impl_->resolve_millis,
       impl_->resolver->result().run.matches.size()});
  report.progress = impl_->progress.samples();
  if (impl_->pool != nullptr) report.pool = impl_->pool->Stats();
  report.peak_rss_bytes = obs::PeakRssBytes();
  return report;
}

void ResolutionSession::WriteStatsJson(std::ostream& out) const {
  obs::WriteStatsJson(out, Stats());
}

void ResolutionSession::WriteTraceJson(std::ostream& out) const {
  if (impl_->trace != nullptr) {
    impl_->trace->WriteChromeTrace(out);
  } else {
    obs::TraceRecorder().WriteChromeTrace(out);
  }
}

Status ResolutionSession::Checkpoint(std::ostream& out) const {
  serde::WriteString(out, kSessionMagic);
  serde::WriteU32(out, impl_->collection->num_entities());
  serde::WriteU32(out, impl_->collection->num_kbs());
  serde::WriteU64(out, impl_->collection->total_triples());
  serde::WriteU64(out, OptionsDigest(impl_->options));

  serde::WriteU64(out, impl_->blocks_built);
  serde::WriteU64(out, impl_->blocks_after_cleaning);
  serde::WriteU64(out, impl_->comparisons_before_meta);
  serde::WriteU64(out, impl_->comparisons_after_meta);
  serde::WriteU64(out, impl_->meta_stats.graph_edges);
  serde::WriteU64(out, impl_->meta_stats.retained_edges);
  serde::WriteDouble(out, impl_->meta_stats.mean_weight);
  serde::WriteU64(out, impl_->meta_stats.nominations);
  serde::WriteU64(out, impl_->meta_stats.distinct_pairs);
  serde::WriteU64(out, impl_->phases.size());
  for (const PhaseStats& phase : impl_->phases) {
    serde::WriteString(out, phase.name);
    serde::WriteDouble(out, phase.millis);
    serde::WriteU64(out, phase.output_cardinality);
  }
  serde::WriteDouble(out, impl_->resolve_millis);
  return impl_->resolver->SaveState(out);
}

Result<ResolutionSession> ResolutionSession::Restore(
    const EntityCollection& collection, const WorkflowOptions& options,
    std::istream& in, MatchObserver* observer) {
  MINOAN_RETURN_IF_ERROR(options.Validate());
  if (!collection.finalized()) {
    return Status::FailedPrecondition("collection not finalized");
  }
  const auto truncated = [] {
    return Status::ParseError("truncated or corrupt session checkpoint");
  };
  std::string magic;
  if (!serde::ReadString(in, magic, kSessionMagic.size())) return truncated();
  if (magic != kSessionMagic) {
    return Status::ParseError("not a MinoanER session checkpoint");
  }
  uint32_t num_entities, num_kbs;
  uint64_t total_triples, digest;
  if (!serde::ReadU32(in, num_entities) || !serde::ReadU32(in, num_kbs) ||
      !serde::ReadU64(in, total_triples) || !serde::ReadU64(in, digest)) {
    return truncated();
  }
  if (num_entities != collection.num_entities() ||
      num_kbs != collection.num_kbs() ||
      total_triples != collection.total_triples()) {
    return Status::InvalidArgument(
        "checkpoint was taken over a different collection (entity/KB/triple "
        "counts differ)");
  }
  if (digest != OptionsDigest(options)) {
    return Status::InvalidArgument(
        "checkpoint was taken with different workflow options; restore with "
        "the options used at checkpoint time");
  }

  auto impl = std::make_unique<Impl>();
  impl->collection = &collection;
  impl->options = options;
  impl->observer = observer;
  if (!serde::ReadU64(in, impl->blocks_built) ||
      !serde::ReadU64(in, impl->blocks_after_cleaning) ||
      !serde::ReadU64(in, impl->comparisons_before_meta) ||
      !serde::ReadU64(in, impl->comparisons_after_meta) ||
      !serde::ReadU64(in, impl->meta_stats.graph_edges) ||
      !serde::ReadU64(in, impl->meta_stats.retained_edges) ||
      !serde::ReadDouble(in, impl->meta_stats.mean_weight) ||
      !serde::ReadU64(in, impl->meta_stats.nominations) ||
      !serde::ReadU64(in, impl->meta_stats.distinct_pairs)) {
    return truncated();
  }
  uint64_t n_phases;
  if (!serde::ReadU64(in, n_phases) || n_phases > 64) return truncated();
  impl->phases.reserve(n_phases);
  for (uint64_t i = 0; i < n_phases; ++i) {
    PhaseStats phase;
    if (!serde::ReadString(in, phase.name, /*max_len=*/256) ||
        !serde::ReadDouble(in, phase.millis) ||
        !serde::ReadU64(in, phase.output_cardinality)) {
      return truncated();
    }
    // EmitPhase, not push_back: the restoring process's observer gets the
    // same phase stream Open produced, as the streaming contract promises.
    impl->EmitPhase(std::move(phase));
  }
  if (!serde::ReadDouble(in, impl->resolve_millis)) return truncated();

  // The static phases' products are pure functions of (collection, options):
  // rebuild them instead of serializing megabytes of graph and TF-IDF
  // vectors, then restore the loop state on top.
  if (options.obs.enable_trace) {
    impl->trace = std::make_unique<obs::TraceRecorder>();
  }
  {
    obs::PhaseSpan span(impl->trace.get(), "restore");
    impl->BuildResolutionSubstrate();
    // Progress samples are not checkpointed (out-of-band): the restored
    // curve starts fresh at the restored comparison totals.
    impl->progress.Start();
    MINOAN_RETURN_IF_ERROR(impl->resolver->LoadState(in));
  }
  return ResolutionSession(std::move(impl));
}

}  // namespace minoan
