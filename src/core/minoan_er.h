// Copyright 2026 The MinoanER Authors.
// The MinoanER facade: the end-to-end pipeline of Figure 1.
//
//   Blocking → (block cleaning) → Meta-blocking → Scheduling → Entity
//   Matching → Update → … until the cost budget is consumed.
//
// One call to MinoanEr::Run executes the whole workflow over a finalized
// EntityCollection and returns a ResolutionReport with per-phase counters,
// timings, and the full progressive run (for evaluation).

#ifndef MINOAN_CORE_MINOAN_ER_H_
#define MINOAN_CORE_MINOAN_ER_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "blocking/block.h"
#include "blocking/block_cleaning.h"
#include "blocking/blocking_method.h"
#include "blocking/char_blocking.h"
#include "extmem/memory_budget.h"
#include "kb/collection.h"
#include "kb/neighbor_graph.h"
#include "matching/similarity_evaluator.h"
#include "metablocking/meta_blocking.h"
#include "obs/metrics.h"
#include "obs/progress.h"
#include "progressive/resolver.h"
#include "util/status.h"

namespace minoan {

/// Which blocking method(s) the workflow starts from.
enum class BlockerChoice {
  kToken = 0,
  kPis = 1,
  kAttributeClustering = 2,
  kTokenPlusPis = 3,  ///< MinoanER's Web-of-Data default
  kQGram = 4,
  kSortedNeighborhood = 5,
};

std::string_view BlockerChoiceName(BlockerChoice choice);

/// Observability knobs. Out-of-band by contract: these settings are
/// deliberately EXCLUDED from the session options digest, so a checkpoint
/// taken with tracing on restores under any observability configuration —
/// instrumentation never shapes (or gates) the resolution trajectory.
struct ObsOptions {
  /// Record phase spans into a TraceRecorder for Chrome-trace export
  /// (ResolutionSession::WriteTraceJson). Off by default.
  bool enable_trace = false;
  /// Progressive-quality sampling cadence in comparisons (0 = off): every N
  /// executed comparisons the session records one (comparisons, matches,
  /// elapsed) point of the paper's quality curve.
  uint64_t progress_every = 0;
};

/// Full workflow configuration with Web-of-Data defaults.
struct WorkflowOptions {
  BlockerChoice blocker = BlockerChoice::kTokenPlusPis;
  TokenBlocking::Options token_options;
  PisBlocking::Options pis_options;
  AttributeClusteringBlocking::Options attr_options;
  QGramBlocking::Options qgram_options;
  SortedNeighborhoodBlocking::Options sn_options;

  /// Block cleaning between blocking and meta-blocking.
  bool auto_purge = true;
  /// Block-filtering ratio in (0, 1]; exactly 1 disables filtering.
  /// Values outside (0, 1] are rejected by Validate().
  double filter_ratio = 0.8;

  bool enable_meta_blocking = true;
  MetaBlockingOptions meta;

  SimilarityOptions similarity;
  ProgressiveOptions progressive;

  /// Treat the collection's existing owl:sameAs interlinks as trusted
  /// warm-start seeds: they enter the resolution state at zero budget cost
  /// and their neighborhoods gain evidence before matching starts.
  bool use_same_as_seeds = false;

  /// Workflow-wide external-memory budget: fans out to the blocking
  /// postings shuffle and (when meta.memory is left disabled) the
  /// meta-blocking vote shards. Disabled by default; when enabled, both
  /// shuffles spill sorted runs to temp files under
  /// `memory.shuffle_budget_bytes` and the results are byte-identical to
  /// the in-memory path. CLI: --memory-budget / --spill-dir.
  extmem::MemoryBudgetOptions memory;

  /// Workflow-wide worker-thread count: fans out to blocking (inverted-index
  /// construction), graph-view construction, meta-blocking pruning, and the
  /// initial candidate-scoring pass, and is applied to every phase that
  /// still has its own knob at the default (meta.num_threads,
  /// progressive.num_threads). 1 = single-threaded (default), 0 = hardware
  /// concurrency. Every phase is deterministic in the thread count, so the
  /// report is identical for every value.
  uint32_t num_threads = 1;

  /// Pin pool workers to CPU cores (Linux; no-op elsewhere) so per-worker
  /// scratch stays in one core's cache. CLI: --pin-threads. A placement
  /// hint like num_threads: results are identical either way, so it is
  /// excluded from the checkpoint options digest.
  bool pin_threads = false;

  /// Observability (phase tracing, progress sampling). Never part of the
  /// checkpoint options digest; see ObsOptions.
  ObsOptions obs;

  /// Range-checks every knob and returns the first violation with a
  /// specific message (e.g. "filter_ratio must be in (0, 1], got -2").
  /// Called by ResolutionSession::Open and the CLI; library users building
  /// options programmatically should call it too.
  Status Validate() const;
};

/// Instantiates the configured blocking method(s) for one workflow run.
std::unique_ptr<BlockingMethod> MakeWorkflowBlocker(
    const WorkflowOptions& options);

/// Wall-time and cardinality accounting per pipeline phase.
struct PhaseStats {
  std::string name;
  double millis = 0.0;
  uint64_t output_cardinality = 0;  // blocks / comparisons / matches
};

/// Everything one run produces.
struct ResolutionReport {
  std::vector<PhaseStats> phases;
  uint64_t blocks_built = 0;
  uint64_t blocks_after_cleaning = 0;
  uint64_t comparisons_before_meta = 0;  // aggregate cardinality
  uint64_t comparisons_after_meta = 0;   // retained distinct pairs
  MetaBlockingStats meta_stats;
  ProgressiveResult progressive;

  /// Merged metrics-registry snapshot at report time (spill counters,
  /// blocking/prune shard telemetry, online counters — whatever ran).
  obs::StatsSnapshot metrics;
  /// Progressive-quality curve samples (empty unless obs.progress_every
  /// was set).
  std::vector<obs::ProgressSample> progress;

  /// Pretty-prints the per-phase summary.
  std::string Summary() const;
};

/// The one-shot pipeline driver: a thin wrapper over ResolutionSession
/// (Open + Step to exhaustion + Report). Reusable across collections;
/// stateless between runs. For budgeted stepping, streaming output, or
/// checkpoint/restore, use ResolutionSession (core/session.h) directly.
class MinoanEr {
 public:
  explicit MinoanEr(WorkflowOptions options) : options_(options) {}
  MinoanEr() : options_{} {}

  /// Runs the full workflow. The collection must be finalized.
  Result<ResolutionReport> Run(const EntityCollection& collection) const;

  const WorkflowOptions& options() const { return options_; }

 private:
  WorkflowOptions options_;
};

}  // namespace minoan

#endif  // MINOAN_CORE_MINOAN_ER_H_
