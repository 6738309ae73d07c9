// minoan — command-line front end to the MinoanER library.
//
//   minoan generate --out DIR [--entities N] [--kbs N] [--center N]
//                   [--seed S] [--periphery-overlap F]
//       Synthesizes a LOD cloud (N-Triples files + ground truth).
//
//   minoan stats DIR
//       Prints the cloud-structure statistics of the .nt/.ttl files in DIR.
//
//   minoan resolve DIR [--threshold F] [--budget N] [--benefit NAME]
//                  [--seeds] [--threads N] [--pin-threads]
//                  [--blocker NAME] [--filter-ratio F] [--out FILE]
//                  [--step-budget N] [--stream]
//                  [--memory-budget BYTES] [--spill-dir DIR]
//                  [--metrics-out FILE] [--trace-out FILE]
//                  [--progress-every N]
//       Resolves all KBs in DIR and writes discovered owl:sameAs links.
//       --threads N workers load the corpus (N-Triples files are scanned
//       in parallel chunks) and then resolve it; the results are identical
//       at every N. Scores against DIR/ground_truth.tsv when present. With
//       --step-budget N the comparison budget is spent in increments of N
//       through the pay-as-you-go Session API (identical results); with
//       --stream every confirmed match is printed as it is discovered.
//       --memory-budget caps the RAM the shuffles of blocking and pruning
//       may hold (suffixes k/m/g accepted, e.g. 512m). They run the same
//       path either way; the budget only decides when a shard spills a
//       sorted run to a temp file under --spill-dir (default: the system
//       temp dir), with byte-identical results.
//       Observability (out-of-band; results are identical with or without):
//       --metrics-out writes the flat stats JSON (per-phase wall times,
//       progressive-quality curve, pool utilization, spill counters, peak
//       RSS); --trace-out writes a Chrome-trace JSON of the phase spans
//       (load it in chrome://tracing or ui.perfetto.dev); --progress-every N
//       samples the quality curve every N comparisons (defaults to 1000
//       when --metrics-out is given, else off).
//
//   minoan session checkpoint DIR --state FILE [--step-budget N] [opts]
//   minoan session resume     DIR --state FILE [--step-budget N] [opts]
//       Budgeted resolution that survives process restarts: `checkpoint`
//       opens a session, spends --step-budget comparisons, and saves the
//       loop state to FILE; `resume` restores it (same DIR and options
//       required), spends the next increment, and re-saves — repeat until
//       the queue drains, at which point the final report prints. The match
//       sequence is byte-identical to one uninterrupted run.
//
//   minoan serve [--listen HOST:PORT] [--max-sessions N]
//                [--evict-after SECONDS] [--state-dir DIR] [--threads N]
//                [--installment N] [--metrics-out FILE]
//                [--stats-every SECS] [--trace-out FILE] [--event-log FILE]
//                [--slow-request-millis MS]
//       Runs the resolution service (multi-tenant session server). The
//       observability plane is out-of-band — served results are identical
//       with or without it. --metrics-out writes the stats JSON (process
//       counters plus the per-tenant breakdown under "tenants");
//       --stats-every N re-exports a rolling snapshot every N seconds via
//       atomic rename, so a scraper never reads a torn file; --trace-out
//       records each request as a Chrome-trace span tagged with request and
//       session id; --event-log writes a JSONL ring of slow requests,
//       evictions, and restores; --slow-request-millis sets the slowness
//       threshold (default 250).
//
//   minoan connect [--port N [--host H]] [--script FILE]
//       Runs a command script (or stdin) against the resolution service;
//       the grammar is in server/script.h. With --port it talks to a
//       running `minoan serve`. Without, it starts a server in this process
//       (127.0.0.1, an ephemeral port, the ServerOptions defaults and a
//       private temporary state dir removed on exit), so one script prints
//       the same bytes either way. `stats` prints the live/total session
//       counts; `stats --full` renders the whole registry snapshot plus
//       the per-tenant table.
//
// All subcommands are deterministic for a fixed seed.

#include <unistd.h>

#include <cerrno>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "core/minoan_er.h"
#include "core/session.h"
#include "datagen/lod_generator.h"
#include "eval/cluster_metrics.h"
#include "eval/ground_truth.h"
#include "eval/metrics.h"
#include "kb/stats.h"
#include "matching/matcher.h"
#include "obs/report.h"
#include "server/client.h"
#include "server/script.h"
#include "server/server.h"
#include "util/atomic_file.h"
#include "util/cli_flags.h"
#include "util/table.h"

using namespace minoan;  // NOLINT

namespace {

using cli::Flags;

/// A typo like --theshold must stop the run, not be silently ignored while
/// the verb proceeds with defaults. Returns false after printing the
/// specific offending flags; callers exit 2.
bool CheckFlags(const char* verb, const Flags& flags,
                std::initializer_list<std::string_view> allowed) {
  const std::vector<std::string> unknown = flags.UnknownFlags(allowed);
  if (unknown.empty()) return true;
  for (const std::string& name : unknown) {
    std::fprintf(stderr, "error: unknown flag --%s for 'minoan %s'\n",
                 name.c_str(), verb);
  }
  std::fprintf(stderr, "run 'minoan' without arguments for usage\n");
  return false;
}

/// Flags shared by resolve and session (the workflow surface).
const std::initializer_list<std::string_view> kResolveFlags = {
    "threshold",     "budget",      "benefit",     "seeds",
    "threads",       "pin-threads", "filter-ratio", "out",
    "step-budget",   "stream",      "memory-budget", "spill-dir",
    "metrics-out",   "trace-out",   "progress-every", "state",
    "blocker"};

int Fail(const Status& status) {
  std::fprintf(stderr, "error: %s\n", status.ToString().c_str());
  return 1;
}

/// A malformed flag value: its message, exit code 2.
int UsageError(const Status& status) {
  std::fprintf(stderr, "error: %s\n", status.message().c_str());
  return 2;
}

/// Loads DIR through the shared corpus loader on `num_threads` workers and
/// lists its KBs.
Result<EntityCollection> LoadAndListCorpus(const std::string& dir,
                                           uint32_t num_threads = 1) {
  MINOAN_ASSIGN_OR_RETURN(EntityCollection collection,
                          LoadCorpusDirectory(dir, num_threads));
  for (uint32_t kb = 0; kb < collection.num_kbs(); ++kb) {
    std::printf("  %-26s %8llu triples -> KB %u\n",
                collection.kb(kb).name.c_str(),
                static_cast<unsigned long long>(collection.kb(kb).triples), kb);
  }
  return collection;
}

/// --NAME N: a whole number in [0, max], `fallback` when absent. Callers
/// turn an error into exit code 2.
Result<uint32_t> UintFlag(const std::string& verb, const Flags& flags,
                          const std::string& name, uint32_t fallback,
                          uint32_t max = UINT32_MAX) {
  MINOAN_ASSIGN_OR_RETURN(
      const uint64_t value,
      cli::ParseUint(verb + ": --" + name,
                     flags.Get(name, std::to_string(fallback)), max));
  return static_cast<uint32_t>(value);
}

int CmdGenerate(const Flags& flags) {
  if (!CheckFlags("generate", flags,
                  {"out", "entities", "kbs", "center", "seed",
                   "periphery-overlap", "sameas-rate"})) {
    return 2;
  }
  const std::string out = flags.Get("out", "");
  if (out.empty()) {
    std::fprintf(stderr, "generate requires --out DIR\n");
    return 2;
  }
  const Result<uint32_t> entities =
      UintFlag("generate", flags, "entities", 2000);
  const Result<uint32_t> kbs = UintFlag("generate", flags, "kbs", 6);
  const Result<uint32_t> center = UintFlag("generate", flags, "center", 2);
  for (const Result<uint32_t>* count : {&entities, &kbs, &center}) {
    if (!count->ok()) return UsageError(count->status());
  }
  datagen::LodCloudConfig config;
  config.seed = flags.GetInt("seed", 42);
  config.num_real_entities = *entities;
  config.num_kbs = *kbs;
  config.center_kbs = *center;
  config.periphery_token_overlap =
      flags.GetDouble("periphery-overlap", config.periphery_token_overlap);
  config.same_as_rate = flags.GetDouble("sameas-rate", config.same_as_rate);
  auto cloud = datagen::GenerateLodCloud(config);
  if (!cloud.ok()) return Fail(cloud.status());
  if (Status st = cloud->WriteTo(out); !st.ok()) return Fail(st);
  std::printf("wrote %u KBs (%llu triples, %zu truth pairs) to %s\n",
              config.num_kbs,
              static_cast<unsigned long long>(cloud->total_triples()),
              cloud->truth.size(), out.c_str());
  return 0;
}

int CmdStats(const Flags& flags) {
  if (!CheckFlags("stats", flags, {})) return 2;
  if (flags.positional().empty()) {
    std::fprintf(stderr, "stats requires a directory\n");
    return 2;
  }
  auto collection = LoadAndListCorpus(flags.positional()[0]);
  if (!collection.ok()) return Fail(collection.status());
  const CloudStats stats = ComputeCloudStats(*collection);
  Table summary({"metric", "value"});
  summary.AddRow().Cell("knowledge bases").Cell(uint64_t{stats.num_kbs});
  summary.AddRow().Cell("descriptions").Cell(uint64_t{stats.num_entities});
  summary.AddRow().Cell("triples").Cell(stats.num_triples);
  summary.AddRow().Cell("owl:sameAs links").Cell(stats.num_same_as);
  summary.AddRow().Cell("vocabularies").Cell(uint64_t{stats.num_vocabularies});
  summary.AddRow()
      .Cell("proprietary vocabularies")
      .Cell(FormatPercent(stats.proprietary_ratio));
  summary.AddRow().Cell("link Gini").Cell(stats.link_gini, 3);
  summary.AddRow()
      .Cell("top-decile link share")
      .Cell(FormatPercent(stats.top_decile_link_share));
  summary.Print(std::cout);

  Table per_kb({"kb", "entities", "triples", "out_links", "in_links",
                "partners"});
  for (const KbLinkStats& kb : stats.per_kb) {
    per_kb.AddRow()
        .Cell(kb.name)
        .Cell(uint64_t{kb.entities})
        .Cell(kb.triples)
        .Cell(kb.out_links)
        .Cell(kb.in_links)
        .Cell(uint64_t{kb.linked_kbs});
  }
  per_kb.Print(std::cout);
  return 0;
}

Result<BenefitModel> ParseBenefit(const std::string& verb,
                                  const std::string& name) {
  if (name == "quantity") return BenefitModel::kQuantity;
  if (name == "attr") return BenefitModel::kAttributeCompleteness;
  if (name == "coverage") return BenefitModel::kEntityCoverage;
  if (name == "relationship") return BenefitModel::kRelationshipCompleteness;
  return Status::InvalidArgument(
      verb + ": --benefit must be one of quantity|attr|coverage|relationship, "
             "got \"" + name + "\"");
}

/// The blocker whose BlockerChoiceName is `name`.
Result<BlockerChoice> ParseBlocker(const std::string& verb,
                                   const std::string& name) {
  std::string names;
  for (uint32_t i = 0; i < kNumBlockerChoices; ++i) {
    const auto choice = static_cast<BlockerChoice>(i);
    if (BlockerChoiceName(choice) == name) return choice;
    names += (i > 0 ? "|" : "") + std::string(BlockerChoiceName(choice));
  }
  return Status::InvalidArgument(verb + ": --blocker must be one of " + names +
                                 ", got \"" + name + "\"");
}

/// Workflow options shared by `resolve` and `session`. An invalid flag value
/// is a non-OK Status with a specific message; callers exit 2.
Result<WorkflowOptions> ParseWorkflowOptions(const std::string& verb,
                                             const Flags& flags) {
  WorkflowOptions options;
  options.progressive.matcher.threshold = flags.GetDouble("threshold", 0.35);
  options.progressive.matcher.budget = flags.GetInt("budget", 0);
  // --benefit defaults to the library's model, the one a served batch
  // session runs, so `minoan resolve DIR` and a served session over DIR
  // write the same links.
  MINOAN_ASSIGN_OR_RETURN(options.progressive.benefit,
                          ParseBenefit(verb, flags.Get("benefit", "quantity")));
  options.use_same_as_seeds = flags.Has("seeds");
  options.filter_ratio =
      flags.GetDouble("filter-ratio", options.filter_ratio);
  // --blocker NAME: which blocking method starts the workflow. Every choice
  // runs under --memory-budget with byte-identical output to its in-memory
  // run (the character-level methods included).
  MINOAN_ASSIGN_OR_RETURN(
      options.blocker, ParseBlocker(verb, flags.Get("blocker", "token+pis")));
  // --memory-budget N[k|m|g]: cap on the in-RAM shuffle state of blocking
  // and pruning; it only decides when a shard spills a sorted run under
  // --spill-dir. Deterministic: the resolution result is byte-identical
  // either way.
  options.memory.shuffle_budget_bytes = flags.GetByteSize("memory-budget", 0);
  options.memory.spill_dir = flags.Get("spill-dir", "");
  if (!options.memory.spill_dir.empty() && !options.memory.enabled()) {
    return Status::InvalidArgument(
        verb + ": --spill-dir has no effect without --memory-budget");
  }
  // --threads N: worker count (0 = hardware concurrency), for loading the
  // corpus and for resolving it. Deterministic: the collection and the
  // resolution result are identical for every value.
  MINOAN_ASSIGN_OR_RETURN(options.num_threads,
                          UintFlag(verb, flags, "threads", 1, 1024));
  // --pin-threads: pin pool workers to cores (Linux; no-op elsewhere).
  // A cache-placement hint only — results are identical either way.
  options.pin_threads = flags.Has("pin-threads");
  // Observability: --trace-out switches phase-span recording on;
  // --progress-every sets the quality-curve cadence (default 1000 when a
  // metrics file was requested, so --metrics-out alone yields a curve).
  options.obs.enable_trace = flags.Has("trace-out");
  options.obs.progress_every =
      flags.GetInt("progress-every", flags.Has("metrics-out") ? 1000 : 0);
  if (Status st = options.Validate(); !st.ok()) {
    return Status(st.code(), verb + ": " + st.message());
  }
  return options;
}

/// Writes the --metrics-out / --trace-out files when requested. Called
/// after the run (resolve) or after the final/partial step (session).
int WriteObsOutputs(const Flags& flags, const ResolutionSession& session) {
  const std::string metrics_path = flags.Get("metrics-out", "");
  if (!metrics_path.empty()) {
    const Result<uint64_t> written =
        WriteFileAtomic(metrics_path, [&](std::ostream& out) {
          session.WriteStatsJson(out);
          return Status::Ok();
        });
    if (!written.ok()) return Fail(written.status());
    std::printf("wrote run stats to %s\n", metrics_path.c_str());
  }
  const std::string trace_path = flags.Get("trace-out", "");
  if (!trace_path.empty()) {
    const Result<uint64_t> written =
        WriteFileAtomic(trace_path, [&](std::ostream& out) {
          session.WriteTraceJson(out);
          return Status::Ok();
        });
    if (!written.ok()) return Fail(written.status());
    std::printf("wrote phase trace to %s (open in chrome://tracing or "
                "ui.perfetto.dev)\n",
                trace_path.c_str());
  }
  return 0;
}

/// --stream sink: prints every confirmed match the moment it lands.
class StreamingObserver : public MatchObserver {
 public:
  explicit StreamingObserver(const EntityCollection& collection)
      : collection_(&collection) {}

  void OnPhase(const PhaseStats& phase) override {
    std::printf("phase %-22s %10.2f ms  %llu\n", phase.name.c_str(),
                phase.millis,
                static_cast<unsigned long long>(phase.output_cardinality));
  }

  void OnMatch(const MatchEvent& event) override {
    std::printf("match @%-8llu %.3f  %s  <->  %s\n",
                static_cast<unsigned long long>(event.comparisons_done),
                event.similarity,
                std::string(collection_->EntityIri(event.a)).c_str(),
                std::string(collection_->EntityIri(event.b)).c_str());
  }

 private:
  const EntityCollection* collection_;
};

/// Shared tail of `resolve` and `session resume`: summary, scoring against
/// ground truth when present, and the discovered-links file.
int ReportAndWriteLinks(const std::string& dir, const Flags& flags,
                        const EntityCollection& collection,
                        const ResolutionReport& report) {
  std::cout << report.Summary();

  const std::string truth_path = dir + "/ground_truth.tsv";
  if (std::filesystem::exists(truth_path)) {
    auto truth = GroundTruth::FromTsv(truth_path, collection);
    if (truth.ok()) {
      const MatchingMetrics m =
          EvaluateMatches(report.progressive.run.matches, *truth);
      const ClusterMetrics c = EvaluateClusters(report.progressive.run, *truth);
      std::printf("pairs:   precision %.4f recall %.4f F1 %.4f\n",
                  m.precision, m.recall, m.f1);
      std::printf("b-cubed: precision %.4f recall %.4f F1 %.4f\n",
                  c.bcubed_precision, c.bcubed_recall, c.bcubed_f1);
    }
  }

  const std::string out = flags.Get("out", "discovered_links.nt");
  size_t links = 0;
  const Result<uint64_t> written =
      WriteFileAtomic(out, [&](std::ostream& stream) {
        links = WriteSameAsLinks(report.progressive.run.matches, collection,
                                 stream);
        return Status::Ok();
      });
  if (!written.ok()) return Fail(written.status());
  std::printf("wrote %zu links to %s\n", links, out.c_str());
  return 0;
}

int CmdResolve(const Flags& flags) {
  if (!CheckFlags("resolve", flags, kResolveFlags)) return 2;
  if (flags.positional().empty()) {
    std::fprintf(stderr, "resolve requires a directory\n");
    return 2;
  }
  const std::string dir = flags.positional()[0];
  auto options = ParseWorkflowOptions("resolve", flags);
  if (!options.ok()) return UsageError(options.status());
  auto collection = LoadAndListCorpus(dir, options->num_threads);
  if (!collection.ok()) return Fail(collection.status());

  StreamingObserver streamer(*collection);
  MatchObserver* observer = flags.Has("stream") ? &streamer : nullptr;
  auto session = ResolutionSession::Open(*collection, *options, observer);
  if (!session.ok()) return Fail(session.status());

  const uint64_t step_budget = flags.GetInt("step-budget", 0);
  if (step_budget == 0) {
    session->Step(0);
  } else {
    // Pay-as-you-go: spend the budget in increments. Byte-identical to the
    // one-shot run — the table below is the same either way. finished()
    // also covers the overall --budget cap (which is not exhaustion).
    uint32_t steps = 0;
    while (!session->finished()) {
      const StepResult step = session->Step(step_budget);
      ++steps;
      std::printf("step %-4u +%llu comparisons, +%zu matches "
                  "(%llu / %llu total)\n",
                  steps, static_cast<unsigned long long>(step.comparisons),
                  step.matches.size(),
                  static_cast<unsigned long long>(
                      session->comparisons_spent()),
                  static_cast<unsigned long long>(session->matches_found()));
    }
  }
  if (int rc = WriteObsOutputs(flags, *session); rc != 0) return rc;
  return ReportAndWriteLinks(dir, flags, *collection,
                             session->Report());
}

int CmdSession(const Flags& flags) {
  if (!CheckFlags("session", flags, kResolveFlags)) return 2;
  if (flags.positional().size() < 2) {
    std::fprintf(stderr,
                 "usage: minoan session checkpoint|resume DIR --state FILE "
                 "[--step-budget N] [resolve options]\n");
    return 2;
  }
  const std::string verb = flags.positional()[0];
  const std::string dir = flags.positional()[1];
  const std::string state_path = flags.Get("state", "");
  if (state_path.empty()) {
    std::fprintf(stderr, "session %s requires --state FILE\n", verb.c_str());
    return 2;
  }
  if (verb != "checkpoint" && verb != "resume") {
    std::fprintf(stderr, "unknown session verb: %s\n", verb.c_str());
    return 2;
  }
  auto options = ParseWorkflowOptions("session " + verb, flags);
  if (!options.ok()) return UsageError(options.status());
  auto collection = LoadAndListCorpus(dir, options->num_threads);
  if (!collection.ok()) return Fail(collection.status());

  StreamingObserver streamer(*collection);
  MatchObserver* observer = flags.Has("stream") ? &streamer : nullptr;

  Result<ResolutionSession> session = Status::Internal("unset");
  if (verb == "checkpoint") {
    session = ResolutionSession::Open(*collection, *options, observer);
  } else {
    std::ifstream in(state_path, std::ios::binary);
    if (!in) return Fail(Status::IoError("cannot read " + state_path));
    session = ResolutionSession::Restore(*collection, *options, in, observer);
  }
  if (!session.ok()) return Fail(session.status());

  const uint64_t step_budget = flags.GetInt("step-budget", 10000);
  const StepResult step = session->Step(step_budget);
  std::printf("spent %llu comparisons, +%zu matches "
              "(%llu comparisons, %llu matches total)\n",
              static_cast<unsigned long long>(step.comparisons),
              step.matches.size(),
              static_cast<unsigned long long>(session->comparisons_spent()),
              static_cast<unsigned long long>(session->matches_found()));

  if (int rc = WriteObsOutputs(flags, *session); rc != 0) return rc;
  if (session->finished()) {
    std::printf("%s; final report:\n", session->exhausted()
                                           ? "queue drained"
                                           : "workflow budget consumed");
    return ReportAndWriteLinks(dir, flags, *collection, session->Report());
  }
  const Result<uint64_t> saved = WriteFileAtomic(
      state_path, [&](std::ostream& out) { return session->Checkpoint(out); });
  if (!saved.ok()) return Fail(saved.status());
  std::printf("session state saved to %s — continue with:\n"
              "  minoan session resume %s --state %s\n",
              state_path.c_str(), dir.c_str(), state_path.c_str());
  return 0;
}

/// Self-pipe for signal-driven shutdown: the handler only writes a byte;
/// the serve loop blocks reading the other end.
int g_shutdown_pipe[2] = {-1, -1};

void HandleShutdownSignal(int) {
  const char byte = 1;
  // Best effort; a full pipe means a shutdown is already pending.
  [[maybe_unused]] const ssize_t n = write(g_shutdown_pipe[1], &byte, 1);
}

int CmdServe(const Flags& flags) {
  if (!CheckFlags("serve", flags,
                  {"listen", "max-sessions", "evict-after", "state-dir",
                   "threads", "installment", "metrics-out", "stats-every",
                   "trace-out", "event-log", "slow-request-millis"})) {
    return 2;
  }
  server::ServerOptions options;
  const std::string listen = flags.Get("listen", "127.0.0.1:7411");
  const size_t colon = listen.rfind(':');
  if (colon == std::string::npos) {
    std::fprintf(stderr, "error: --listen expects HOST:PORT, got \"%s\"\n",
                 listen.c_str());
    return 2;
  }
  options.host = listen.substr(0, colon);
  const Result<uint64_t> port =
      cli::ParseUint("--listen port", listen.substr(colon + 1), 65535);
  if (!port.ok()) return UsageError(port.status());
  options.port = static_cast<uint16_t>(*port);
  options.max_sessions = flags.GetInt("max-sessions", 64);
  options.evict_after_seconds = flags.GetDouble("evict-after", 0);
  options.state_dir = flags.Get("state-dir", "/tmp/minoan-serve");
  const Result<uint32_t> threads =
      UintFlag("serve", flags, "threads", 1, 1024);
  if (!threads.ok()) return UsageError(threads.status());
  options.num_threads = *threads;
  options.installment = flags.GetInt("installment", 2048);
  // The observability plane: the server owns every export (rolling +
  // shutdown snapshots, trace, event log), so the files carry the
  // per-tenant breakdown the CLI could not reconstruct on its own.
  options.stats_path = flags.Get("metrics-out", "");
  options.stats_every_seconds = flags.GetDouble("stats-every", 0);
  options.trace_path = flags.Get("trace-out", "");
  options.event_log_path = flags.Get("event-log", "");
  options.slow_request_millis = flags.GetDouble("slow-request-millis", 250);
  if (options.stats_every_seconds > 0 && options.stats_path.empty() &&
      options.event_log_path.empty()) {
    std::fprintf(stderr,
                 "error: --stats-every needs --metrics-out or --event-log\n");
    return 2;
  }

  auto server = server::Server::Start(options);
  if (!server.ok()) return Fail(server.status());
  // CI and scripts parse this line for the resolved (port-0) port.
  std::printf("serving on %s:%u (state-dir %s, max-sessions %llu, "
              "evict-after %.3gs, threads %u)\n",
              options.host.c_str(), (*server)->port(),
              options.state_dir.c_str(),
              static_cast<unsigned long long>(options.max_sessions),
              options.evict_after_seconds,
              ResolveThreadCount(options.num_threads));
  std::fflush(stdout);

  if (pipe(g_shutdown_pipe) != 0) {
    return Fail(Status::IoError("cannot create shutdown pipe"));
  }
  std::signal(SIGINT, HandleShutdownSignal);
  std::signal(SIGTERM, HandleShutdownSignal);
  char byte = 0;
  while (read(g_shutdown_pipe[0], &byte, 1) < 0 && errno == EINTR) {
  }
  std::printf("shutting down\n");
  // Shutdown writes the final stats/trace/event-log installments itself.
  (*server)->Shutdown();
  if (!options.stats_path.empty()) {
    std::printf("wrote server stats to %s\n", options.stats_path.c_str());
  }
  if (!options.trace_path.empty()) {
    std::printf("wrote server trace to %s\n", options.trace_path.c_str());
  }
  if (!options.event_log_path.empty()) {
    std::printf("wrote server events to %s\n", options.event_log_path.c_str());
  }
  return 0;
}

/// Connects to HOST:PORT and runs the script there.
Status RunScriptAt(const std::string& host, uint16_t port,
                   std::istream& script) {
  MINOAN_ASSIGN_OR_RETURN(const auto client,
                          server::Client::Connect(host, port));
  return server::RunScript(*client, script, std::cout);
}

/// Runs the script against a server started in this process: 127.0.0.1:0,
/// the ServerOptions defaults, and a private state dir removed on exit.
Status RunScriptInProcess(std::istream& script) {
  std::error_code ec;
  std::string state_dir =
      (std::filesystem::temp_directory_path(ec) / "minoan-connect-XXXXXX")
          .string();
  if (ec || mkdtemp(state_dir.data()) == nullptr) {
    return Status::IoError("cannot create a state dir like " + state_dir);
  }
  // Removes the dir on every exit path, after the server below shut down.
  const auto remove_dir = [](const std::string* dir) {
    std::error_code ignored;
    std::filesystem::remove_all(*dir, ignored);
  };
  const std::unique_ptr<const std::string, decltype(remove_dir)> cleanup(
      &state_dir, remove_dir);
  server::ServerOptions options;
  options.state_dir = state_dir;
  MINOAN_ASSIGN_OR_RETURN(const auto server, server::Server::Start(options));
  return RunScriptAt(options.host, server->port(), script);
}

int CmdConnect(const Flags& flags) {
  if (!CheckFlags("connect", flags, {"host", "port", "script"})) return 2;
  const bool served = flags.Has("port");
  if (flags.Has("host") && !served) {
    std::fprintf(stderr, "connect: --host needs --port\n");
    return 2;
  }
  const uint64_t port = flags.GetInt("port", 0);
  if (served && (port == 0 || port > 65535)) {
    std::fprintf(stderr, "connect requires --port (1..65535)\n");
    return 2;
  }
  std::ifstream file;
  const std::string script_path = flags.Get("script", "");
  if (!script_path.empty()) {
    file.open(script_path);
    if (!file) return Fail(Status::IoError("cannot read " + script_path));
  }
  std::istream& in = script_path.empty() ? std::cin : file;
  const Status status =
      served ? RunScriptAt(flags.Get("host", "127.0.0.1"),
                           static_cast<uint16_t>(port), in)
             : RunScriptInProcess(in);
  if (!status.ok()) return Fail(status);
  return 0;
}

void Usage() {
  std::fprintf(stderr,
               "usage: minoan <command> [options]\n"
               "  generate --out DIR [--entities N --kbs N --center N "
               "--seed S]\n"
               "  stats DIR\n"
               "  resolve DIR [--threshold F --budget N --benefit "
               "quantity|attr|coverage|relationship --seeds --threads N "
               "--pin-threads --filter-ratio F --step-budget N --stream "
               "--out FILE "
               "--blocker token|pis|attr-cluster|token+pis|qgram|sorted-nbhd "
               "--memory-budget N[k|m|g] --spill-dir DIR "
               "--metrics-out FILE --trace-out FILE --progress-every N]\n"
               "  session checkpoint|resume DIR --state FILE "
               "[--step-budget N + resolve options]\n"
               "  serve [--listen HOST:PORT --max-sessions N "
               "--evict-after SECONDS --state-dir DIR --threads N "
               "--installment N --metrics-out FILE --stats-every SECS "
               "--trace-out FILE --event-log FILE --slow-request-millis MS]\n"
               "  connect [--port N [--host H]] [--script FILE] "
               "(no --port: an in-process server; "
               "stats --full prints the per-tenant breakdown)\n");
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) {
    Usage();
    return 2;
  }
  const Flags flags(argc, argv, 2);
  if (std::strcmp(argv[1], "generate") == 0) return CmdGenerate(flags);
  if (std::strcmp(argv[1], "stats") == 0) return CmdStats(flags);
  if (std::strcmp(argv[1], "resolve") == 0) return CmdResolve(flags);
  if (std::strcmp(argv[1], "session") == 0) return CmdSession(flags);
  if (std::strcmp(argv[1], "serve") == 0) return CmdServe(flags);
  if (std::strcmp(argv[1], "connect") == 0) return CmdConnect(flags);
  Usage();
  return 2;
}
