#!/usr/bin/env python3
"""Benchmark of record for MinoanER.

    python3 perfbench/run.py --workload batch-loop --seed 7 --seconds 20 --trace 0
    python3 perfbench/run.py --selftest

Builds libminoan and the harness from this checkout (perfbench/CMakeLists.txt
into .bench_build/), generates the workload's inputs from --seed with
datagen, runs it, checks its outputs, and prints every metric by name with
its unit. The last line of standard output is one JSON object:

    {"correct": bool, "attempted": int, "failed": int,
     "metrics": {name: {"value": number, "unit": str}, ...}}

--trace 0 measures end to end: untraced repetitions, each a fresh process,
until --seconds have passed; every metric is the median over repetitions
(latency percentiles pool the samples of all repetitions). --trace 1 is the
separate traced run: spans around every call the harness makes into a
layer, reduced here to per-layer self time, parallel efficiency, CPU time
and minor faults. Why each workload exists, and which metric each layer
should move, is in perfbench/README.md.

Everything the run writes stays under .bench_build/ and .bench_work/ of
this checkout; the generated corpora are deleted when the run ends.
"""

import argparse
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
WORK = os.path.join(ROOT, ".bench_work")
HARNESS = os.path.join(BUILD, "minoan_perfbench")

WORKLOADS = ("batch-loop", "batch-spill", "served-mix")

# End-to-end metrics (BENCHMARK.json "end_to_end"), in print order.
E2E = (
    ("setup_s", "s"),
    ("resolve_s", "s"),
    ("half_matches_s", "s"),
    ("peak_rss_mb", "MiB"),
    ("recall_auc", "ratio"),
    ("step_p50_ms", "ms"),
)

# Spans whose CPU time and minor faults are reported per layer.
SPAN_NAMES = (
    "rdf.parse", "kb.build", "kb.graph", "blocking.build", "blocking.clean",
    "metablocking.prune", "matching.evaluator", "progressive.begin",
    "progressive.step", "online.ingest", "online.resolve", "online.query",
    "server.step", "server.ingest", "server.resolve", "server.query",
)

# Per-layer metrics (BENCHMARK.json "per_layer"). A layer a workload does
# not exercise reads 0 (no extmem spill in batch-loop, no online engine in
# the batch workloads, no parallel efficiency for the 1-thread served bulk).
PER_LAYER = (
    ("rdf.parse_s", "s"), ("rdf.triples_per_s", "1/s"),
    ("kb.build_s", "s"), ("kb.graph_s", "s"),
    ("blocking.build_s", "s"), ("blocking.build_eff", "ratio"),
    ("blocking.build_eff_cpu", "ratio"), ("blocking.clean_s", "s"),
    ("blocking.clean_eff", "ratio"), ("blocking.clean_eff_cpu", "ratio"),
    ("blocking.emissions", "count"), ("blocking.kept_ratio", "ratio"),
    ("metablocking.prune_s", "s"), ("metablocking.prune_eff", "ratio"),
    ("metablocking.prune_eff_cpu", "ratio"), ("metablocking.edges", "count"),
    ("metablocking.retained_ratio", "ratio"),
    ("extmem.spill_bytes", "bytes"), ("extmem.runs", "count"),
    ("extmem.cascade_merges", "count"),
    ("matching.evaluator_s", "s"), ("matching.similarity_ns", "ns"),
    ("progressive.begin_s", "s"), ("progressive.begin_eff", "ratio"),
    ("progressive.begin_eff_cpu", "ratio"), ("progressive.step_s", "s"),
    ("progressive.ns_per_comparison", "ns"),
    ("progressive.match_ratio", "ratio"),
    ("progressive.pushes_per_comparison", "ratio"),
    ("pool.busy_s", "s"), ("pool.queue_wait_s", "s"),
    ("pool.wait_per_busy", "ratio"),
    ("online.ingest_us_per_entity", "us"),
    ("online.resolve_ns_per_comparison", "ns"), ("online.query_us", "us"),
    ("server.request_us_p50", "us"), ("server.step_overhead_us", "us"),
    ("server.ingest_overhead_us", "us"), ("server.query_overhead_us", "us"),
    ("ingest_p50_ms", "ms"), ("ingest_p99_ms", "ms"),
    ("feed_resolve_p50_ms", "ms"), ("query_p50_ms", "ms"),
    ("query_p99_ms", "ms"),
    ("core.open_s", "s"), ("core.phase_gap_ms", "ms"),
    ("core.uncovered_s", "s"), ("core.uncovered_ratio", "ratio"),
    ("obs.trace_overhead", "ratio"),
    ("datagen.gen_s", "s"), ("eval.score_s", "s"),
    ("eval.final_recall", "ratio"), ("eval.recall_auc", "ratio"),
) + tuple(
    (f"{span}.{kind}", unit)
    for span in SPAN_NAMES
    for kind, unit in (("cpu_s", "s"), ("minflt", "count"))
)

# Served-mix latency percentiles printed by the untraced run: (name,
# sample key, percentile).
SERVED_LATENCIES = (
    ("ingest_p50_ms", "ingest_ms", 50),
    ("ingest_p99_ms", "ingest_ms", 99),
    ("feed_resolve_p50_ms", "feed_resolve_ms", 50),
    ("query_p50_ms", "query_ms", 50),
    ("query_p99_ms", "query_ms", 99),
)

# An untraced run makes at least this many repetitions, whatever --seconds.
MIN_REPS = 3
# Threads of the batch workloads' untraced configuration (the harness's
# kBatchThreads); parallel efficiency is t1 / (BATCH_THREADS * t4).
BATCH_THREADS = 4


class BenchError(Exception):
    """The benchmark could not produce a result (build or harness crash)."""


# ---- Statistics -------------------------------------------------------------

def percentile(samples, q):
    """Nearest-rank q-th percentile of `samples`, or None when fewer than
    ten samples lie beyond it (the highest percentile a sample supports is
    the one with at least ten samples past the cut)."""
    n = len(samples)
    if n == 0:
        return None
    rank = max(1, math.ceil(q / 100.0 * n))
    if n - rank < 10:
        return None
    return sorted(samples)[rank - 1]


def union_length(intervals):
    """Total length covered by a set of (start, end) intervals."""
    total = 0
    cur_start = cur_end = None
    for start, end in sorted(intervals):
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def self_times(spans):
    """Self time (ns) of every span: its duration minus the part of its
    interval that its children cover. Children may overlap each other (the
    served traffic's concurrent requests); covered time counts once."""
    children = {}
    for s in spans:
        children.setdefault(s["parent"], []).append(s)
    out = {}
    for s in spans:
        clipped = [
            (max(c["start_ns"], s["start_ns"]), min(c["end_ns"], s["end_ns"]))
            for c in children.get(s["id"], [])
        ]
        covered = union_length([iv for iv in clipped if iv[0] < iv[1]])
        out[s["id"]] = (s["end_ns"] - s["start_ns"]) - covered
    return out


def roots(spans):
    """Map span id -> name of its root span."""
    by_id = {s["id"]: s for s in spans}
    out = {}
    for s in spans:
        cur = s
        while cur["parent"] in by_id:
            cur = by_id[cur["parent"]]
        out[s["id"]] = cur["name"]
    return out


# ---- Running the harness ----------------------------------------------------

def build():
    os.makedirs(BUILD, exist_ok=True)
    log_path = os.path.join(BUILD, "build.log")
    configure = not os.path.exists(os.path.join(BUILD, "CMakeCache.txt"))
    steps = []
    if configure:
        steps.append(["cmake", "-S", HERE, "-B", BUILD,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD, "--target", "minoan_perfbench",
                  "-j", str(min(4, os.cpu_count() or 1))])
    for step in steps:
        with open(log_path, "w") as log:
            ok = subprocess.run(step, stdout=log, stderr=subprocess.STDOUT,
                                cwd=ROOT).returncode == 0
        if not ok:
            with open(log_path) as f:
                sys.stderr.write(f.read()[-4000:])
            # A failed configure must not leave behind a cache the next run
            # would take for a good one.
            cache = os.path.join(BUILD, "CMakeCache.txt")
            if configure and os.path.exists(cache):
                os.remove(cache)
            raise BenchError("build failed: " + " ".join(step))


def harness(*args):
    """Runs one harness command; returns its JSON result line."""
    proc = subprocess.run([HARNESS, *args], stdout=subprocess.PIPE,
                          cwd=ROOT, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"harness {args[0]} exited {proc.returncode}: "
                         + (lines[-1] if lines else "no output"))
    return json.loads(lines[-1])


def validate_stats(path, workload, served_file, errors):
    """Checks a minoan-stats-v1 file with the repository's own validator."""
    cmd = [sys.executable, os.path.join(ROOT, "tools", "validate_obs.py"),
           "--metrics", path, "--no-trace"]
    if served_file:
        cmd.append("--tenant")
    elif workload == "batch-spill":
        cmd.append("--expect-spill")
    proc = subprocess.run(cmd, stdout=subprocess.PIPE,
                          stderr=subprocess.STDOUT, text=True)
    if proc.returncode != 0:
        errors.append(f"validate_obs {os.path.basename(path)}: "
                      + proc.stdout.strip().replace("\n", "; "))


# ---- Untraced run -----------------------------------------------------------

def run_untraced(workload, data, work, seconds):
    reps = []
    start = time.monotonic()
    while True:
        rep = harness("run", "--workload", workload, "--data", data,
                      "--work", work, "--check", "0" if reps else "1")
        reps.append(rep)
        if rep["errors"]:
            break  # a failed rep fails the run; no point measuring on
        elapsed = time.monotonic() - start
        per_rep = elapsed / len(reps)
        if (len(reps) >= MIN_REPS and elapsed + per_rep > seconds
                and samples_suffice(workload, reps)):
            break
    return reps


def pooled(reps, key):
    return [x for rep in reps for x in rep.get(key, [])]


def samples_suffice(workload, reps):
    if percentile(pooled(reps, "step_ms"), 50) is None:
        return False
    if workload != "served-mix":
        return True
    return all(percentile(pooled(reps, key), q) is not None
               for _, key, q in SERVED_LATENCIES)


def reduce_untraced(workload, reps, errors):
    def median(name):
        # A repetition that failed early may lack a figure; the run is
        # already marked incorrect, and its metrics read 0.
        found = [r["metrics"][name] for r in reps if name in r["metrics"]]
        return statistics.median(found) if found else 0.0

    values = {name: median(name) for name in
              ("setup_s", "resolve_s", "half_matches_s", "peak_rss_mb")}
    values["recall_auc"] = reps[0]["metrics"].get("recall_auc", 0.0)
    values["step_p50_ms"] = percentile(pooled(reps, "step_ms"), 50)
    digests = {r["digest"] for r in reps}
    if len(digests) != 1:
        errors.append(f"repetitions produced different outputs: {digests}")
    info = {"final_recall": (reps[0]["metrics"].get("final_recall"), "ratio"),
            "repetitions": (len(reps), "count"),
            "step_samples": (len(pooled(reps, "step_ms")), "count")}
    if workload == "served-mix":
        for name in ("bulk_s", "feed_s"):
            info[name] = (median(name), "s")
        for name, key, q in SERVED_LATENCIES:
            info[name] = (percentile(pooled(reps, key), q), "ms")
        info["feed_samples"] = (len(pooled(reps, "ingest_ms")), "count")
    return values, info


# ---- Traced run -------------------------------------------------------------

def reduce_traced(workload, res, gen_s, errors):
    with open(res["spans"]) as f:
        spans = [json.loads(line) for line in f if line.strip()]
    self_ns = self_times(spans)
    root_of = roots(spans)
    served = workload == "served-mix"
    main_root = "replay.bulk" if served else "resolve.t4"

    def spans_in(root, name):
        return [s for s in spans if s["name"] == name and root_of[s["id"]] == root]

    def span_root(name):
        """The pass a layer's per-layer figures are taken from."""
        if name in ("rdf.parse", "kb.build"):
            return "setup"
        if name.startswith("online."):
            return "replay.feed"
        if name.startswith("server."):
            return "traffic"
        return main_root

    def self_s(name, root=main_root):
        return sum(self_ns[s["id"]] for s in spans_in(root, name)) / 1e9

    def cpu_s(name, root=main_root):
        return sum(s["cpu_ns"] for s in spans_in(root, name)) / 1e9

    def root_span(name):
        found = [s for s in spans if s["name"] == name and s["parent"] == 0]
        return found[0] if found else None

    def eff(name):
        """t1 / (threads * t4) by wall time, and t1 / t4 by CPU time."""
        if served:
            return 0.0, 0.0
        t1, t4 = self_s(name, "resolve.t1"), self_s(name, "resolve.t4")
        c1, c4 = cpu_s(name, "resolve.t1"), cpu_s(name, "resolve.t4")
        return (t1 / (BATCH_THREADS * t4) if t4 else 0.0,
                c1 / c4 if c4 else 0.0)

    v = res["values"]
    m = {}
    m["rdf.parse_s"] = self_s("rdf.parse", "setup")
    m["rdf.triples_per_s"] = (v["rdf.triples"] / m["rdf.parse_s"]
                              if m["rdf.parse_s"] else 0.0)
    m["kb.build_s"] = self_s("kb.build", "setup")
    m["kb.graph_s"] = self_s("kb.graph")
    for layer, span in (("blocking.build", "blocking.build"),
                        ("blocking.clean", "blocking.clean"),
                        ("metablocking.prune", "metablocking.prune"),
                        ("progressive.begin", "progressive.begin")):
        m[layer + "_s"] = self_s(span)
        m[layer + "_eff"], m[layer + "_eff_cpu"] = eff(span)
    for key in ("blocking.emissions", "blocking.kept_ratio",
                "metablocking.edges", "metablocking.retained_ratio",
                "extmem.spill_bytes", "extmem.runs", "extmem.cascade_merges",
                "matching.similarity_ns", "progressive.match_ratio",
                "progressive.pushes_per_comparison", "pool.busy_s",
                "pool.queue_wait_s", "eval.final_recall",
                "eval.recall_auc"):
        m[key] = v.get(key, 0)
    m["pool.wait_per_busy"] = (m["pool.queue_wait_s"] / m["pool.busy_s"]
                               if m["pool.busy_s"] else 0.0)
    m["matching.evaluator_s"] = self_s("matching.evaluator")
    m["progressive.step_s"] = self_s("progressive.step")
    comparisons = v.get("progressive.comparisons", 0)
    m["progressive.ns_per_comparison"] = (
        m["progressive.step_s"] * 1e9 / comparisons if comparisons else 0.0)

    # core: the session's own phase times against the harness spans. They
    # come from two passes over the same inputs and options, the untraced
    # session pass and the traced mirror, so the gap includes the
    # run-to-run noise between the two.
    session = res["session"]
    m["core.open_s"] = session["open_s"]
    pairs = (
        ("blocking", ["blocking.build"]),
        ("block-cleaning", ["blocking.clean"]),
        ("meta-blocking", ["metablocking.prune"]),
        ("graph+evaluator",
         ["kb.graph", "matching.evaluator", "progressive.init"]),
        ("progressive-resolution", ["progressive.begin", "progressive.step"]),
    )
    m["core.phase_gap_ms"] = sum(
        abs(sum(self_s(s) for s in names) * 1e3
            - session.get(f"phase.{phase}_ms", 0.0))
        for phase, names in pairs)

    # Coverage and tracing overhead: the traced span of the whole resolution
    # (batch) or of the whole traffic (served) against its untraced twin.
    covered_root = root_span("traffic" if served else "resolve.t4")
    duration = (covered_root["end_ns"] - covered_root["start_ns"]) / 1e9
    m["core.uncovered_s"] = self_ns[covered_root["id"]] / 1e9
    m["core.uncovered_ratio"] = m["core.uncovered_s"] / duration
    untraced = (statistics.median(res["plain_makespan_s"]) if served
                else session["resolve_s"])
    m["obs.trace_overhead"] = duration / untraced - 1.0

    # online and server layers (served-mix only).
    if served:
        ingest_s = self_s("online.ingest", "replay.feed")
        resolve_s = self_s("online.resolve", "replay.feed")
        m["online.ingest_us_per_entity"] = ingest_s * 1e6 / v["online.entities"]
        m["online.resolve_ns_per_comparison"] = (
            resolve_s * 1e9 / v["online.resolve_comparisons"])
        def pct(key, q):
            value = percentile(res[key], q)
            if value is None:
                errors.append(f"p{q} of {key}: too few samples "
                              f"({len(res[key])})")
            return value or 0.0

        m["online.query_us"] = pct("replay_query_ms", 50) * 1e3
        m["server.request_us_p50"] = v["server.request_us_p50"]
        for name, served_key, replay_key in (
                ("server.step_overhead_us", "step_ms", "replay_step_ms"),
                ("server.ingest_overhead_us", "ingest_ms", "replay_ingest_ms"),
                ("server.query_overhead_us", "query_ms", "replay_query_ms")):
            m[name] = (pct(served_key, 50) - pct(replay_key, 50)) * 1e3
        for name, key, q in SERVED_LATENCIES:
            m[name] = pct(key, q)
    m["datagen.gen_s"] = gen_s
    m["eval.score_s"] = self_s("eval.score", "eval.score")
    for span in SPAN_NAMES:
        chosen = spans_in(span_root(span), span)
        m[f"{span}.cpu_s"] = sum(s["cpu_ns"] for s in chosen) / 1e9
        m[f"{span}.minflt"] = sum(s["minflt"] for s in chosen)
    for name, _ in PER_LAYER:
        m.setdefault(name, 0.0)
    for path in res["stats_files"]:
        validate_stats(path, workload, path.endswith("server-stats.json"),
                       errors)
    return m


# ---- Self-tests -------------------------------------------------------------

def selftest():
    failures = []

    def expect(cond, what):
        if not cond:
            failures.append(what)

    # Percentile rule: a percentile needs at least ten samples beyond it.
    samples = list(range(1, 21))  # 1..20
    expect(percentile(samples, 50) == 10, "p50 of 1..20 is 10")
    expect(percentile(samples[:19], 50) is None,
           "p50 of 19 samples leaves 9 beyond: unsupported")
    thousand = list(range(1000, 0, -1))
    expect(percentile(thousand, 99) == 990, "p99 of 1..1000 is 990")
    expect(percentile(thousand[:999], 99) is None,
           "p99 of 999 samples leaves 9 beyond: unsupported")
    expect(percentile([], 50) is None, "empty sample")

    # Self time with overlapping children: parent [0,100]; children
    # [10,40] and [30,60] overlap on [30,40]; [90,120] sticks out past the
    # parent's end. Covered = [10,60] + [90,100] = 60, so self = 40.
    spans = [
        {"name": "root", "id": 1, "parent": 0, "start_ns": 0, "end_ns": 100},
        {"name": "a", "id": 2, "parent": 1, "start_ns": 10, "end_ns": 40},
        {"name": "b", "id": 3, "parent": 1, "start_ns": 30, "end_ns": 60},
        {"name": "c", "id": 4, "parent": 1, "start_ns": 90, "end_ns": 120},
        {"name": "d", "id": 5, "parent": 2, "start_ns": 15, "end_ns": 20},
    ]
    st = self_times(spans)
    expect(st[1] == 40, f"parent self time 40, got {st[1]}")
    expect(st[2] == 25, f"child self time 25, got {st[2]}")
    expect(st[3] == 30 and st[5] == 5, "leaf self times are durations")
    expect(roots(spans)[5] == "root", "grandchild's root is the root span")

    # BENCHMARK.json names exactly the metrics this runner prints.
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        declared = json.load(f)
    expect([(m["name"], m["unit"]) for m in declared["end_to_end"]]
           == list(E2E), "BENCHMARK.json end_to_end matches E2E")
    expect([(m["name"], m["unit"]) for m in declared["per_layer"]]
           == list(PER_LAYER), "BENCHMARK.json per_layer matches PER_LAYER")
    expect(sorted(w["name"] for w in declared["workloads"])
           == sorted(WORKLOADS), "BENCHMARK.json workloads match WORKLOADS")

    # AUC on a hand-computed curve, through eval (the harness's selftest).
    build()
    proc = subprocess.run([HARNESS, "selftest"], stdout=subprocess.PIPE,
                          text=True)
    expect(proc.returncode == 0, "AUC on a hand-computed curve: "
           + proc.stdout.strip())
    for failure in failures:
        print(f"selftest: FAIL: {failure}", file=sys.stderr)
    print("selftest: " + ("ok" if not failures else
                          f"{len(failures)} failure(s)"))
    return 0 if not failures else 1


# ---- Main -------------------------------------------------------------------

def main():
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawTextHelpFormatter)
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--selftest", action="store_true")
    args = parser.parse_args()
    # Compilers and the harness keep their temporary files in the checkout.
    os.environ["TMPDIR"] = os.path.join(WORK, "tmp")
    os.makedirs(os.environ["TMPDIR"], exist_ok=True)
    if args.selftest:
        return selftest()
    if args.workload is None:
        parser.error("--workload is required")

    build()
    run_dir = os.path.join(WORK, f"run-{os.getpid()}")
    data = os.path.join(run_dir, "data")
    work = os.path.join(WORK, "out",
                        f"{args.workload}-s{args.seed}-t{args.trace}")
    shutil.rmtree(work, ignore_errors=True)
    errors = []
    try:
        t0 = time.monotonic()
        harness_gen = subprocess.run(
            [HARNESS, "gen", "--workload", args.workload, "--seed",
             str(args.seed), "--data", data], cwd=ROOT)
        if harness_gen.returncode != 0:
            raise BenchError("input generation failed")
        gen_s = time.monotonic() - t0
        if args.trace:
            res = harness("trace", "--workload", args.workload, "--data", data,
                          "--work", work)
            errors += res["errors"]
            attempted = res["attempted"]
            # A traced run that failed has nothing sound to reduce; its
            # per-layer metrics read 0 and the run is marked incorrect.
            values = (reduce_traced(args.workload, res, gen_s, errors)
                      if not errors else {})
            metrics = {n: (values.get(n, 0.0), u) for n, u in PER_LAYER}
            info = {}
        else:
            reps = run_untraced(args.workload, data, work, args.seconds)
            for rep in reps:
                errors += rep["errors"]
            attempted = sum(r["attempted"] for r in reps)
            values, info = reduce_untraced(args.workload, reps, errors)
            metrics = {n: (values[n], u) for n, u in E2E}
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)

    failed = len(errors)
    attempted = max(attempted, failed, 1)
    for error in errors:
        print(f"check failed: {error}")
    print(f"{'metric':<36} {'value':>16}  unit")
    for name, (value, unit) in list(metrics.items()) + list(info.items()):
        shown = "n/a" if value is None else f"{value:.6g}"
        print(f"{name:<36} {shown:>16}  {unit}")
    print(f"{'error_rate':<36} {failed / attempted:>16.6g}  ratio")
    print(f"outputs: {work}")
    result = {
        "correct": not errors,
        "attempted": attempted,
        "failed": failed,
        "metrics": {n: {"value": (0.0 if v is None else v), "unit": u}
                    for n, (v, u) in metrics.items()},
    }
    with open(os.path.join(work, "metrics.json"), "w") as f:
        json.dump(result, f, indent=1)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except BenchError as e:
        print(f"run.py: {e}", file=sys.stderr)
        sys.exit(1)
