#!/usr/bin/env python3
"""Benchmark of the sturgeon stack: three workloads, timed end to end and
per layer from outside the program.

    python3 perfbench/run.py                  # every workload, end to end then traced
    python3 perfbench/run.py --workload fleet-cut --seed 7 --seconds 30 --trace 0
    python3 perfbench/run.py --self-test      # reduced-size check of the benchmark itself

Each workload is a manifest under perfbench/workloads/, lowered through
`sturgeon::scenario` by the `perfbench` binary (perfbench/src/main.rs),
which this script builds from source with cargo. The seed comes from
--seed; the manifests carry none.

--trace 0 measures the end-to-end metrics with tracing off. --trace 1
makes traced runs, which time every layer from outside, and reports the
per-layer metrics. Each repetition runs in a fresh process, so its
VmHWM is its own. Before measuring, every invocation runs the manifest
once through the library's own scenario lowering; each measured run must
reproduce that reference bit for bit, and any failed check counts as a
failed operation. The last line of stdout is one JSON object with the
keys correct, attempted, failed and metrics; the exit code is 0 only
when every check passed.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

WORKLOADS = ["node-sweep", "fleet-diurnal", "fleet-cut"]
DEFAULT_SEED = 42
DEFAULT_SECONDS = 30

# Repetitions per invocation, whatever --seconds says: two untraced runs
# make the cross-run identity check meaningful; two traced runs let the
# per-layer counts be marked exact or not.
MIN_RUNS = 2
MIN_TRACED = 2
# At most this many worker threads, and never more than the machine has.
MAX_THREADS = 2

# (name, unit, better). overload_frac is reported as its complement,
# within_cap_frac, because it is 0 on most runs and a bound is a share
# of the parent's median.
END_TO_END = [
    ("qos_rate", "fraction", "higher"),
    ("be_throughput", "machines/node", "higher"),
    ("within_cap_frac", "fraction", "higher"),
    ("setup_s", "s", "lower"),
    ("run_s", "s", "lower"),
    ("peak_rss_mib", "MiB", "lower"),
]
SIMULATED = ["qos_rate", "be_throughput", "within_cap_frac"]

# (name, unit, better, kind, moves). kind "count" marks a count whose
# exactness is judged by repetition across traced runs; "time" and
# "ratio" are measured. `moves` names the end-to-end metric and the
# workload each layer metric should move. On fleets the cache counters
# come from the traced shard's last CacheSnapshot of the predictor all
# shards share, so they race with the other shards and come out not
# exact; decide and slab timings are node-only, because a fleet's shard
# controllers cannot be wrapped from outside.
PER_LAYER = [
    ("profiler.collect_s", "s", "lower", "time", "setup_s@all"),
    ("predictor.train_s", "s", "lower", "time", "setup_s@all"),
    ("fleet.build_s", "s", "lower", "time", "setup_s@fleet-diurnal,fleet-cut"),
    ("scoring.cf_train_s", "s", "lower", "time", "setup_s@fleet-cut"),
    ("scoring.set_scorer_train_s", "s", "lower", "time", "setup_s@fleet-cut"),
    ("tables.model_tables_s", "s", "lower", "time", "run_s@node-sweep"),
    ("predictor.slab_builds", "count", "lower", "count", "run_s@node-sweep"),
    ("predictor.slab_build_s", "s", "lower", "time", "run_s@node-sweep"),
    ("controller.decide_calls", "count", "lower", "count", "run_s@node-sweep"),
    ("controller.decide_s", "s", "lower", "time", "run_s@node-sweep"),
    ("controller.decide_p50_us", "us", "lower", "time", "run_s@node-sweep"),
    ("controller.decide_p99_us", "us", "lower", "time", "run_s@node-sweep"),
    ("search.decide_s", "s", "lower", "time", "run_s@node-sweep"),
    ("search.candidates", "count", "lower", "count", "run_s@node-sweep"),
    ("search.frontier_reuses", "count", "higher", "count", "run_s@node-sweep"),
    ("search.incremental_reuse_ratio", "fraction", "higher", "ratio", "run_s@node-sweep"),
    ("search.runs", "count", "lower", "count", "run_s@fleet-cut"),
    ("predictor.model_calls", "count", "lower", "count",
     "run_s,peak_rss_mib@fleet-cut;run_s@fleet-diurnal"),
    ("predictor.cache_hits", "count", "higher", "count",
     "run_s,peak_rss_mib@fleet-cut;run_s@fleet-diurnal"),
    ("predictor.cache_misses", "count", "lower", "count",
     "run_s,peak_rss_mib@fleet-cut;run_s@fleet-diurnal"),
    ("predictor.cache_hit_ratio", "fraction", "higher", "ratio",
     "run_s,peak_rss_mib@fleet-cut;run_s@fleet-diurnal"),
    ("predictor.cache_entries", "count", "lower", "count",
     "run_s,peak_rss_mib@fleet-cut;run_s@fleet-diurnal"),
    ("env.step_s", "s", "lower", "time", "run_s@node-sweep"),
    ("fleet.interval_p50_ms", "ms", "lower", "time", "run_s@fleet-diurnal"),
    ("fleet.interval_p99_ms", "ms", "lower", "time", "run_s@fleet-diurnal"),
    ("fleet.interval_samples", "count", "higher", "count", "run_s@fleet-diurnal"),
    ("fleet.node_intervals_per_s", "1/s", "higher", "time", "run_s@fleet-diurnal"),
    ("budget.reclaims", "count", "lower", "count",
     "qos_rate,be_throughput,within_cap_frac@fleet-cut"),
    ("placement.migrations", "count", "lower", "count",
     "qos_rate,be_throughput,within_cap_frac@fleet-cut"),
    ("placement.evictions", "count", "lower", "count",
     "qos_rate,be_throughput,within_cap_frac@fleet-cut"),
    ("placement.assignments", "count", "lower", "count",
     "qos_rate,be_throughput,within_cap_frac@fleet-cut"),
    ("scoring.set_scores", "count", "lower", "count",
     "qos_rate,be_throughput,within_cap_frac@fleet-cut"),
    ("trace.overhead_frac", "fraction", "lower", "ratio", "run_s@all"),
]

# Reduced sizes for --self-test: (intervals, nodes).
SELF_TEST_SIZES = {
    "node-sweep": (40, None),
    "fleet-diurnal": (60, 600),
    "fleet-cut": (160, 64),
}


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def threads():
    try:
        cpus = len(os.sched_getaffinity(0))
    except AttributeError:
        cpus = os.cpu_count() or 1
    return max(1, min(MAX_THREADS, cpus))


def build():
    """Builds the perfbench binary from source; returns its path."""
    target = os.path.abspath(os.environ.get("CARGO_TARGET_DIR", os.path.join(ROOT, ".bench_build")))
    cmd = ["cargo", "build", "--release", "--offline", "--quiet",
           "--manifest-path", os.path.join(HERE, "Cargo.toml")]
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    if subprocess.run(cmd, env=env, stdout=sys.stderr).returncode != 0:
        raise SystemExit("perfbench: cargo build failed")
    return os.path.join(target, "release", "perfbench")


class Runner:
    """Starts one perfbench process per repetition and tallies failures."""

    def __init__(self, binary, workload, seed, size, perturb):
        self.binary = binary
        self.workload = workload
        self.seed = seed
        self.size = size
        self.perturb = perturb
        self.attempted = 0
        self.failed = 0
        self.reference = None

    def call(self, mode):
        cmd = [self.binary, mode,
               "--manifest", os.path.join(HERE, "workloads", self.workload + ".toml"),
               "--seed", str(self.seed)]
        intervals, nodes = self.size
        if intervals:
            cmd += ["--intervals", str(intervals)]
        if nodes:
            cmd += ["--nodes", str(nodes)]
        if self.perturb and mode == "run":
            cmd.append("--perturb")
        env = dict(os.environ, RAYON_NUM_THREADS=str(threads()))
        self.attempted += 1
        started = time.monotonic()
        proc = subprocess.run(cmd, env=env, stdout=subprocess.PIPE, text=True)
        wall = time.monotonic() - started
        out = None
        if proc.returncode == 0:
            try:
                out = json.loads(proc.stdout.strip().splitlines()[-1])
            except (ValueError, IndexError):
                out = None
        if out is None:
            log(f"  {mode}: perfbench exited {proc.returncode} without a result")
            self.failed += 1
            return None, wall
        bad = [name for name, ok in out.get("checks", {}).items() if not ok]
        if self.reference is not None:
            bad += [k for k in SIMULATED + ["digest"] if out.get(k) != self.reference.get(k)]
        if bad:
            log(f"  {mode}: failed checks: {', '.join(bad)}")
            self.failed += 1
        return out, wall

    def start(self):
        self.reference, _ = self.call("reference")
        return self.reference is not None


def repeat(runner, modes, seconds, minimum):
    """Alternates between `modes`. Each runs at least `minimum[mode]`
    times, and again while its next run would still end within `seconds`
    of measuring, judged by how long its last run took."""
    results = {m: [] for m in modes}
    started = {m: 0 for m in modes}
    last = {m: 0.0 for m in modes}
    t0 = time.monotonic()
    while True:
        elapsed = time.monotonic() - t0
        due = [m for m in modes if started[m] < minimum[m] or elapsed + last[m] <= seconds]
        if not due:
            return results
        mode = min(due, key=lambda m: started[m])
        started[mode] += 1
        out, last[mode] = runner.call(mode)
        if out is not None:
            results[mode].append(out)


def median(values):
    return statistics.median(values) if values else 0.0


def end_to_end(runner, seconds):
    results = repeat(runner, ["run"], seconds, {"run": MIN_RUNS})["run"]
    ref = runner.reference or {}
    metrics = {k: ref.get(k, 0.0) for k in SIMULATED}
    metrics["setup_s"] = median([s for r in results for s in r["setup_s"]])
    metrics["run_s"] = median([r["run_s"] for r in results])
    metrics["peak_rss_mib"] = median([r["peak_rss_mib"] for r in results])
    log(f"  {len(results)} runs; run_s " + ", ".join(f"{r['run_s']:.3f}" for r in results))
    return {name: {"value": metrics[name], "unit": unit} for name, unit, _ in END_TO_END}


def per_layer(runner, seconds):
    results = repeat(runner, ["run", "traced"], seconds, {"run": 1, "traced": MIN_TRACED})
    traced, untraced = results["traced"], results["run"]
    metrics = {}
    rows = []
    for name, unit, _, kind, moves in PER_LAYER:
        if name == "trace.overhead_frac":
            base = median([r["run_s"] for r in untraced])
            values = [median([r["run_s"] for r in traced]) / base - 1.0] if base else []
        else:
            values = [r[name] for r in traced if name in r]
        value = median(values)
        if not values:
            # The layer does not run on this workload, or cannot be timed
            # from outside it (a fleet's shard controllers); reported as 0.
            label = "n/a"
        elif kind == "count":
            label = "exact" if len(set(values)) == 1 else "not exact"
        else:
            label = kind
        metrics[name] = {"value": value, "unit": unit}
        rows.append((name, value, unit, label, moves))
    width = max(len(r[0]) for r in rows)
    print(f"per-layer ({runner.workload}, seed {runner.seed}, {len(traced)} traced "
          f"and {len(untraced)} untraced runs, {threads()} threads):")
    for name, value, unit, label, moves in rows:
        print(f"  {name:<{width}}  {value:>16.6g} {unit:<9} {label:<10} moves {moves}")
    return metrics


def measure(binary, workload, seed, seconds, trace, size=(None, None), perturb=False):
    runner = Runner(binary, workload, seed, size, perturb)
    log(f"{workload}: seed {seed}, {'traced' if trace else 'end to end'}, "
        f"{threads()} threads")
    metrics = {}
    if runner.start():
        metrics = per_layer(runner, seconds) if trace else end_to_end(runner, seconds)
    if not trace:
        print(f"end to end ({workload}, seed {seed}):")
        for name, unit, better in END_TO_END:
            value = metrics.get(name, {}).get("value", float("nan"))
            print(f"  {name:<16} {value:>16.6g} {unit:<14} {better} is better")
    return {"correct": runner.failed == 0 and bool(metrics), "attempted": runner.attempted,
            "failed": runner.failed, "metrics": metrics}


def finish(result):
    print(json.dumps(result))
    sys.exit(0 if result["correct"] else 1)


def self_test(seconds):
    """Runs every workload at reduced size through this script and checks
    that every named metric is emitted with its unit, and that a perturbed
    simulated metric fails the correctness check."""
    problems = []
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    if [w["name"] for w in spec["workloads"]] != WORKLOADS:
        problems.append("BENCHMARK.json workloads differ from run.py")
    for key, table in (("end_to_end", END_TO_END), ("per_layer", PER_LAYER)):
        listed = [(m["name"], m["unit"], m["better"]) for m in spec[key]]
        if listed != [row[:3] for row in table]:
            problems.append(f"BENCHMARK.json {key} differs from run.py")

    def run(workload, trace, perturb=False):
        intervals, nodes = SELF_TEST_SIZES[workload]
        cmd = [sys.executable, os.path.abspath(__file__), "--workload", workload,
               "--seed", "3", "--seconds", str(seconds), "--trace", str(trace),
               "--intervals", str(intervals)]
        if nodes:
            cmd += ["--nodes", str(nodes)]
        if perturb:
            cmd.append("--perturb")
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
        lines = proc.stdout.strip().splitlines()
        return proc.returncode, (json.loads(lines[-1]) if lines else None)

    for workload in WORKLOADS:
        for trace, table in ((0, END_TO_END), (1, PER_LAYER)):
            code, out = run(workload, trace)
            if code != 0 or not out or out["correct"] is not True or out["failed"] != 0:
                problems.append(f"{workload} --trace {trace}: exit {code}, result {out}")
                continue
            for row in table:
                got = out["metrics"].get(row[0])
                if not got or got["unit"] != row[1] or not isinstance(got["value"], (int, float)):
                    problems.append(f"{workload} --trace {trace}: {row[0]} missing or mis-united")
            if set(out["metrics"]) != {row[0] for row in table}:
                problems.append(f"{workload} --trace {trace}: unexpected metric names")
        code, out = run(workload, 0, perturb=True)
        if code == 0 or not out or out["correct"] is not False or out["failed"] < 1:
            problems.append(f"{workload}: perturbed qos_rate passed the correctness check")
    for p in problems:
        log("self-test: " + p)
    print("self-test: " + ("FAILED" if problems else "passed"))
    sys.exit(1 if problems else 0)


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=DEFAULT_SECONDS)
    ap.add_argument("--trace", type=int, choices=[0, 1])
    ap.add_argument("--self-test", action="store_true")
    # Benchmark-only knobs for the self-test: reduced sizes and a
    # deliberately perturbed simulated metric.
    ap.add_argument("--intervals", type=int, help=argparse.SUPPRESS)
    ap.add_argument("--nodes", type=int, help=argparse.SUPPRESS)
    ap.add_argument("--perturb", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args()

    if args.self_test:
        self_test(min(args.seconds, 1.0))
    binary = build()
    size = (args.intervals, args.nodes)
    if args.workload:
        finish(measure(binary, args.workload, args.seed, args.seconds,
                       bool(args.trace), size, args.perturb))

    # No workload named: every workload end to end, then each traced.
    traces = [0, 1] if args.trace is None else [args.trace]
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for trace in traces:
        for workload in WORKLOADS:
            result = measure(binary, workload, args.seed, args.seconds, bool(trace), size,
                             args.perturb)
            combined["correct"] = combined["correct"] and result["correct"]
            combined["attempted"] += result["attempted"]
            combined["failed"] += result["failed"]
            for name, metric in result["metrics"].items():
                combined["metrics"][f"{workload}/{name}"] = metric
    finish(combined)


if __name__ == "__main__":
    main()
