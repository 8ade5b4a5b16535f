#!/usr/bin/env python3
"""Benchmark entry point: builds the driver, runs one workload, prints metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --seed N --seconds S --trace 0|1   # every workload
    python3 perfbench/run.py --self-test
    python3 perfbench/run.py --update-golden

Builds perfbench/ (which compiles the library from the repository's own
sources) into $CARGO_TARGET_DIR or .bench_build, runs the driver for
--seconds of wall time and checks the simulated results. Without
--workload it runs every workload in turn. The last line of standard
output for a workload is one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With --trace 0 the metrics are the end-to-end ones, with --trace 1 the
per-layer ones (see perfbench/README.md for what each means).
"""

import argparse
import fcntl
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
GOLDEN = BENCH_DIR / "golden.json"
DEFAULT_SEED = 42
RUN_TIMEOUT_S = 170

# Layer and the end-to-end metric (and workload) each metric should
# move; names and units are declared in BENCHMARK.json.
END_TO_END = {
    "ns_per_request": ("all", "headline: host ns per completed request"),
    "setup_s": ("all", "config to first event"),
    "peak_rss_mb": ("all", "peak resident memory of the run"),
    "sim_mean_read_us": ("model", "simulated mean read latency"),
    "sim_p99_read_us": ("model", "simulated p99 read latency"),
}
PER_LAYER = {
    "workload.trace_gen_s": ("workload", "setup_s, mostly replay-paper"),
    "ssd.build_s": ("ssd", "setup_s"),
    "ftl.precondition_s": ("ftl", "setup_s"),
    "host.wire_s": ("host", "setup_s (0 on replay-paper)"),
    "run.drain_s": ("all", "ns_per_request"),
    "nand.page_profile_ns": ("nand", "ns_per_request, tenants-windowed"),
    "nand.profile_cache_get_ns": ("nand", "ns_per_request, replay-paper "
                                  "and raid5-rmw-cached"),
    "core.plan_read_ns": ("core", "ns_per_request, all"),
    "sim.event_ns": ("sim", "ns_per_request, all"),
    "ftl.translate_ns": ("ftl", "ns_per_request, raid5-rmw-cached vs "
                         "replay-paper"),
    "probe.estimated_ns_per_request": ("all", "ns_per_request"),
    "unattributed_ns_per_request": ("host+ssd", "ns_per_request (TSU, "
                                    "pending maps, FTL writes, array, "
                                    "tenants, filters)"),
    "probe.sum_exceeds_measured": ("all", "sanity flag, 0 expected"),
    "trace.drain_overhead_ratio": ("all", "tracing cost, ~1"),
    "sim.events_per_request": ("sim", "ns_per_request"),
    "core.read_txns_per_request": ("core", "ns_per_request"),
    "core.retry_steps_per_read": ("core", "sim_mean_read_us"),
    "nand.profile_cache_hit_ratio": ("nand", "ns_per_request"),
    "ftl.gc_per_kilo_request": ("ftl", "sim_p99_read_us and "
                                "ns_per_request, raid5-rmw-cached"),
    "ssd.suspensions_per_kilo_request": ("ssd", "sim_p99_read_us"),
    "ssd.channel_util": ("ssd", "sim_p99_read_us"),
    "ssd.ecc_util": ("ssd", "sim_p99_read_us"),
    "host.parity_writes_per_write": ("host", "ns_per_request, "
                                     "raid5-rmw-cached"),
    "host.filter.cache_hit_ratio": ("host", "sim_mean_read_us and "
                                    "ns_per_request, raid5-rmw-cached"),
    "sim.executor.events_per_domain_window": ("sim.executor",
                                              "ns_per_request, "
                                              "tenants-windowed"),
    "sim.executor.windows_skipped_ratio": ("sim.executor", "ns_per_request, "
                                           "tenants-windowed"),
    "sim.executor.parks_per_window": ("sim.executor",
                                      "timing-dependent, reported only"),
    "sim.executor.speedup_vs_1t": ("sim.executor", "ns_per_request, "
                                   "tenants-windowed"),
    "sim.executor.cpu_per_wall": ("sim.executor", "CPU seconds per run "
                                  "second; spinning workers on "
                                  "tenants-windowed"),
    "sim.simulated_ms": ("sim", "sim_mean_read_us"),
}
DECLARED = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in DECLARED["workloads"]]
UNITS = {0: {m["name"]: m["unit"] for m in DECLARED["end_to_end"]},
         1: {m["name"]: m["unit"] for m in DECLARED["per_layer"]}}


class BenchError(Exception):
    pass


def build_dir():
    return (ROOT / os.environ.get("CARGO_TARGET_DIR", ".bench_build")).resolve()


def build():
    """Configure once, then build the driver incrementally."""
    if not (ROOT / "CMakeLists.txt").is_file() or not (ROOT / "src").is_dir():
        raise BenchError(f"no ssdrr sources next to {BENCH_DIR.name}/")
    out = build_dir()
    out.mkdir(parents=True, exist_ok=True)
    log = out / "perfbench-build.log"
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not (out / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(BENCH_DIR), "-B", str(out),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(out), "--target", "perfbench",
                  "-j", jobs])
    with open(out / "perfbench-build.lock", "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        with open(log, "w") as f:
            for cmd in steps:
                if subprocess.run(cmd, stdout=f, stderr=subprocess.STDOUT,
                                  cwd=ROOT).returncode != 0:
                    tail = log.read_text().splitlines()[-30:]
                    raise BenchError("build failed:\n" + "\n".join(tail))
    return out / "perfbench"


def run_driver(binary, workload, seed, seconds, trace, size):
    cmd = [str(binary), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace), "--size", size]
    try:
        p = subprocess.run(cmd, stdout=subprocess.PIPE, cwd=ROOT,
                           timeout=RUN_TIMEOUT_S, text=True)
    except subprocess.TimeoutExpired:
        raise BenchError(f"{workload}: driver timed out")
    if p.returncode != 0:
        raise BenchError(f"{workload}: driver exited {p.returncode}")
    try:
        return json.loads(p.stdout)
    except json.JSONDecodeError as e:
        raise BenchError(f"{workload}: unreadable driver report: {e}")


def median(xs):
    return statistics.median(xs) if xs else 0.0


def ratio(a, b):
    return a / b if b else 0.0


def check(report, golden):
    """Digest checks; returns the list of failures (empty = correct)."""
    bad = []
    reps = report["reps"]
    digests = {r["digest"] for r in reps}
    if len(digests) != 1:
        kinds = sorted({(r["traced"], r["threads"], r["digest"])
                        for r in reps})
        bad.append(f"repetitions disagree (traced, threads, digest): {kinds}")
    d = reps[0]["digest"]
    if report["reference_digest"] != d:
        bad.append(f"digest {d} != library entry point's "
                   f"{report['reference_digest']}")
    if report["seed"] == DEFAULT_SEED:
        want = golden.get(report["size"], {}).get(report["workload"])
        if want != d:
            bad.append(f"digest {d} != recorded {want} for seed "
                       f"{DEFAULT_SEED}")
    return bad


def end_to_end(report):
    reps = [r for r in report["reps"] if not r["traced"]]
    s = report["stats"]
    return {
        "ns_per_request": median([r["drain_s"] * 1e9 / r["completed"]
                                  for r in reps]),
        "setup_s": median([r["setup_s"] for r in reps]),
        "peak_rss_mb": report["peak_rss_mb"],
        "sim_mean_read_us": s["avg_read_us"],
        "sim_p99_read_us": s["p99_read_us"],
    }


def per_layer(report):
    s = report["stats"]
    p = report["probes"]
    threads = report["threads"]
    traced = [r for r in report["reps"]
              if r["traced"] and r["threads"] == threads]
    untraced = [r for r in report["reps"] if not r["traced"]]
    twin = [r for r in report["reps"] if r["traced"] and r["threads"] == 1]
    req = s["completed"]
    drain = median([r["drain_s"] for r in traced])
    measured = median([r["drain_s"] * 1e9 / r["completed"] for r in untraced])

    # Calls each probed function makes per completed request. With the
    # profile cache on, pageProfile runs inside get() and is counted
    # there; without it every lookup is a pageProfile call.
    lookups = s["profile_cache_hits"] + s["profile_cache_misses"]
    cached = s["profile_cache_slots"] > 0
    calls = {
        "nand.page_profile_ns": 0 if cached else lookups / req,
        "nand.profile_cache_get_ns": lookups / req if cached else 0,
        "core.plan_read_ns": s["retry_samples"] / req,
        "sim.event_ns": s["executed_events"] / req,
        "ftl.translate_ns": (s["retry_samples"] - s["gc_page_moves"]) / req,
    }
    probe_ns = {
        "nand.page_profile_ns": p["page_profile_ns"],
        "nand.profile_cache_get_ns": p["profile_cache_get_ns"],
        "core.plan_read_ns": p["plan_read_ns"],
        "sim.event_ns": p["event_ns"],
        "ftl.translate_ns": p["translate_ns"],
    }
    estimate = sum(probe_ns[k] * calls[k] for k in calls)
    domains = s["drives"] + 1
    windows = s["windows_run"]
    speedup = 1.0
    if threads > 1 and twin:
        speedup = ratio(median([r["drain_s"] for r in twin]), drain)

    m = {
        "workload.trace_gen_s": median([r["trace_gen_s"] for r in traced]),
        "ssd.build_s": median([r["build_s"] for r in traced]),
        "ftl.precondition_s": median([r["precondition_s"] for r in traced]),
        "host.wire_s": median([r["wire_s"] for r in traced]),
        "run.drain_s": drain,
        **probe_ns,
        "probe.estimated_ns_per_request": estimate,
        "unattributed_ns_per_request": measured - estimate,
        "probe.sum_exceeds_measured": 1 if estimate > measured else 0,
        "trace.drain_overhead_ratio": ratio(
            drain, median([r["drain_s"] for r in untraced])),
        "sim.events_per_request": s["executed_events"] / req,
        "core.read_txns_per_request": s["retry_samples"] / req,
        "core.retry_steps_per_read": s["avg_retry_steps"],
        "nand.profile_cache_hit_ratio": ratio(s["profile_cache_hits"],
                                              lookups),
        "ftl.gc_per_kilo_request": 1000 * s["gc_collections"] / req,
        "ssd.suspensions_per_kilo_request": 1000 * s["suspensions"] / req,
        "ssd.channel_util": s["channel_util"],
        "ssd.ecc_util": s["ecc_util"],
        "host.parity_writes_per_write": ratio(s["parity_writes"],
                                              s["writes"]),
        "host.filter.cache_hit_ratio": ratio(
            s["cache_hits"], s["cache_hits"] + s["cache_misses"]),
        "sim.executor.events_per_domain_window": ratio(
            s["executed_events"], windows * domains),
        "sim.executor.windows_skipped_ratio": ratio(s["windows_skipped"],
                                                    windows),
        "sim.executor.parks_per_window": ratio(
            median([r["parks"] for r in traced]), windows),
        "sim.executor.speedup_vs_1t": speedup,
        "sim.executor.cpu_per_wall": median(
            [r["drain_cpu_s"] / r["drain_s"] for r in traced]),
        "sim.simulated_ms": s["simulated_ms"],
    }
    return m, calls, measured


def table(report, metrics, spec, units, calls=None):
    lines = [f"perfbench {report['workload']} seed={report['seed']} "
             f"size={report['size']} threads={report['threads']} "
             f"cores={report['cores']} reps={len(report['reps'])}"]
    for name, value in metrics.items():
        layer, moves = spec[name]
        unit = units[name]
        extra = ""
        if calls and name in calls:
            extra = (f"  x {calls[name]:.3f}/req = "
                     f"{value * calls[name]:.1f} ns/req")
        lines.append(f"  {name:40s} {value:14.6g} {unit:6s} [{layer}] "
                     f"-> {moves}{extra}")
    return lines


def evaluate(report, golden):
    """Result object and the human-readable lines for one report."""
    bad = check(report, golden)
    trace = report["trace"]
    units = UNITS[trace]
    if trace:
        metrics, calls, measured = per_layer(report)
        lines = table(report, metrics, PER_LAYER, units, calls)
        if metrics["probe.sum_exceeds_measured"]:
            lines.append(f"  WARNING: probe estimates "
                         f"{metrics['probe.estimated_ns_per_request']:.1f} "
                         f"ns/req exceed the measured {measured:.1f}")
    else:
        metrics = end_to_end(report)
        lines = table(report, metrics, END_TO_END, units)
    if sorted(metrics) != sorted(units):
        raise BenchError("computed metrics differ from BENCHMARK.json: "
                         f"{sorted(set(metrics) ^ set(units))}")
    lines += [f"  FAIL: {b}" for b in bad]
    lines.append(f"  digest {report['reps'][0]['digest']}: "
                 f"{report['stats']['digest_text']}")
    result = {
        "correct": not bad,
        "attempted": sum(r["attempted"] for r in report["reps"]),
        "failed": sum(r["failed"] for r in report["reps"]),
        "metrics": {k: {"value": v, "unit": units[k]}
                    for k, v in metrics.items()},
    }
    return result, lines


def load_golden():
    return json.loads(GOLDEN.read_text()) if GOLDEN.is_file() else {}


def self_test(binary):
    """Tiny runs of every workload through the digest and JSON path."""
    golden = load_golden()
    for w in WORKLOADS:
        for trace in (0, 1):
            report = run_driver(binary, w, DEFAULT_SEED, 0, trace, "tiny")
            result, lines = evaluate(report, golden)
            ok = (result["correct"] and result["failed"] == 0 and
                  result["attempted"] >= 1)
            print(f"self-test {w} trace={trace}: {'ok' if ok else 'FAIL'}")
            if not ok:
                print("\n".join(lines))
                return 1
    return 0


def update_golden(binary):
    golden = {}
    for size in ("tiny", "full"):
        golden[size] = {}
        for w in WORKLOADS:
            report = run_driver(binary, w, DEFAULT_SEED, 0, 0, size)
            golden[size][w] = report["reps"][0]["digest"]
            print(f"{size} {w}: {golden[size][w]} "
                  f"({report['stats']['digest_text']})")
    GOLDEN.write_text(json.dumps(golden, indent=2) + "\n")
    return 0


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int)
    ap.add_argument("--seconds", type=int)
    ap.add_argument("--trace", type=int, choices=[0, 1])
    ap.add_argument("--size", choices=["full", "tiny"], default="full")
    ap.add_argument("--self-test", action="store_true")
    ap.add_argument("--update-golden", action="store_true")
    args = ap.parse_args()
    if not (args.self_test or args.update_golden) and None in (
            args.seed, args.seconds, args.trace):
        ap.error("--seed, --seconds and --trace are required")

    try:
        t0 = time.monotonic()
        binary = build()
        print(f"perfbench: driver ready in {time.monotonic() - t0:.1f} s",
              file=sys.stderr)
        if args.self_test:
            return self_test(binary)
        if args.update_golden:
            return update_golden(binary)
        correct = True
        for w in [args.workload] if args.workload else WORKLOADS:
            report = run_driver(binary, w, args.seed, args.seconds,
                                args.trace, args.size)
            result, lines = evaluate(report, load_golden())
            print("\n".join(lines))
            print(json.dumps(result), flush=True)
            correct = correct and result["correct"]
    except BenchError as e:
        print(f"perfbench: {e}", file=sys.stderr)
        return 1
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
