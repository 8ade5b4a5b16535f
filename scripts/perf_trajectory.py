#!/usr/bin/env python3
"""Write the perf trajectory file BENCH_perfbench.json from perfbench runs.

    python3 scripts/perf_trajectory.py

Runs every workload declared in BENCHMARK.json RUNS times through
perfbench/run.py (SECONDS of wall time each, seed SEED, end-to-end
metrics only) and records, per workload: the median, q1 and q3 of
ns_per_request over the runs, the median setup_s and peak_rss_mb,
whether every run's results were correct, and the failed operations.
The git sha and core count of the measuring machine ride along. Takes
about RUNS x SECONDS x workloads of wall time, plus the driver build.
"""

import json
import os
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / "BENCH_perfbench.json"
RUNS = 5
SECONDS = 10
SEED = 42


def git_sha():
    sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, text=True,
                         stdout=subprocess.PIPE, check=True).stdout.strip()
    dirty = subprocess.run(["git", "status", "--porcelain", "--",
                            "src", "tools", "perfbench"], cwd=ROOT,
                           text=True, stdout=subprocess.PIPE,
                           check=True).stdout.strip()
    return sha + ("-dirty" if dirty else "")


def run_once(workload):
    """One perfbench run; its result object (the last stdout line)."""
    p = subprocess.run([sys.executable, "perfbench/run.py", "--workload",
                        workload, "--seed", str(SEED), "--seconds",
                        str(SECONDS), "--trace", "0"],
                       cwd=ROOT, text=True, stdout=subprocess.PIPE)
    if p.returncode != 0:
        sys.exit(f"perfbench {workload} exited {p.returncode}")
    return json.loads(p.stdout.strip().splitlines()[-1])


def summarize(results):
    def values(name):
        return [r["metrics"][name]["value"] for r in results]

    ns = values("ns_per_request")
    q1, med, q3 = statistics.quantiles(ns, n=4, method="inclusive")
    return {
        "ns_per_request": {"median": med, "q1": q1, "q3": q3, "runs": ns},
        "setup_s": statistics.median(values("setup_s")),
        "peak_rss_mb": statistics.median(values("peak_rss_mb")),
        "correct": all(r["correct"] for r in results),
        "failed": sum(r["failed"] for r in results),
    }


def main():
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    workloads = {}
    for w in declared["workloads"]:
        name = w["name"]
        results = []
        for i in range(RUNS):
            results.append(run_once(name))
            print(f"{name} run {i + 1}/{RUNS}: ns_per_request "
                  f"{results[-1]['metrics']['ns_per_request']['value']:.0f}",
                  flush=True)
        workloads[name] = summarize(results)
    doc = {
        "tool": "perfbench",
        "git_sha": git_sha(),
        "cores": os.cpu_count(),
        "runs": RUNS,
        "seconds": SECONDS,
        "seed": SEED,
        "workloads": workloads,
    }
    OUT.write_text(json.dumps(doc, indent=2) + "\n")
    print(f"wrote {OUT.relative_to(ROOT)}")


if __name__ == "__main__":
    main()
