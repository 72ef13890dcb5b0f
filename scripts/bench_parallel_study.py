#!/usr/bin/env python3
"""Trials per second of `run_study` at threads 1 and 2.

Times two studies at threads=1 and threads=2, both with K=5, B=500, n=50,
seed 0: S1 at d=0 with M=500, and the benchmark's 60-trial study, S1 and S7
at d=0 and 1 with M=15. A round runs, after a small warm-up study, the long
study once at each thread count and the short one 12 times, the thread
counts alternating; its time is the median over repeats. Each study's table
is hashed and the distinct hashes are reported, so a table that changes with
the thread count or between trees shows.

Each `--src [LABEL=]DIR` names a package source tree (default: this
checkout's `src`). With several, every round runs each tree in a fresh
interpreter, in turn, so two versions are measured on the same machine and
seeds; results are keyed by LABEL (default DIR):

    python3 scripts/bench_parallel_study.py --src before=../old/src --src after=src
"""

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time

import numpy as np

COMMON = dict(n_values=[50], K=5, B=500, seed=0)
# name: (study, repeats per round)
STUDIES = {
    "S1 d=0 M=500": (dict(scenarios=[1], d_values=[0], M=500, **COMMON), 1),
    "S1,S7 d=0,1 M=15": (dict(scenarios=[1, 7], d_values=[0, 1], M=15, **COMMON), 12),
}
THREADS = (1, 2)
ROUNDS = 5  # fresh interpreters per tree


def trials(study):
    return len(study["scenarios"]) * len(study["d_values"]) * len(study["n_values"]) * study["M"]


def measure(src):
    """One round in this interpreter: {study: {threads: {"seconds": .., "tables": ..}}}."""
    sys.path.insert(0, src)
    from flmgof import run_study

    run_study(scenarios=[1, 7], d_values=[0], M=2, **COMMON)  # lazy imports, noise variances
    rows = {}
    for name, (study, repeats) in STUDIES.items():
        seconds = {threads: [] for threads in THREADS}
        tables = {threads: set() for threads in THREADS}
        for _ in range(repeats):
            for threads in THREADS:
                started = time.perf_counter()
                results = run_study(**study, threads=threads)
                seconds[threads].append(time.perf_counter() - started)
                table = [(r.rejection_rates, r.mean_rank, r.sd_rank) for r in results]
                tables[threads].add(hashlib.sha256(repr(table).encode()).hexdigest()[:16])
        rows[name] = {
            threads: {"seconds": statistics.median(seconds[threads]),
                      "tables": sorted(tables[threads])}
            for threads in THREADS
        }
    return rows


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--src", action="append", help="package source tree")
    parser.add_argument("--worker", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.worker:
        json.dump(measure(args.worker), sys.stdout)
        return 0

    repo = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    sources = {}
    for spec in args.src or [os.path.join(repo, "src")]:
        label, _, src = spec.rpartition("=")
        sources[label or src] = src
    runs = {label: [] for label in sources}
    for _ in range(ROUNDS):
        for label, src in sources.items():
            command = [sys.executable, __file__, "--worker", os.path.abspath(src)]
            result = subprocess.run(command, check=True, capture_output=True, text=True)
            runs[label].append(json.loads(result.stdout))

    def summary(label, name, threads):
        rounds = [run[name][str(threads)] for run in runs[label]]
        seconds = [row["seconds"] for row in rounds]
        return {
            "trials_per_s": round(trials(STUDIES[name][0]) / statistics.median(seconds), 2),
            "seconds": [round(value, 4) for value in seconds],
            "tables": sorted({table for row in rounds for table in row["tables"]}),
        }

    report = {
        "settings": {"studies": STUDIES, "threads": THREADS, "rounds": ROUNDS},
        "machine": {"nproc": os.cpu_count(), "platform": platform.platform(),
                    "python": platform.python_version(), "numpy": np.__version__},
        "note": "trials/s from the median over rounds of each round's study"
                " wall time (the median over its repeats)",
        "results": {
            label: {
                name: {threads: summary(label, name, threads) for threads in THREADS}
                for name in STUDIES
            }
            for label in runs
        },
    }
    json.dump(report, sys.stdout, indent=1)
    print()
    return 0


if __name__ == "__main__":
    sys.exit(main())
