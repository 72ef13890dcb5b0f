#!/usr/bin/env python3
"""Trials per second of `run_study` at threads 1 and 2.

Times one study, S1 at d=0, n=50, M=500, K=5, B=500, seed 0, at threads=1
and threads=2, after a small warm-up study. Each round's table is hashed and
the distinct hashes are reported, so a table that changes with the thread
count or between trees shows.

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

STUDY = dict(scenarios=[1], d_values=[0], n_values=[50], M=500, K=5, B=500, seed=0)
THREADS = (1, 2)
ROUNDS = 5  # fresh interpreters per tree


def measure(src):
    """One round in this interpreter: {threads: {"seconds": .., "table": ..}}."""
    sys.path.insert(0, src)
    from flmgof import run_study

    run_study(**{**STUDY, "M": 4})  # lazy imports and the noise variance
    rows = {}
    for threads in THREADS:
        started = time.perf_counter()
        results = run_study(**STUDY, threads=threads)
        seconds = time.perf_counter() - started
        table = [(r.rejection_rates, r.mean_rank, r.sd_rank) for r in results]
        digest = hashlib.sha256(repr(table).encode()).hexdigest()
        rows[threads] = {"seconds": seconds, "table": digest[:16]}
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

    def summary(label, threads):
        rounds = [run[str(threads)] for run in runs[label]]
        seconds = [row["seconds"] for row in rounds]
        return {
            "trials_per_s": round(STUDY["M"] / statistics.median(seconds), 2),
            "seconds": [round(value, 3) for value in seconds],
            "tables": sorted({row["table"] for row in rounds}),
        }

    report = {
        "settings": {**STUDY, "threads": THREADS, "rounds": ROUNDS},
        "machine": {"nproc": os.cpu_count(), "platform": platform.platform(),
                    "python": platform.python_version(), "numpy": np.__version__},
        "note": "trials/s from the median study wall time over rounds",
        "results": {
            label: {threads: summary(label, threads) for threads in THREADS}
            for label in runs
        },
    }
    json.dump(report, sys.stdout, indent=1)
    print()
    return 0


if __name__ == "__main__":
    sys.exit(main())
