#!/usr/bin/env python3
"""Trials per second of `run_study` at threads 1 and 2.

Times two studies at threads=1 and threads=2, both with K=5, B=500, n=50,
seed 0: S1 at d=0 with M=500, and the benchmark's 60-trial study, S1 and S7
at d=0 and 1 with M=15. A round runs, after a small warm-up study, the long
study once at each thread count and the short one 12 times, the thread
counts alternating; its time is the median over repeats. Each study's table
is hashed and the distinct hashes are reported, so a table that changes with
the thread count or between trees shows.

Before/after runs over `--src [LABEL=]DIR` trees: see `_harness.py`.
"""

import hashlib
import os
import statistics
import sys
import time

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import _harness  # noqa: E402

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


def report(sources, run):
    runs = _harness.rounds(sources, run, ROUNDS)

    def summary(label, name, threads):
        rounds = [run[name][str(threads)] for run in runs[label]]
        seconds = [row["seconds"] for row in rounds]
        return {
            "trials_per_s": round(trials(STUDIES[name][0]) / statistics.median(seconds), 2),
            "seconds": [round(value, 4) for value in seconds],
            "tables": sorted({table for row in rounds for table in row["tables"]}),
        }

    return {
        "settings": {"studies": STUDIES, "threads": THREADS, "rounds": ROUNDS},
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


def main(argv=None):
    return _harness.main(__file__, __doc__, measure, report, argv)


if __name__ == "__main__":
    sys.exit(main())
