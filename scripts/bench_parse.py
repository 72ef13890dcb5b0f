#!/usr/bin/env python3
"""Milliseconds and peak RSS of parsing a curves CSV, and the range-size sweep.

Times `cli.read_functional_sample` on Brownian-motion curves at G=201 written
with `%.17g`, as the benchmark's `test` workloads write them: n = 200 and 500
(paper-regime files of 0.8 and 2 MB), n = 1024 (4 MB) and n = 2048, 4096
and 8192 (large-n files of 8, 17 and 34 MB). Each measurement runs in a
fresh interpreter that first holds as many MB of arrays as the benchmark's
process holds for that workload (BALLAST_MB: 60 for paper-regime files, 180
from n=1024 up), because a fork's cost grows with the size of the process. `parse_ms` is the median
of CALLS parses; `rss_mb` is the worker's peak RSS above the ballast. The
sha256 of the parsed array shows whether two trees parse the same bits.

The sweep times every file at each of the SWEEP sizes of
`forking.MIN_RANGE_BYTES` as well, in one more worker per file and round that
cycles through the sizes call by call, so drift in the machine's speed falls
on all of them alike. A file is split once it holds two ranges.

Before/after runs over `--src [LABEL=]DIR` trees: see `_harness.py`.
"""

import hashlib
import os
import resource
import shutil
import statistics
import sys
import tempfile
import time

import numpy as np

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import _harness  # noqa: E402

SIZES = (200, 500, 1024, 2048, 4096, 8192)
GRID_POINTS = 201
BALLAST_MB = {200: 60, 500: 60, 1024: 180, 2048: 180, 4096: 180, 8192: 180}
SWEEP = (2**18, 2**19, 2**20, 2**21, 2**22, 2**23)
ROUNDS, CALLS = 5, 5  # fresh interpreters per measurement; timed parses in each


def write_curves(path, n):
    rng = np.random.default_rng(n)
    steps = rng.standard_normal((n, GRID_POINTS - 1)) * np.sqrt(1.0 / (GRID_POINTS - 1))
    curves = np.hstack([np.zeros((n, 1)), np.cumsum(steps, axis=1)])
    np.savetxt(path, curves, delimiter=",", fmt="%.17g")


def measure(src, path, n, sweep=""):
    """One worker on the file of n curves: {"parse_ms", "rss_mb", "sha256"}
    as the tree is, or with `sweep` set {range size: median parse ms}."""
    sys.path.insert(0, src)
    from flmgof import cli

    n = int(n)
    ballast = np.ones(BALLAST_MB[n] * 2**20 // 8)
    if sweep:
        from flmgof import forking

        walls = {size: [] for size in SWEEP}
        for call in range(CALLS):
            for size in SWEEP if call % 2 else SWEEP[::-1]:
                forking.MIN_RANGE_BYTES = size
                started = time.perf_counter()
                cli.read_functional_sample(path)
                walls[size].append(1000.0 * (time.perf_counter() - started))
        return {size: statistics.median(times) for size, times in walls.items()}
    before = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    walls = []
    for _ in range(CALLS):
        started = time.perf_counter()
        sample = cli.read_functional_sample(path)
        walls.append(1000.0 * (time.perf_counter() - started))
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    del ballast
    return {
        "parse_ms": statistics.median(walls),
        "rss_mb": (peak - before) / 1024.0,
        "sha256": hashlib.sha256(sample.data.tobytes()).hexdigest()[:16],
    }


def report(sources, run):
    work = tempfile.mkdtemp(prefix="bench_parse-")
    try:
        files = {}
        for n in SIZES:
            files[n] = os.path.join(work, f"curves{n}.csv")
            write_curves(files[n], n)
        runs = {label: {n: [] for n in SIZES} for label in sources}
        sweeps = {label: {size: {n: [] for n in SIZES} for size in SWEEP}
                  for label in sources}
        for index in range(ROUNDS):
            for n in SIZES:
                for label, src in _harness.in_turn(sources, index):
                    runs[label][n].append(run(src, files[n], n))
                for label, src in _harness.in_turn(sources, index):
                    row = run(src, files[n], n, "sweep")
                    for size in SWEEP:
                        sweeps[label][size][n].append(row[str(size)])
        bytes_per_file = {n: os.path.getsize(files[n]) for n in SIZES}
    finally:
        shutil.rmtree(work, ignore_errors=True)

    def median_row(rows):
        return {
            "parse_ms": round(statistics.median(r["parse_ms"] for r in rows), 2),
            "rss_mb": round(statistics.median(r["rss_mb"] for r in rows), 2),
            "sha256": sorted({r["sha256"] for r in rows}),
        }

    return {
        "settings": {"sizes": SIZES, "grid_points": GRID_POINTS, "format": "%.17g",
                     "ballast_mb": BALLAST_MB, "rounds": ROUNDS,
                     "calls_per_round": CALLS, "file_bytes": bytes_per_file},
        "note": "medians over rounds; parse_ms is the median call of a round,"
                " rss_mb the worker's peak RSS above the ballast; the sweep's"
                " range sizes take turns call by call in one worker",
        "results": {label: {n: median_row(rows[n]) for n in SIZES}
                    for label, rows in runs.items()},
        "sweep_parse_ms": {
            label: {size: {n: round(statistics.median(times[n]), 2) for n in SIZES}
                    for size, times in by_size.items()}
            for label, by_size in sweeps.items()
        },
    }


def main(argv=None):
    return _harness.main(__file__, __doc__, measure, report, argv)


if __name__ == "__main__":
    sys.exit(main())
