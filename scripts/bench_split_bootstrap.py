#!/usr/bin/env python3
"""Milliseconds of one `test_flm` call, and the sweep of the split threshold.

Times `test_flm` at K=5, B=1000 on Brownian-motion curves at G=201, with a
linear-functional response plus noise, at n = 256 and 512 (the paper's
regime and just above it) and n = 1024 to 8192 (large n). Each measurement
runs in a fresh interpreter that first holds as many MB of arrays as the
benchmark's process holds for that size (BALLAST_MB: 60 up to n=512, 180
from n=1024 up), because a fork's cost grows with the size of the process.
`test_ms` is the median of CALLS calls, each with its own seed; `rss_mb` is
the worker's peak RSS above the ballast. The sha256 of the calls' reports
shows whether two trees report the same bytes.

The sweep times every size at each of the SWEEP values of
`rptest.SPLIT_MIN_VALUES` as well, in one more worker per size and round
that cycles through the thresholds call by call, so drift in the machine's
speed falls on all of them alike. A bootstrap of n * B values is split over
forked workers once n * B reaches the threshold, so at each size the sweep
times the split bootstrap (thresholds up to n * B) and the serial one.

Before/after runs over `--src [LABEL=]DIR` trees: see `_harness.py`.
"""

import hashlib
import json
import os
import resource
import statistics
import sys
import time

import numpy as np

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import _harness  # noqa: E402

SIZES = (256, 512, 1024, 2048, 4096, 8192)
GRID_POINTS = 201
K, B = 5, 1000
BALLAST_MB = {256: 60, 512: 60, 1024: 180, 2048: 180, 4096: 180, 8192: 180}
SWEEP = (2**17, 2**18, 2**19, 2**20, 2**21, 2**22, 2**23)
ROUNDS, CALLS = 5, 5  # fresh interpreters per measurement; timed calls in each


def case(flmgof, n):
    """Brownian curves and a response y = <X, sin(2 pi t) + t> + noise/2."""
    rng = np.random.default_rng(n)
    grid = flmgof.uniform_grid(GRID_POINTS)
    steps = rng.standard_normal((n, GRID_POINTS - 1)) * np.sqrt(1.0 / (GRID_POINTS - 1))
    curves = np.hstack([np.zeros((n, 1)), np.cumsum(steps, axis=1)])
    slope = np.sin(2.0 * np.pi * grid.points) + grid.points
    y = curves @ (grid.weights * slope) + 0.5 * rng.standard_normal(n)
    return flmgof.FunctionalSample(grid=grid, data=curves), y


def measure(src, n, sweep=""):
    """One worker at n curves: {"test_ms", "rss_mb", "sha256"} as the tree
    is, or with `sweep` set {threshold: median test ms}."""
    sys.path.insert(0, src)
    import flmgof
    from flmgof import rptest

    n = int(n)
    ballast = np.ones(BALLAST_MB[n] * 2**20 // 8)
    sample, y = case(flmgof, n)
    if sweep:
        walls = {size: [] for size in SWEEP}
        for call in range(CALLS):
            for size in SWEEP if call % 2 else SWEEP[::-1]:
                rptest.SPLIT_MIN_VALUES = size
                started = time.perf_counter()
                flmgof.test_flm(sample, y, K=K, B=B, seed=call)
                walls[size].append(1000.0 * (time.perf_counter() - started))
        return {size: statistics.median(times) for size, times in walls.items()}
    before = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    walls, digest = [], hashlib.sha256()
    for call in range(CALLS):
        started = time.perf_counter()
        report = flmgof.test_flm(sample, y, K=K, B=B, seed=call)
        walls.append(1000.0 * (time.perf_counter() - started))
        digest.update(json.dumps(report.to_dict()).encode())
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    del ballast
    return {
        "test_ms": statistics.median(walls),
        "rss_mb": (peak - before) / 1024.0,
        "sha256": digest.hexdigest()[:16],
    }


def report(sources, run):
    runs = {label: {n: [] for n in SIZES} for label in sources}
    sweeps = {label: {size: {n: [] for n in SIZES} for size in SWEEP}
              for label in sources}
    for index in range(ROUNDS):
        for n in SIZES:
            for label, src in _harness.in_turn(sources, index):
                runs[label][n].append(run(src, n))
            for label, src in _harness.in_turn(sources, index):
                row = run(src, n, "sweep")
                for size in SWEEP:
                    sweeps[label][size][n].append(row[str(size)])

    def median_row(rows):
        return {
            "test_ms": round(statistics.median(r["test_ms"] for r in rows), 2),
            "rss_mb": round(statistics.median(r["rss_mb"] for r in rows), 2),
            "sha256": sorted({r["sha256"] for r in rows}),
        }

    return {
        "settings": {"sizes": SIZES, "grid_points": GRID_POINTS, "K": K, "B": B,
                     "ballast_mb": BALLAST_MB, "rounds": ROUNDS,
                     "calls_per_round": CALLS, "sweep": SWEEP},
        "note": "medians over rounds; test_ms is the median call of a round,"
                " rss_mb the worker's peak RSS above the ballast; the sweep's"
                " thresholds take turns call by call in one worker, and a"
                " threshold at most n * B splits the bootstrap at that n",
        "results": {label: {n: median_row(rows[n]) for n in SIZES}
                    for label, rows in runs.items()},
        "sweep_test_ms": {
            label: {size: {n: round(statistics.median(times[n]), 2) for n in SIZES}
                    for size, times in by_size.items()}
            for label, by_size in sweeps.items()
        },
    }


def main(argv=None):
    return _harness.main(__file__, __doc__, measure, report, argv)


if __name__ == "__main__":
    sys.exit(main())
