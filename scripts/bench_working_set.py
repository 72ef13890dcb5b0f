#!/usr/bin/env python3
"""Working set of one `test_flm` call: traced peak and resident-set rise.

Runs `test_flm` at K=5, B=1000 on Brownian-motion curves at G=201, with a
linear-functional response plus noise, at n = 2048, 4096 and 8192, each in a
fresh interpreter per tree and round. The worker makes the sample first, so
its input is not counted, then times one call and reads how far the call
raised the process's peak resident set (`rss_rise_mb`, from ru_maxrss). A
second call with the same seed runs under tracemalloc, whose peak, above
what was traced before the call, is given in units of one n x G float64
array (`traced_peak_units`), the size of the input's curves. numpy reports
its array buffers to tracemalloc, so the peak counts every array the call
holds at once; it does not see OpenBLAS's own buffers or a forked child's
memory. The sha256 of the report shows whether two trees report the same
bytes.

Before/after runs over `--src [LABEL=]DIR` trees: see `_harness.py`.
"""

import hashlib
import json
import os
import resource
import statistics
import sys
import time
import tracemalloc

import numpy as np

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import _harness  # noqa: E402

SIZES = (2048, 4096, 8192)
GRID_POINTS = 201
K, B = 5, 1000
ROUNDS = 3  # fresh interpreters per tree and size


def case(flmgof, n):
    """Brownian curves and a response y = <X, sin(2 pi t) + t> + noise/2."""
    rng = np.random.default_rng(n)
    grid = flmgof.uniform_grid(GRID_POINTS)
    steps = rng.standard_normal((n, GRID_POINTS - 1)) * np.sqrt(1.0 / (GRID_POINTS - 1))
    curves = np.hstack([np.zeros((n, 1)), np.cumsum(steps, axis=1)])
    slope = np.sin(2.0 * np.pi * grid.points) + grid.points
    y = curves @ (grid.weights * slope) + 0.5 * rng.standard_normal(n)
    return flmgof.FunctionalSample(grid=grid, data=curves), y


def measure(src, n):
    """One worker at n curves: {"rss_rise_mb", "traced_peak_units", "test_ms",
    "sha256"}."""
    sys.path.insert(0, src)
    import flmgof

    n = int(n)
    sample, y = case(flmgof, n)
    before = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    started = time.perf_counter()
    report = flmgof.test_flm(sample, y, K=K, B=B, seed=n)
    elapsed = time.perf_counter() - started
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    tracemalloc.start()
    try:
        traced = tracemalloc.get_traced_memory()[0]
        flmgof.test_flm(sample, y, K=K, B=B, seed=n)
        traced_peak = tracemalloc.get_traced_memory()[1] - traced
    finally:
        tracemalloc.stop()
    digest = hashlib.sha256(json.dumps(report.to_dict()).encode())
    return {
        "rss_rise_mb": (peak - before) / 1024.0,
        "traced_peak_units": traced_peak / sample.data.nbytes,
        "test_ms": 1000.0 * elapsed,
        "sha256": digest.hexdigest()[:16],
    }


def report(sources, run):
    runs = {label: {n: [] for n in SIZES} for label in sources}
    for index in range(ROUNDS):
        for n in SIZES:
            for label, src in _harness.in_turn(sources, index):
                runs[label][n].append(run(src, n))

    def summary(rows):
        rises = [round(r["rss_rise_mb"], 1) for r in rows]
        return {
            "traced_peak_units": [round(r["traced_peak_units"], 3) for r in rows],
            "rss_rise_mb": rises,
            "rss_rise_mb_median": statistics.median(rises),
            "test_ms_median": round(statistics.median(r["test_ms"] for r in rows), 1),
            "sha256": sorted({r["sha256"] for r in rows}),
        }

    return {
        "settings": {"sizes": SIZES, "grid_points": GRID_POINTS, "K": K, "B": B,
                     "rounds": ROUNDS},
        "note": "one fresh interpreter per tree, size and round, the trees taking"
                " alternating turns; traced_peak_units is the tracemalloc peak of"
                " one call in units of n * G * 8 bytes, rss_rise_mb how far the call"
                " raised ru_maxrss above its value once the input was made",
        "results": {label: {n: summary(rows[n]) for n in SIZES}
                    for label, rows in runs.items()},
    }


def main(argv=None):
    return _harness.main(__file__, __doc__, measure, report, argv)


if __name__ == "__main__":
    sys.exit(main())
