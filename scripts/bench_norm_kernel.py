#!/usr/bin/env python3
"""Per-stage milliseconds of one `test_flm` call across sample sizes.

Times `test_flm` at n in {50, 256, 1024, 2048, 4096}, K=5, B=1000, on
Brownian-motion curves with a linear response and fixed seeds. Stages come
from the benchmark's span tracer (`perfbench/spans.py`), which times each
layer from outside the package; `wall_ms` is the median untraced call.

Before/after runs over `--src [LABEL=]DIR` trees: see `_harness.py`.
"""

import os
import statistics
import sys
import time

import numpy as np

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import _harness  # noqa: E402

SIZES = (50, 256, 1024, 2048, 4096)
K, B = 5, 1000
ROUNDS, CALLS = 3, 3  # fresh interpreters per tree; timed calls in each
STAGES = (
    "fpc.compute_ms", "flm.sicc_ms", "flm.fit_ms", "rptest.directions_ms",
    "rptest.multipliers_ms", "rptest.replay_ms", "rptest.norms_ms",
    "rptest.fdr_ms", "rptest.other_ms",
)


def measure(src):
    """One round in this interpreter: {n: {"wall_ms": .., stage: ..}}."""
    sys.path[:0] = [src, _harness.REPO]
    from flmgof import gen_process, test_flm, uniform_grid
    from perfbench.spans import Tracer, layer_metrics

    grid = uniform_grid(101)
    rows = {}
    for n in SIZES:
        rng = np.random.Generator(np.random.Philox(n))
        sample = gen_process("bm", n, grid, rng)
        y = sample.data @ np.sin(np.pi * grid.points) / grid.size
        y = y + 0.1 * rng.standard_normal(n)
        test_flm(sample, y, K=K, B=B, seed=0)  # warm caches and lazy imports
        walls = []
        for _ in range(CALLS):
            start = time.perf_counter()
            test_flm(sample, y, K=K, B=B, seed=0)
            walls.append(1000.0 * (time.perf_counter() - start))
        tracer = Tracer()
        with tracer.active():
            for _ in range(CALLS):
                with tracer.span("rptest.test"):
                    test_flm(sample, y, K=K, B=B, seed=0)
        metrics = layer_metrics(tracer, "rptest.test")
        rows[n] = {"wall_ms": statistics.median(walls)}
        rows[n].update({stage: metrics[stage] for stage in STAGES})
    return rows


def report(sources, run):
    runs = _harness.rounds(sources, run, ROUNDS)

    def median_row(label, n):
        keys = runs[label][0][str(n)]
        return {
            key: round(statistics.median(run[str(n)][key] for run in runs[label]), 3)
            for key in keys
        }

    return {
        "settings": {"sizes": SIZES, "K": K, "B": B, "rounds": ROUNDS,
                     "calls_per_round": CALLS, "seed": 0},
        "note": "medians over rounds of per-call ms; stages are self times",
        "results": {label: {n: median_row(label, n) for n in SIZES} for label in runs},
    }


def main(argv=None):
    return _harness.main(__file__, __doc__, measure, report, argv)


if __name__ == "__main__":
    sys.exit(main())
