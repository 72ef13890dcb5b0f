#!/usr/bin/env python3
"""Per-stage milliseconds of one `test_flm` call across sample sizes.

Times `test_flm` at n in {50, 256, 1024, 2048, 4096}, K=5, B=1000, on
Brownian-motion curves with a linear response and fixed seeds. Stages come
from the benchmark's span tracer (`perfbench/spans.py`), which times each
layer from outside the package; `wall_ms` is the median untraced call.

Each `--src [LABEL=]DIR` names a package source tree (default: this
checkout's `src`). With several, every round runs each tree in a fresh
interpreter, in turn, so two versions are measured on the same machine, seeds
and tracer; results are keyed by LABEL (default DIR):

    python3 scripts/bench_norm_kernel.py --src before=../old/src --src after=src
"""

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time

import numpy as np

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
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
    sys.path[:0] = [src, REPO]
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


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--src", action="append", help="package source tree")
    parser.add_argument("--worker", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.worker:
        json.dump(measure(args.worker), sys.stdout)
        return 0

    sources = {}
    for spec in args.src or [os.path.join(REPO, "src")]:
        label, _, src = spec.rpartition("=")
        sources[label or src] = src
    runs = {label: [] for label in sources}
    for _ in range(ROUNDS):
        for label, src in sources.items():
            command = [sys.executable, __file__, "--worker", os.path.abspath(src)]
            result = subprocess.run(command, check=True, capture_output=True, text=True)
            runs[label].append(json.loads(result.stdout))

    def median_row(label, n):
        keys = runs[label][0][str(n)]
        return {
            key: round(statistics.median(run[str(n)][key] for run in runs[label]), 3)
            for key in keys
        }

    report = {
        "settings": {"sizes": SIZES, "K": K, "B": B, "rounds": ROUNDS,
                     "calls_per_round": CALLS, "seed": 0},
        "machine": {"nproc": os.cpu_count(), "platform": platform.platform(),
                    "python": platform.python_version(), "numpy": np.__version__},
        "note": "medians over rounds of per-call ms; stages are self times",
        "results": {label: {n: median_row(label, n) for n in SIZES} for label in runs},
    }
    json.dump(report, sys.stdout, indent=1)
    print()
    return 0


if __name__ == "__main__":
    sys.exit(main())
