#!/usr/bin/env python3
"""Per-stage milliseconds of one `test_flm` call across sample sizes, and a
sweep of the norm kernel under its rule and with each cumulation forced.

Times `test_flm` at n in {50, 256, 1024, 2048, 4096}, K=5, B=1000, on
Brownian-motion curves with a linear response and fixed seeds. Stages come
from the benchmark's span tracer (`perfbench/spans.py`), which times each
layer from outside the package; `wall_ms` is the median untraced call.
Beside them, `record_rows` is the number of rows the call's record of
sorted layouts holds, which is what the norm kernel scores, and
`distinct_rows` the number of distinct (order, weights) rows among them: a
tree that scores each distinct direction once has the two equal, one that
scores all K directions has `record_rows` = K.

The sweep times the KS and CvM norms of one bootstrap block of L levels, b
replicates each, for K=5 directions, as the (n, L, b) blocks in SWEEP on
untied projections and in TIED_SWEEP on projections that hold every value
twice, as duplicated curves give: the record's one `norms` call under the
tree's own rule (`rule_us`, the figure to compare between trees), and with
each cumulation forced by setting SIDE_BY_SIDE_MIN_ROW, every group by one
np.add per row (`row_adds_us`) or by one np.cumsum (`cumsum_us`); groups
hold as many rows as fit in BOOTSTRAP_BLOCK values, at least one. It covers
a study's blocks (n=50, b = 128, 244 and 500, L = 1..3), rows of K * L * b
values on either side of SIDE_BY_SIDE_MIN_ROW, blocks on either side of the
BOOTSTRAP_BLOCK budget, one-row groups of one level at n = 100..400 with b
as `test_flm` takes it at B=1000, and the tied blocks of a study and of
`test_flm` at n = 200 and 500, B=1000. Values are medians over rounds of the
mean microseconds per block. The kernel reuses its scratch array, so past
the budget it times the work on arrays larger than the caches, not the page
faults of making them.

`wall_ms` is the median over ROUNDS rounds of the median of CALLS calls,
the trees taking turns. With 3 of each, two trees whose norm stage timed
alike (9.4 and 9.9 ms) read 28.6 and 36.1 ms at n=1024 on a shared 2-vCPU
host; with 7 rounds of 15 calls, four runs of two trees that run the same
`test_flm` path read within 9% of each other at n = 1024..4096 there.

Before/after runs over `--src [LABEL=]DIR` trees: see `_harness.py`.
"""

import math
import os
import statistics
import sys
import time

import numpy as np

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import _harness  # noqa: E402

SIZES = (50, 256, 1024, 2048, 4096)
K, B = 5, 1000
ROUNDS, CALLS = 7, 15  # fresh interpreters per tree; timed calls in each
# (n, levels, width) blocks of the kernel sweep
SWEEP = (
    *((50, levels, width) for width in (128, 244, 500) for levels in (1, 2, 3)),
    # rows of K * L * b = 160, 240, 320, 480 and 640 values within the budget
    *((n, 1, width) for n in (50, 200, 400) for width in (32, 48, 64, 96, 128)
      if n * K * width <= 2**17),
    (800, 1, 32),
    # past the budget of 2**17 values for K rows; (200, 1, 654) and the last
    # three are one-row groups of one level, as test_flm has them at B=1000
    (100, 2, 244), (200, 1, 654), (50, 5, 500),
    (100, 1, 1000), (300, 1, 436), (400, 1, 326),
)
# tied (n, levels, width) blocks: a study's, and test_flm's at B=1000
TIED_SWEEP = ((50, 2, 244), (200, 1, 654), (500, 1, 262))
SWEEP_REPEATS, SWEEP_CALLS = 7, 40  # timed repeats per round; blocks in each
STAGES = (
    "fpc.compute_ms", "flm.sicc_ms", "flm.fit_ms", "rptest.directions_ms",
    "rptest.multipliers_ms", "rptest.replay_ms", "rptest.norms_ms",
    "rptest.fdr_ms", "rptest.other_ms",
)


def measure(src):
    """One round in this interpreter: {"calls": {n: {"wall_ms": .., stage: ..}},
    "sweep": `sweep`'s rows}."""
    sys.path[:0] = [src, _harness.REPO]
    from flmgof import gen_process, rptest, test_flm, uniform_grid
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
        rows[n].update(record_rows(rptest, sample))
    return {"calls": rows, "sweep": sweep(rptest)}


def record_rows(rptest, sample):
    """{"record_rows": .., "distinct_rows": ..} of the record of sorted
    layouts that a `test_flm` call on `sample` (K, B, seed 0) builds."""
    record = rptest._prepare(sample, rptest._Settings(K=K, B=B, seed=0)).directions
    rows = {(order.tobytes(), weights.tobytes())
            for order, weights in zip(record.order, record.weights)}
    return {"record_rows": len(record.order), "distinct_rows": len(rows)}


def kernels(rptest, projections, columns, kind, rule):
    """{"rule_us": call, "row_adds_us": call, "cumsum_us": call}, each call
    giving the norms of the K directions for the (n, L, b) `columns`: under
    the kernel's rule, whose SIDE_BY_SIDE_MIN_ROW is `rule`, and with every
    group cumulated by row adds or by np.cumsum."""
    record = rptest._SortedProjections(projections)

    def forced(min_row):
        def call():
            rptest.SIDE_BY_SIDE_MIN_ROW = min_row
            return record.norms(columns, kind)
        return call

    return {"rule_us": forced(rule), "row_adds_us": forced(0),
            "cumsum_us": forced(math.inf)}


def sweep(rptest):
    """{"n=50 L=2 b=128": {"ks_rule_us": .., ..}, ..}, tied blocks keyed
    "n=.. L=.. b=.. tied"."""
    rule = rptest.SIDE_BY_SIDE_MIN_ROW
    rows = {}
    blocks = [(*block, False) for block in SWEEP] + [(*block, True) for block in TIED_SWEEP]
    for n, levels, width, tied in blocks:
        rng = np.random.Generator(np.random.Philox(n * levels * width))
        projections = rng.standard_normal((K, n))
        if tied:  # every curve twice
            projections = np.tile(projections[:, : n // 2], 2)
        columns = rng.standard_normal((n, levels, width))
        row = {"values": n * K * levels * width, "row": K * levels * width}
        for kind in ("cvm", "ks"):
            calls = kernels(rptest, projections, columns, kind, rule)
            times = {name: [] for name in calls}
            for _ in range(SWEEP_REPEATS):  # the kernels take turns
                for name, kernel in calls.items():
                    kernel()
                    start = time.perf_counter()
                    for _ in range(SWEEP_CALLS):
                        kernel()
                    times[name].append(1e6 * (time.perf_counter() - start) / SWEEP_CALLS)
            row.update({f"{kind}_{name}": statistics.median(values)
                        for name, values in times.items()})
        rows[f"n={n} L={levels} b={width}" + " tied" * tied] = row
    rptest.SIDE_BY_SIDE_MIN_ROW = rule
    return rows


def report(sources, run):
    runs = _harness.rounds(sources, run, ROUNDS)

    def median_row(label, part, key):
        first = runs[label][0][part][key]
        return {
            name: round(statistics.median(run[part][key][name] for run in runs[label]), 3)
            for name in first
        }

    return {
        "settings": {"sizes": SIZES, "K": K, "B": B, "rounds": ROUNDS,
                     "calls_per_round": CALLS, "seed": 0, "sweep": SWEEP,
                     "tied_sweep": TIED_SWEEP,
                     "sweep_repeats": SWEEP_REPEATS, "sweep_calls": SWEEP_CALLS},
        "note": "medians over rounds: per-call ms, stages as self times; "
                "per-block microseconds in the sweep",
        "results": {
            label: {
                "calls": {n: median_row(label, "calls", str(n)) for n in SIZES},
                "sweep": {key: median_row(label, "sweep", key)
                          for key in runs[label][0]["sweep"]},
            }
            for label in runs
        },
    }


def main(argv=None):
    return _harness.main(__file__, __doc__, measure, report, argv)


if __name__ == "__main__":
    sys.exit(main())
