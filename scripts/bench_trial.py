#!/usr/bin/env python3
"""Per-stage milliseconds of one Monte Carlo trial of `simulate`.

Times `simlab._study_trial`, the unit of work of `run_study`: path
generation, the response, and one `test_flm` call at n=50, K=5, B=500, the
settings of the benchmark's simulate workloads. Scenarios S1 (Brownian
motion) and S7 (Ornstein-Uhlenbeck) with the default direction sampler "i",
and S1 with sampler "iii" (Ornstein-Uhlenbeck directions), are timed apart,
each over TRIALS trials split evenly between d=0 and d=1. Stages come from the benchmark's span
tracer (`perfbench/spans.py`), which times each layer from outside the
package; `wall_ms` is the median of the untraced passes' per-trial means.
`simlab.trial_ms` is the trial's own self time, outside every traced layer.
`replicates_d0` and `replicates_d1` are the mean bootstrap replicates drawn
per trial at each d, counted in one more pass, out of B unless the trial's
bootstrap stopped early. Each worker runs OpenBLAS on one thread, as
`run_study` runs its trials.

Before/after runs over `--src [LABEL=]DIR` trees: see `_harness.py`.
"""

import os
import statistics
import sys
import time

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import _harness  # noqa: E402

CASES = ((1, "i"), (7, "i"), (1, "iii"))  # (scenario, direction sampler)
D_VALUES = (0, 1)
N, K, B = 50, 5, 500
TRIALS = 60  # per scenario and pass, split evenly between the d values
ROUNDS, PASSES = 5, 3  # fresh interpreters per tree; untraced passes in each
STAGES = (
    "simlab.gen_process_ms", "simlab.gen_response_ms", "funspace.center_ms",
    "fpc.compute_ms", "flm.sicc_ms", "flm.fit_ms", "rptest.directions_ms",
    "rptest.multipliers_ms", "rptest.replay_ms", "rptest.norms_ms",
    "rptest.fdr_ms", "rptest.other_ms",
)


def replicates_drawn(rptest, simlab, payloads):
    """Mean bootstrap replicates drawn per trial, keyed by d."""
    draw = rptest.golden_multipliers
    drawn = []

    def counting(rng, size):
        drawn.append(size[0])
        return draw(rng, size)

    totals = dict.fromkeys(D_VALUES, 0)
    rptest.golden_multipliers = counting
    try:
        for payload in payloads:
            drawn.clear()
            simlab._study_trial(payload)
            totals[payload[1]] += sum(drawn)
    finally:
        rptest.golden_multipliers = draw
    trials = len(payloads) / len(D_VALUES)
    return {f"replicates_d{d}": totals[d] / trials for d in D_VALUES}


def measure(src):
    """One round in this interpreter: {"S1/i": {"wall_ms": .., stage: ..}, ..}."""
    sys.path[:0] = [src, _harness.REPO]
    from flmgof import rptest, simlab
    from perfbench.spans import Tracer, layer_metrics

    rows = {}
    for index, sampler in CASES:
        spec = simlab.scenario(index)
        spec.sigma2  # the study computes it once, before its trials
        payloads = [
            (spec, D_VALUES[trial % len(D_VALUES)], N, K, B, "cvm", 0.95, sampler, 0,
             trial)
            for trial in range(TRIALS)
        ]
        for payload in payloads[: len(D_VALUES)]:
            simlab._study_trial(payload)  # warm caches and lazy imports
        walls = []
        for _ in range(PASSES):
            start = time.perf_counter()
            for payload in payloads:
                simlab._study_trial(payload)
            walls.append(1000.0 * (time.perf_counter() - start) / TRIALS)
        tracer = Tracer()
        with tracer.active():
            for payload in payloads:
                simlab._study_trial(payload)
        metrics = layer_metrics(tracer, "simlab.trial")
        row = {"wall_ms": statistics.median(walls)}
        row.update({stage: metrics[stage] for stage in STAGES})
        row["simlab.trial_ms"] = (
            1000.0 * tracer.self_times("simlab.trial")["simlab.trial"] / TRIALS
        )
        row["rptest.direction_attempts_per_draw"] = metrics[
            "rptest.direction_attempts_per_draw"
        ]
        row.update(replicates_drawn(rptest, simlab, payloads))
        row["hooks_not_found"] = sorted(tracer.missing)
        rows[f"{spec.id}/{sampler}"] = row
    return rows


def report(sources, run):
    runs = _harness.rounds(sources, run, ROUNDS)

    def median_row(label, name):
        first = runs[label][0][name]
        row = {
            key: round(statistics.median(run[name][key] for run in runs[label]), 3)
            for key, value in first.items()
            if isinstance(value, float)
        }
        row["hooks_not_found"] = sorted(
            {hook for run in runs[label] for hook in run[name]["hooks_not_found"]}
        )
        return row

    names = [f"S{index}/{sampler}" for index, sampler in CASES]
    return {
        "settings": {"cases": names, "d_values": D_VALUES, "n": N, "K": K,
                     "B": B, "kind": "cvm", "r": 0.95, "seed": 0,
                     "trials": TRIALS, "rounds": ROUNDS, "passes": PASSES,
                     "blas_threads": 1},
        "note": "medians over rounds of per-trial ms; stages are self times",
        "results": {
            label: {name: median_row(label, name) for name in names} for label in runs
        },
    }


def main(argv=None):
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1")
    return _harness.main(__file__, __doc__, measure, report, argv, env)


if __name__ == "__main__":
    sys.exit(main())
