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
Each worker runs OpenBLAS on one thread, as `run_study` runs its trials.

Each `--src [LABEL=]DIR` names a package source tree (default: this
checkout's `src`). With several, every round runs each tree in a fresh
interpreter, in turn, so two versions are measured on the same machine, seeds
and tracer; results are keyed by LABEL (default DIR):

    python3 scripts/bench_trial.py --src before=../old/src --src after=src
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


def measure(src):
    """One round in this interpreter: {"S1/i": {"wall_ms": .., stage: ..}, ..}."""
    sys.path[:0] = [src, REPO]
    from flmgof import simlab
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
        row["hooks_not_found"] = sorted(tracer.missing)
        rows[f"{spec.id}/{sampler}"] = row
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
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1")
    runs = {label: [] for label in sources}
    for _ in range(ROUNDS):
        for label, src in sources.items():
            command = [sys.executable, __file__, "--worker", os.path.abspath(src)]
            result = subprocess.run(
                command, check=True, capture_output=True, text=True, env=env
            )
            runs[label].append(json.loads(result.stdout))

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
    report = {
        "settings": {"cases": names, "d_values": D_VALUES, "n": N, "K": K,
                     "B": B, "kind": "cvm", "r": 0.95, "seed": 0,
                     "trials": TRIALS, "rounds": ROUNDS, "passes": PASSES,
                     "blas_threads": 1},
        "machine": {"nproc": os.cpu_count(), "platform": platform.platform(),
                    "python": platform.python_version(), "numpy": np.__version__},
        "note": "medians over rounds of per-trial ms; stages are self times",
        "results": {
            label: {name: median_row(label, name) for name in names} for label in runs
        },
    }
    json.dump(report, sys.stdout, indent=1)
    print()
    return 0


if __name__ == "__main__":
    sys.exit(main())
