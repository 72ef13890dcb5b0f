"""Benchmark of the flmgof program: `flmgof test` latency, `simulate` throughput.

    python3 perfbench/run.py --workload paper-regime --seed 1 --seconds 12 --trace 0

Run from anywhere inside a checkout of the repository; the program is
imported from the checkout's `src/`. Workloads, each a closed loop with one
caller in one process:

  paper-regime  `cli.main(["test", ...])` over nine datasets, n = 50..500,
                K=5, B=1000: both nulls, both statistics, tied projections.
  large-n       the same call at n = 2048, 4096, 8192, both statistics.
  simulate-t1   `run_study` for S1 and S7, d = 0 and 1, n=50, M=15 per cell,
                K=5, B=500, at threads=1.
  simulate-t2   the same study at threads=2 (two pool workers).

With `--trace 0` a run measures the end-to-end metrics: set-up time in fresh
interpreters, then, after a warm-up, the latency of one operation (one `test`
call, or one whole study) and the curves put through the program per second.
The host's speed drifts by tens of percent, so the times of work done in one
process (all but the threads=2 studies) are rescaled to a reference machine
speed, measured with a kernel of the benchmark's own (see workloads.Speed);
the measured values are printed next to them.

With `--trace 1` it instead runs each operation untraced and traced in turn
and reports per-stage self times, not rescaled, and computed counts (see
spans.py). Every output is checked (see checks.py) and failures are counted
in `failed`. The last line of stdout is one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

BLAS thread variables are left as found and reported with the environment.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import checks
import numpy as np
import workloads
from spans import Tracer, layer_metrics
from workloads import ROOT, SRC, STUDY, TEST_MIXES, MissingProgram

# The latency tail is the sample with this many samples beyond it; with at
# least twice as many samples plus one, it is never below the median.
TAIL_BEYOND = 10
MIN_LATENCY_SAMPLES = 2 * TAIL_BEYOND + 1
SETUP_PROBES = {"paper-regime": 7, "large-n": 3, "simulate-t1": 3, "simulate-t2": 3}
# Stage self-times must explain this share of a traced `test` call.
MIN_TRACE_COVERAGE = 0.9
PROBE_TIMEOUT_S = 120
THREAD_VARIABLES = (
    "OPENBLAS_NUM_THREADS",
    "OMP_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
)


class Outcome:
    """Operations attempted and failed, with the reason for each failure."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.problems = []

    def record(self, problems, operations=1):
        self.attempted += operations
        if problems:
            self.failed += operations
            self.problems.extend(problems)


def parse_args(argv, benchmark):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    names = [workload["name"] for workload in benchmark["workloads"]]
    parser.add_argument("--workload", required=True, choices=names)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    return args


def environment():
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_build = f"{blas['name']} {blas['version']}"
    except (TypeError, KeyError):
        blas_build = "unknown"
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "blas": blas_build,
        "blas_thread_variables": {
            name: os.environ.get(name, "unset") for name in THREAD_VARIABLES
        },
    }


def peak_rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def summarize(ops, setups, rss, at_reference_speed):
    """End-to-end metrics from the timed operations and set-up probes, each
    (seconds, speed scale, curves), as measured or at the reference speed."""

    def times(records):
        return [t * scale if at_reference_speed else t for t, scale, _ in records]

    walls = times(ops)
    metrics = latency(walls)
    metrics["curves_per_s"] = sum(curves for _, _, curves in ops) / sum(walls)
    metrics["peak_rss_mb"] = rss
    metrics["setup_s"] = statistics.median(times(setups))
    return metrics


def latency(walls):
    """Median and the sample with TAIL_BEYOND samples beyond it, in ms."""
    ordered = sorted(walls)
    position = len(ordered) - 1 - TAIL_BEYOND
    return {
        "latency_p50_ms": 1000.0 * statistics.median(ordered),
        "latency_tail_ms": 1000.0 * ordered[position],
        "tail_percentile": 100.0 * (position + 1) / len(ordered),
        "samples": len(ordered),
    }


def measure_setup(workload, spec, outcome):
    """Set-up times in several fresh interpreters, with the speed around each."""
    speed = workloads.Speed()
    command = [sys.executable, str(ROOT / "perfbench" / "probe.py"), json.dumps(spec)]
    for _ in range(SETUP_PROBES[workload]):
        try:
            done = subprocess.run(
                command, cwd=ROOT, capture_output=True, text=True, timeout=PROBE_TIMEOUT_S
            )
        except subprocess.TimeoutExpired:
            outcome.record(["set-up probe timed out"])
            continue
        if done.returncode != 0:
            sys.stderr.write(done.stderr)
            outcome.record([f"set-up probe exited with code {done.returncode}"])
            continue
        result = json.loads(done.stdout.strip().splitlines()[-1])
        outcome.record([] if result["code"] == 0 else ["set-up call failed"])
        speed.record(result["setup_s"])
        speed.flush()
    if not speed.ops:
        raise RuntimeError("no set-up probe succeeded")
    return speed.ops


class TestWorkload:
    """paper-regime and large-n: `flmgof test` over a fixed mix of datasets."""

    def __init__(self, name, seed, work, outcome):
        self.flmgof = workloads.import_program()
        self.cli = self.flmgof.cli
        self.name = name
        self.seed = seed
        self.outcome = outcome
        self.cases = TEST_MIXES[name]
        self.data = []
        self.argvs = []
        for index, case in enumerate(self.cases):
            curves, response = workloads.make_case_data(case, seed, index)
            workloads.write_case(work, index, curves, response)
            self.data.append((curves, response))
            self.argvs.append(workloads.case_argv(case, work, index, seed))
        self.validator = checks.load_schema_validator()
        self.direct = []
        self.reference = {}

    def setup_probes(self):
        spec = {"src": str(SRC), "argv": self.argvs[0]}
        return measure_setup(self.name, spec, self.outcome)

    def warm_up(self):
        """Direct library calls on every case (the reference), then one CLI call."""
        for index, case in enumerate(self.cases):
            self.direct.append(
                workloads.direct_report(
                    self.flmgof, case, *self.data[index], self.seed, index
                )
            )
        self.outcome.record([], operations=len(self.cases))
        workloads.timed_cli_call(self.cli, self.argvs[0], 0)

    def check_results(self, results, label):
        """Check each case's first output fully, and every later one byte for byte."""
        for r in results:
            problems = []
            if r.code != 0:
                problems.append(f"{label} case {r.case} exited {r.code}")
            elif r.case not in self.reference:
                found = checks.check_report(
                    r.stdout, self.cases[r.case], self.direct[r.case], self.validator
                )
                problems += [f"{label} case {r.case}: {p}" for p in found]
                self.reference[r.case] = (r.digest, problems)
            elif r.digest != self.reference[r.case][0]:
                problems.append(f"{label} case {r.case}: output differs from the first")
            else:
                problems = self.reference[r.case][1]  # same output, same verdict
            self.outcome.record(problems)

    def end_to_end(self, seconds):
        """Whole rotations of the mix, timed; returns (speed record, peak RSS)."""
        self.warm_up()
        speed = workloads.Speed()
        calls = []
        started = time.perf_counter()
        while time.perf_counter() - started < seconds or len(calls) < MIN_LATENCY_SAMPLES:
            for index, argv in enumerate(self.argvs):
                result = workloads.timed_cli_call(self.cli, argv, index)
                speed.record(result.wall, self.cases[index].n)
                calls.append(result)
        speed.flush()
        rss = peak_rss_mb()
        self.check_results(calls, "timed")
        return speed.ops, rss

    def traced(self, seconds):
        self.warm_up()
        tracer = Tracer()
        untraced, traced = [], []
        started = time.perf_counter()
        rotation = 0
        while rotation == 0 or time.perf_counter() - started < seconds:
            for index, argv in enumerate(self.argvs):
                # alternate which side runs first, so drift favours neither
                for with_trace in (rotation % 2 == 0, rotation % 2 == 1):
                    if with_trace:
                        with tracer.active(), tracer.span("cli.main"):
                            result = workloads.timed_cli_call(self.cli, argv, index)
                        traced.append(result)
                    else:
                        untraced.append(workloads.timed_cli_call(self.cli, argv, index))
            rotation += 1
        self.check_results(untraced, "untraced")
        self.check_results(traced, "traced")
        metrics = layer_metrics(tracer, "cli.main")
        metrics["simlab.parallel_efficiency"] = 0.0
        metrics["trace.overhead_ms"] = 1000.0 * (
            sum(r.wall for r in traced) - sum(r.wall for r in untraced)
        ) / len(traced)
        if metrics["trace.coverage"] < MIN_TRACE_COVERAGE:
            self.outcome.record(
                [
                    f"stage self-times cover {metrics['trace.coverage']:.3f} of the"
                    f" call wall time, below {MIN_TRACE_COVERAGE}"
                ]
            )
        return metrics, tracer.missing


class SimulateWorkload:
    """`run_study` on a fixed study, timed at the workload's thread count."""

    def __init__(self, name, seed, work, outcome):
        self.flmgof = workloads.import_program()
        self.name = name
        self.threads = 2 if name == "simulate-t2" else 1
        self.seed = seed
        self.outcome = outcome
        self.reference = None

    def setup_probes(self):
        spec = {"src": str(SRC), "study": {**dataclasses.asdict(STUDY), "seed": self.seed}}
        return measure_setup(self.name, spec, self.outcome)

    def study(self, threads):
        wall, table = workloads.run_study(self.flmgof, STUDY, self.seed, threads)
        if self.reference is None:
            self.reference = table
            problems = checks.check_table(table)
        elif table != self.reference:
            problems = [f"threads={threads} table differs from the first table"]
        else:
            problems = []
        self.outcome.record(problems)
        return wall

    def warm_up(self):
        """Noise variances, then one study at each thread count (tables must agree)."""
        for index in STUDY.scenarios:
            self.flmgof.scenario(index).sigma2
        self.study(threads=1)
        self.study(threads=2)

    def end_to_end(self, seconds):
        """Studies, timed; returns (speed record, peak RSS)."""
        self.warm_up()
        speed = workloads.Speed(rescale=self.threads == 1)
        started = time.perf_counter()
        while time.perf_counter() - started < seconds or len(speed.ops) < MIN_LATENCY_SAMPLES:
            speed.record(self.study(self.threads), STUDY.trials * STUDY.n)
            speed.flush()
        return speed.ops, peak_rss_mb()

    def traced(self, seconds):
        """Traced and untraced studies at threads=1; workers are not traced."""
        tracer = Tracer()
        with tracer.active():
            for index in STUDY.scenarios:
                self.flmgof.scenario(index).sigma2
        self.study(threads=1)
        untraced, traced, t2 = [], [], []
        started = time.perf_counter()
        while not t2 or time.perf_counter() - started < seconds:
            untraced.append(self.study(threads=1))
            with tracer.active():
                traced.append(self.study(threads=1))
            t2.append(self.study(threads=2))
        metrics = layer_metrics(tracer, "simlab.trial")
        metrics["simlab.parallel_efficiency"] = statistics.median(untraced) / (
            2.0 * statistics.median(t2)
        )
        metrics["trace.overhead_ms"] = (
            1000.0 * (sum(traced) - sum(untraced)) / (STUDY.trials * len(traced))
        )
        return metrics, tracer.missing


def main(argv=None):
    # workload and metric names, with each metric's unit
    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text())
    args = parse_args(argv, benchmark)
    try:
        workloads.import_program()
    except MissingProgram as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    outcome = Outcome()
    print(
        f"perfbench workload={args.workload} seed={args.seed}"
        f" seconds={args.seconds:g} trace={args.trace}"
    )
    print("environment " + json.dumps(environment(), sort_keys=True))
    scratch = ROOT / ".perfbench_work"
    scratch.mkdir(exist_ok=True)
    work = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=scratch)
    try:
        kind = TestWorkload if args.workload in TEST_MIXES else SimulateWorkload
        workload = kind(args.workload, args.seed, Path(work), outcome)
        if args.trace:
            values, missing = workload.traced(args.seconds)
            metrics = benchmark["per_layer"]
            if missing:
                print("hooks not found in this program: " + ", ".join(sorted(missing)))
        else:
            ops, rss = workload.end_to_end(args.seconds)
            setups = workload.setup_probes()
            values = summarize(ops, setups, rss, at_reference_speed=True)
            measured = summarize(ops, setups, rss, at_reference_speed=False)
            metrics = benchmark["end_to_end"]
    finally:
        shutil.rmtree(work, ignore_errors=True)

    units = {metric["name"]: metric["unit"] for metric in metrics}
    if args.trace:
        for name, unit in units.items():
            print(f"{name:36s} {values[name]:.6g} {unit}")
    else:
        scales = [scale for _, scale, _ in ops + setups]
        print(
            "times at the reference machine speed; the scale"
            f" ranged {min(scales):.4f}..{max(scales):.4f} in this run"
        )
        for name, unit in units.items():
            print(f"{name:36s} {values[name]:.6g} {unit}  (measured {measured[name]:.6g})")
        print(
            f"latency_tail_ms is p{values['tail_percentile']:.2f}"
            f" of {values['samples']} samples"
        )
        if args.workload not in TEST_MIXES:
            print(f"trials_per_s {values['curves_per_s'] / STUDY.n:.6g} 1/s")
    print(
        f"failed_frac {outcome.failed / max(outcome.attempted, 1):.6g} ratio"
        f" ({outcome.failed} of {outcome.attempted} operations)"
    )
    for problem in outcome.problems[:20]:
        print(f"problem: {problem}")
    result = {
        "correct": not outcome.problems,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": {
            name: {"value": float(values[name]), "unit": unit}
            for name, unit in units.items()
        },
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
