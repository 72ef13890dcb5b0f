"""Workload mixes, seeded inputs and timed calls into the flmgof program.

The benchmark generates its inputs with its own numpy code, so a change to
the program's process generators cannot change what the `test` workloads
feed it. The program receives only the CSV files (through `cli.main`) or the
same arrays (through the direct library call that the checks compare with).
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import statistics
import sys
import time
import traceback
from dataclasses import dataclass
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"

GRID_POINTS = 201
PROJECTIONS = 5
TEST_BOOTSTRAP = 1000


class MissingProgram(RuntimeError):
    """The checkout holds no flmgof sources to benchmark."""


def import_program():
    """Import flmgof from this checkout's `src/`, never from elsewhere."""
    if not (SRC / "flmgof" / "__init__.py").is_file():
        raise MissingProgram(f"no flmgof package under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import flmgof
    import flmgof.cli

    if Path(flmgof.__file__).resolve().parent != SRC / "flmgof":
        raise MissingProgram(f"flmgof was imported from {flmgof.__file__}")
    return flmgof


@dataclass(frozen=True)
class TestCase:
    """One `flmgof test` call of a workload mix."""

    n: int
    process: str  # covariate law of the generated curves: "bm" or "ou"
    null: str  # "flm" (composite) or "simple"
    stat: str  # "cvm" or "ks"
    tied: bool  # every curve appears twice, so projections tie


# Odd length, so the median call falls inside one cluster of similar calls
# (the n=200 calls) rather than in the gap between two clusters.
PAPER_REGIME = (
    TestCase(50, "bm", "flm", "cvm", False),
    TestCase(50, "ou", "simple", "ks", False),
    TestCase(100, "ou", "flm", "ks", False),
    TestCase(100, "bm", "flm", "cvm", True),
    TestCase(200, "bm", "flm", "cvm", False),
    TestCase(200, "ou", "simple", "cvm", False),
    TestCase(200, "ou", "flm", "ks", True),
    TestCase(500, "bm", "flm", "cvm", False),
    TestCase(500, "ou", "flm", "ks", True),
)

# Three calls at n=2048, four at 4096 and one at 8192: three rotations give
# more than the 21 calls the latency tail needs, and the median and the tail
# both fall in the middle of the n=4096 calls rather than between two sizes.
LARGE_N = (
    TestCase(2048, "bm", "flm", "cvm", False),
    TestCase(2048, "ou", "flm", "ks", False),
    TestCase(2048, "bm", "flm", "ks", False),
    TestCase(4096, "ou", "flm", "cvm", False),
    TestCase(4096, "bm", "flm", "ks", False),
    TestCase(4096, "ou", "flm", "ks", False),
    TestCase(4096, "bm", "flm", "cvm", False),
    TestCase(8192, "ou", "flm", "cvm", False),
)

TEST_MIXES = {"paper-regime": PAPER_REGIME, "large-n": LARGE_N}


@dataclass(frozen=True)
class Study:
    """The `run_study` call of the simulate workload."""

    scenarios: tuple = (1, 7)
    d_values: tuple = (0, 1)
    n: int = 50
    M: int = 15
    K: int = PROJECTIONS
    B: int = 500

    @property
    def trials(self) -> int:
        return len(self.scenarios) * len(self.d_values) * self.M


STUDY = Study()


def _grid():
    points = np.linspace(0.0, 1.0, GRID_POINTS)
    weights = np.empty_like(points)
    weights[0] = weights[-1] = (points[1] - points[0]) / 2.0
    weights[1:-1] = (points[2:] - points[:-2]) / 2.0
    return points, weights


def _curves(process, n, rng):
    points, _ = _grid()
    steps = np.diff(points)
    if process == "bm":
        increments = rng.standard_normal((n, steps.size)) * np.sqrt(steps)
        return np.hstack([np.zeros((n, 1)), np.cumsum(increments, axis=1)])
    # stationary Ornstein-Uhlenbeck, mean reversion 1/3, volatility 1
    alpha, variance = 1.0 / 3.0, 1.5
    decay = np.exp(-alpha * steps)
    noise = rng.standard_normal((n, points.size)) * np.sqrt(variance)
    noise[:, 1:] *= np.sqrt(1.0 - decay**2)
    paths = np.empty((n, points.size))
    paths[:, 0] = noise[:, 0]
    for k in range(steps.size):
        paths[:, k + 1] = decay[k] * paths[:, k] + noise[:, k + 1]
    return paths


def case_seed(seed, index):
    """The `--seed` the program gets for case `index` of a run seeded `seed`."""
    return int(np.random.SeedSequence((seed, 1, index)).generate_state(1)[0])


def make_case_data(case, seed, index):
    """Curves (n, G) and responses (n,) for one case; same seed, same arrays."""
    rng = np.random.default_rng((seed, 0, index))
    distinct = case.n // 2 if case.tied else case.n
    curves = _curves(case.process, distinct, rng)
    if case.tied:
        curves = np.repeat(curves, 2, axis=0)
    points, weights = _grid()
    slope = np.sin(2.0 * np.pi * points) + points
    response = curves @ (weights * slope) + 0.5 * rng.standard_normal(case.n)
    return curves, response


def case_paths(work, index):
    return work / f"case{index}.csv", work / f"case{index}_y.txt"


def write_case(work, index, curves, response):
    data_path, response_path = case_paths(work, index)
    # 17 significant digits read back as the same doubles
    np.savetxt(data_path, curves, delimiter=",", fmt="%.17g")
    np.savetxt(response_path, response, fmt="%.17g")


def case_argv(case, work, index, seed):
    data_path, response_path = case_paths(work, index)
    return [
        "test",
        "--data", str(data_path),
        "--response", str(response_path),
        "--projections", str(PROJECTIONS),
        "--bootstrap", str(TEST_BOOTSTRAP),
        "--stat", case.stat,
        "--null", case.null,
        "--seed", str(case_seed(seed, index)),
    ]


def direct_report(flmgof, case, curves, response, seed, index):
    """The library call that `flmgof test` makes for this case, as a dict."""
    sample = flmgof.FunctionalSample(
        grid=flmgof.uniform_grid(GRID_POINTS), data=curves
    )
    common = dict(
        K=PROJECTIONS, B=TEST_BOOTSTRAP, kind=case.stat, seed=case_seed(seed, index)
    )
    if case.null == "simple":
        report = flmgof.test_simple(sample, response, m0=None, **common)
    else:
        report = flmgof.test_flm(sample, response, rank=None, **common)
    return report.to_dict()


# Median time of the `Speed` kernel on the reference machine (2 cores, x86-64,
# numpy 2.4, CPython 3.11). Times are reported as if measured at that speed.
REFERENCE_KERNEL_S = 1.6e-3


class Speed:
    """Operation times, each with the machine's speed around it.

    The host's speed drifts by tens of percent within seconds and over
    minutes, which would swamp the differences between runs and between
    versions. A fixed kernel of the benchmark's own is timed before and after
    every stretch of at least INTERVAL_S of operations; the mean of the two
    gives the factor that takes the stretch's times to the reference speed.
    The kernel uses no BLAS and no program code, so a change to the program
    does not move it. It runs on one thread of this process and so describes
    work done there: with `rescale=False` (work in other processes, such as a
    study's pool workers, where it made the run-to-run spread wider, not
    narrower) every factor is 1.
    """

    INTERVAL_S = 0.25
    SAMPLES = 5

    def __init__(self, rescale=True):
        self.rescale = rescale
        rng = np.random.default_rng(0)
        self._matrix = rng.standard_normal((200, 200))
        self._vector = rng.standard_normal(2000)
        self.ops = []  # (seconds, scale, curves)
        self._pending = []
        self._before = self._scale()
        self._since = time.perf_counter()

    def _kernel(self):
        started = time.perf_counter()
        for _ in range(4):
            np.argsort(self._vector, kind="stable")
            np.maximum(np.abs(np.cumsum(self._matrix, axis=1)), 0.5).sum()
            total = 0
            for i in range(2000):
                total += i
        return time.perf_counter() - started

    def _scale(self):
        if not self.rescale:
            return 1.0
        kernel_s = statistics.median(self._kernel() for _ in range(self.SAMPLES))
        return REFERENCE_KERNEL_S / kernel_s

    def record(self, seconds, curves=0):
        self._pending.append((seconds, curves))
        if time.perf_counter() - self._since >= self.INTERVAL_S:
            self.flush()

    def flush(self):
        if not self._pending:
            return
        after = self._scale()
        scale = (self._before + after) / 2.0
        self.ops += [(seconds, scale, curves) for seconds, curves in self._pending]
        self._pending = []
        self._before = after
        self._since = time.perf_counter()


@dataclass
class CallResult:
    case: int
    wall: float
    code: int
    stdout: str

    @property
    def digest(self) -> str:
        return hashlib.sha256(self.stdout.encode()).hexdigest()


def timed_cli_call(cli, argv, case):
    """One in-process `flmgof test` call; a raised exception counts as code -1."""
    buf = io.StringIO()
    started = time.perf_counter()
    try:
        with contextlib.redirect_stdout(buf):
            code = cli.main(argv)
    except Exception:  # the call boundary: record the failure and go on
        traceback.print_exc()
        code = -1
    return CallResult(case, time.perf_counter() - started, code, buf.getvalue())


def run_study(flmgof, study, seed, threads):
    """Time one `run_study` call; return (wall seconds, rendered table)."""
    started = time.perf_counter()
    results = flmgof.run_study(
        scenarios=list(study.scenarios),
        d_values=list(study.d_values),
        n_values=[study.n],
        M=study.M,
        K=study.K,
        B=study.B,
        seed=seed,
        threads=threads,
    )
    return time.perf_counter() - started, render_table(results)


def render_table(results):
    """Every deterministic field of the study rows, wall time left out."""
    lines = []
    for row in results:
        cells = [row.scenario, row.d, row.n, row.K, row.B, row.kind, row.M]
        cells += list(row.rejection_rates) + [row.mean_rank, row.sd_rank]
        lines.append(",".join(repr(cell) for cell in cells))
    return "\n".join(lines) + "\n"
