"""Monte Carlo study harness: data scenarios, deviations, and rejection tables.

Nine scenarios pair a slope function with a covariate process; each carries a
three-level deviation schedule (delta = 0 is the null). Responses follow

    Y_i = <X_i, rho> + sign * delta * Dev(X_i) + eps_i,

with Gaussian noise scaled so the null signal-to-noise ratio is R^2 = 0.95:
sigma^2 = Var(<X, rho>) (1 - R^2) / R^2, the variance computed exactly on the
scenario grid as (w rho)^T C (w rho), with C the covariance kernel of X at the
grid points and w the quadrature weights.

Every trial is seeded by (study seed, scenario, n, trial) through a
counter-based generator, so results do not depend on how trials are scheduled
across workers; its deviation levels share its curves, noise, directions and
multipliers (common random numbers). `run_study(threads=N)` runs the trials
on at most N workers, no more than the trials or the usable CPUs.
Where the platform forks, the calling process is one worker and forked
children are the others, each taking every w-th trial (`forking.strided_map`,
also at threads=1); elsewhere a process pool runs them. Every worker, the
calling process included, runs its OpenBLAS on one thread, and the caller's
thread count is restored afterwards, so every trial computes with the same
BLAS thread count whatever `threads` is.
"""

from __future__ import annotations

import collections
import contextlib
import itertools
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, replace
from functools import cached_property

import numpy as np

from .forking import _set_blas_threads, _usable_cpus, fork_supported, strided_map
from .funspace import FunctionalSample, Grid, _frozen, _is_integer, uniform_grid
from .processes import (
    COSINE_TERMS,
    bb_kernel,
    bm_kernel,
    brownian_bridge,
    brownian_motion,
    cosine_expansion,
    gbm_kernel,
    geometric_brownian_motion,
    ornstein_uhlenbeck,
    ou_kernel,
)
# the multi-response entry, under the name perfbench/spans.py times as `rptest.test`
from .rptest import _Settings, _check_count, _flm_reports as test_flm

__all__ = [
    "ALPHAS",
    "ScenarioSpec",
    "MonteCarloResult",
    "gen_process",
    "deviation",
    "scenario",
    "gen_response",
    "run_study",
]

ALPHAS = (0.01, 0.05, 0.10)
NULL_R_SQUARED = 0.95
_PROCESS_KINDS = ("bm", "bb", "hhn1", "hhn2", "ou", "gbm")
# decay of the coefficient variances j^-decay in the two cosine expansions
_COSINE_DECAYS = {"hhn1": 2.0, "hhn2": 4.0}
_KERNELS = {"bm": bm_kernel, "bb": bb_kernel, "ou": ou_kernel, "gbm": gbm_kernel}


def gen_process(kind: str, n: int, grid: Grid, rng) -> FunctionalSample:
    """Draw n covariate paths of the named process on the grid."""
    if not _is_integer(n) or n < 1:
        raise ValueError(f"n must be a positive integer, got {n!r}")
    if kind == "bm":
        data = brownian_motion(n, grid, rng)
    elif kind == "bb":
        data = brownian_bridge(n, grid, rng)
    elif kind in _COSINE_DECAYS:
        data = cosine_expansion(n, grid, rng, decay=_COSINE_DECAYS[kind])
    elif kind == "ou":
        data = ornstein_uhlenbeck(n, grid, rng)
    elif kind == "gbm":
        data = geometric_brownian_motion(n, grid, rng)
    else:
        raise ValueError(f"unknown process kind {kind!r}; expected {_PROCESS_KINDS}")
    return FunctionalSample(grid=grid, data=data)


def _sine_kernel(grid: Grid) -> np.ndarray:
    """sin(2 pi t s) at every pair of grid points, the kernel of deviation 2."""
    return np.sin(2.0 * np.pi * np.outer(grid.points, grid.points))


def _deviation_rows(kind: int, data: np.ndarray, grid: Grid, kernel=None) -> np.ndarray:
    """Deviation `kind` of every row.

    Kind 2 uses `kernel`, which must be `_sine_kernel(grid)`, and builds it
    when none is given.
    """
    if not _is_integer(kind) or kind not in (1, 2, 3):
        raise ValueError(f"deviation kind must be 1, 2 or 3, got {kind!r}")
    w = grid.weights
    if kind == 1:
        return np.sqrt(np.sum(data**2 * w, axis=1))
    if kind == 2:
        t = grid.points
        taper = w * t * (1.0 - t)
        if kernel is None:
            kernel = _sine_kernel(grid)
        u = data * taper
        return 25.0 * np.sum((u @ kernel) * u, axis=1)
    return np.sum(w * np.exp(-data) * data**2, axis=1)


def deviation(kind: int, x, grid: Grid) -> float:
    """Evaluate one deviation functional at a single curve.

    kind 1: L2 norm ||X||.
    kind 2: 25 * double integral of sin(2 pi t s) s(1-s) t(1-t) X(s) X(t).
    kind 3: <exp(-X), X^2>.
    """
    x = np.asarray(x, dtype=float)
    if x.shape != (grid.size,):
        raise ValueError("curve length does not match the grid")
    return float(_deviation_rows(kind, x[None, :], grid)[0])


def _sin_basis_shifted(j, t):
    # eigenfunctions of the Brownian motion covariance
    return np.sqrt(2.0) * np.sin((j - 0.5) * np.pi * t)


def _sin_basis(j, t):
    # eigenfunctions of the Brownian bridge covariance
    return np.sqrt(2.0) * np.sin(j * np.pi * t)


def _cos_basis(j, t):
    return np.sqrt(2.0) * np.cos(j * np.pi * t)


def _slope_curve(index: int, t: np.ndarray) -> np.ndarray:
    if index == 1:
        return (
            2.0 * _sin_basis_shifted(1, t)
            + 4.0 * _sin_basis_shifted(2, t)
            + 5.0 * _sin_basis_shifted(3, t)
        ) / np.sqrt(2.0)
    if index == 2:
        return (
            2.0 * _sin_basis(1, t) + 4.0 * _sin_basis(2, t) + 5.0 * _sin_basis(3, t)
        ) / np.sqrt(2.0)
    if index == 3:
        return (
            2.0 * _sin_basis_shifted(2, t)
            + 4.0 * _sin_basis_shifted(3, t)
            + 5.0 * _sin_basis_shifted(7, t)
        ) / np.sqrt(2.0)
    if index in (4, 5):
        j = np.arange(1, 21)
        coeffs = 2.0**1.5 * (-1.0) ** j * j**-2.0
        return coeffs @ np.array([_cos_basis(k, t) for k in j])
    if index == 6:
        return np.log(15.0 * t**2 + 10.0) + np.cos(4.0 * np.pi * t)
    if index == 7:
        return np.sin(2.0 * np.pi * t) - np.cos(2.0 * np.pi * t)
    if index == 8:
        return t - (t - 0.75) ** 2
    if index == 9:
        return np.pi**2 * (t**2 - 1.0 / 3.0)
    raise ValueError(f"scenario index must be 1..9, got {index}")


# scenario index -> (process kind, deviation kind, deviation sign, deltas)
_SCENARIO_TABLE = {
    1: ("bm", 1, +1, (0.0, 0.25, 0.75)),
    2: ("bb", 2, -1, (0.0, 2.0, 7.5)),
    3: ("bm", 1, -1, (0.0, 0.2, 0.5)),
    4: ("hhn1", 2, -1, (0.0, 1.0, 3.0)),
    5: ("hhn2", 2, -1, (0.0, 1.0, 3.0)),
    6: ("bm", 1, +1, (0.0, 0.2, 1.0)),
    7: ("ou", 2, -1, (0.0, 0.25, 1.0)),
    8: ("ou", 3, -1, (0.0, 0.01, 0.1)),
    9: ("gbm", 3, +1, (0.0, 0.5, 2.5)),
}


@dataclass(frozen=True)
class ScenarioSpec:
    """One simulation scenario: slope, covariate law, deviation schedule."""

    id: str
    index: int
    grid: Grid
    rho: np.ndarray
    process: str
    deviation_kind: int
    deviation_sign: int
    deltas: tuple

    def __post_init__(self):
        object.__setattr__(self, "rho", _frozen(self.rho))

    @cached_property
    def signal_variance(self) -> float:
        """Exact Var(<X, rho>) on the scenario grid under the null."""
        return _signal_variance(self.process, self.rho, self.grid)

    @cached_property
    def sine_kernel(self) -> np.ndarray:
        """The G x G kernel of deviation 2, built once per scenario."""
        return _sine_kernel(self.grid)

    @cached_property
    def sigma2(self) -> float:
        """Noise variance giving R^2 = 0.95 under the null."""
        value = self.signal_variance * (1.0 - NULL_R_SQUARED) / NULL_R_SQUARED
        if not value > 0.0:
            raise ValueError("scenario noise variance must be positive")
        return value


def scenario(index: int, grid: Grid | None = None) -> ScenarioSpec:
    """Build scenario S1..S9 on the given grid (default: 201 equidistant points)."""
    if not _is_integer(index) or index not in _SCENARIO_TABLE:
        raise ValueError(f"scenario index must be 1..9, got {index}")
    if grid is None:
        grid = uniform_grid(201)
    process, dev_kind, sign, deltas = _SCENARIO_TABLE[index]
    rho = _slope_curve(index, grid.points)
    return ScenarioSpec(
        id=f"S{index}",
        index=index,
        grid=grid,
        rho=rho,
        process=process,
        deviation_kind=dev_kind,
        deviation_sign=sign,
        deltas=deltas,
    )


def _signal_variance(process, rho, grid):
    """Var(<X, rho>) = (w rho)^T C (w rho) for the quadrature inner product."""
    weighted_rho = grid.weights * rho
    points = grid.points
    if process in _COSINE_DECAYS:
        # C = sum_j j^-decay phi_j phi_j^T over the terms of cosine_expansion
        j = np.arange(1, COSINE_TERMS + 1)
        loadings = (np.sqrt(2.0) * np.cos(np.pi * np.outer(j, points))) @ weighted_rho
        return float(np.sum(j ** -_COSINE_DECAYS[process] * loadings**2))
    kernel = _KERNELS[process](points[:, None], points[None, :])
    return float(weighted_rho @ kernel @ weighted_rho)


def gen_response(spec: ScenarioSpec, X: FunctionalSample, d: int, rng, sigma2=None):
    """Draw responses at deviation level d (0 = null) for the given paths."""
    if not _is_integer(d) or d not in (0, 1, 2):
        raise ValueError("deviation level d must be 0, 1 or 2")
    if not X.grid.matches(spec.grid):
        raise ValueError("sample grid does not match the scenario grid")
    noise_var = spec.sigma2 if sigma2 is None else float(sigma2)
    signal = X.data @ (spec.grid.weights * spec.rho)
    delta = spec.deltas[d]
    if delta != 0.0:
        kernel = spec.sine_kernel if spec.deviation_kind == 2 else None
        signal = signal + spec.deviation_sign * delta * _deviation_rows(
            spec.deviation_kind, X.data, spec.grid, kernel
        )
    if noise_var > 0.0:
        signal = signal + rng.normal(0.0, np.sqrt(noise_var), X.n)
    return signal


@dataclass(frozen=True)
class MonteCarloResult:
    """Rejection rates and rank diagnostics for one (scenario, d, n) cell."""

    scenario: str
    d: int
    n: int
    K: int
    B: int
    kind: str
    M: int
    rejection_rates: tuple
    mean_rank: float
    sd_rank: float
    wall_time_s: float


def _trial_data(key, spec, d_values, n):
    """The curves, their responses and the test seed of the trial with seed `key`.

    SeedSequence(key).spawn(2) gives the seed of the trial's test and of a
    Philox stream, which draws the n curves and then, from the same state
    after them, the noise of the response at each level in `d_values`.
    """
    data_seed, test_seed = np.random.SeedSequence(key).spawn(2)
    rng = np.random.Generator(np.random.Philox(data_seed))
    X = gen_process(spec.process, n, spec.grid, rng)
    after_curves = rng.bit_generator.state
    responses = []
    for d in d_values:
        rng.bit_generator.state = after_curves
        responses.append(gen_response(spec, X, d, rng))
    return X, responses, test_seed


def _study_trial(args):
    """One trial of a study: (p_fdr, chosen rank) per deviation level, from
    one `test_flm` (`rptest._flm_reports`) call on the responses of every level.

    The study reads p_fdr only as p_fdr < alpha for alpha in ALPHAS, so each
    level's bootstrap stops once its p_fdr cannot fall below max(ALPHAS).
    Every decision is that of the full bootstrap, but a level that stopped
    returns a lower bound of its p_fdr, one that is at least max(ALPHAS).
    `args` is (spec, d_values, n, settings, trial); settings.seed is the study seed.
    """
    spec, d_values, n, settings, trial = args
    key = (settings.seed, spec.index, n, trial)
    X, responses, test_seed = _trial_data(key, spec, d_values, n)
    reports = test_flm(X, responses, replace(settings, seed=test_seed), stop_above=max(ALPHAS))
    return [(report.p_fdr, report.settings["rank"]) for report in reports]


def run_study(
    scenarios,
    d_values,
    n_values,
    M: int,
    K: int = 5,
    B: int = 500,
    kind: str = "cvm",
    seed: int = 0,
    threads: int = 1,
    r: float = 0.95,
    sampler: str = "i",
):
    """Run the rejection-rate study over a grid of cells.

    Returns one MonteCarloResult per (scenario, d, n) combination, in that
    nesting order. Each trial is keyed by (seed, scenario, n, trial) and
    serves every d, so each row equals the row of its cell run alone.
    Identical output for any `threads` value: aggregation follows trial
    order. A (scenario, n) group's wall time runs from the end of the
    previous group, so the first includes starting the workers (the forks,
    or the pool), and is split evenly over its rows. Every setting is
    checked before any worker starts or any trial runs; the seed, part of
    every trial's key, must be an integer of at least 0.
    """
    _check_count("M", M)
    _check_count("threads", threads)
    if not _is_integer(seed) or seed < 0:
        raise ValueError(f"a study seed must be an integer >= 0, got {seed!r}")
    settings = _Settings(K, B, kind, r, sampler, seed)
    if any(not _is_integer(d) or d not in (0, 1, 2) for d in d_values):
        raise ValueError("deviation level d must be 0, 1 or 2")
    # rank selection needs n - 3 >= 1
    if any(not _is_integer(n) or n < 4 for n in n_values):
        raise ValueError("every n must be an integer of at least 4")
    specs = {index: scenario(index) for index in scenarios}
    cells = [(index, d, n) for index in scenarios for d in d_values for n in n_values]
    # each distinct level and group runs once, whatever the lists repeat
    levels = tuple(dict.fromkeys(d_values))
    groups = list(dict.fromkeys((index, n) for index, _, n in cells))
    # sigma2 is cached on each spec before any worker starts, so every worker
    # has it with the spec
    for spec in specs.values():
        spec.sigma2
    payloads = [(specs[index], levels, n, settings, trial)
                for index, n in groups for trial in range(M)]
    outcomes, elapsed = {}, {}
    started = time.perf_counter()
    with _trial_outcomes(payloads, threads) as trials:
        for group in groups:
            outcomes[group] = list(itertools.islice(trials, M))
            finished = time.perf_counter()
            elapsed[group] = finished - started
            started = finished
    readers = collections.Counter((index, n) for index, _, n in cells)
    results = []
    for index, d, n in cells:
        column = [trial[levels.index(d)] for trial in outcomes[index, n]]
        pvalues = np.array([p for p, _ in column])
        ranks = np.array([rank for _, rank in column], dtype=float)
        rates = tuple(float(np.mean(pvalues < alpha)) for alpha in ALPHAS)
        results.append(
            MonteCarloResult(
                scenario=specs[index].id,
                d=d,
                n=n,
                K=settings.K,
                B=settings.B,
                kind=settings.kind,
                M=M,
                rejection_rates=rates,
                mean_rank=float(ranks.mean()),
                sd_rank=float(ranks.std(ddof=1)) if M > 1 else 0.0,
                wall_time_s=elapsed[index, n] / readers[index, n],
            )
        )
    return results


@contextlib.contextmanager
def _trial_outcomes(payloads, threads):
    """Yield an iterator over the trial outcomes in payload order.

    The trials run on w = min(threads, trials, usable CPUs) workers. Where
    the platform forks, `forking.strided_map` runs them: this process is one
    worker and w - 1 forked children are the others, trial i runs in worker
    i mod w, so cheap and costly cells are spread evenly, and every worker
    runs OpenBLAS on one thread until the caller's count comes back on exit.
    Elsewhere, with w > 1, a pool of w workers started the platform's default
    way runs them, each worker with its OpenBLAS on one thread, in chunks of
    about a quarter of each worker's share.
    """
    workers = min(threads, len(payloads), _usable_cpus())
    if workers > 1 and not fork_supported():
        with ProcessPoolExecutor(
            max_workers=workers, initializer=_set_blas_threads, initargs=(1,)
        ) as pool:
            chunk = max(1, len(payloads) // (workers * 4))
            yield pool.map(_study_trial, payloads, chunksize=chunk)
        return
    with contextlib.closing(strided_map(_study_trial, payloads, workers)) as outcomes:
        yield outcomes
