"""Goodness-of-fit tests for the functional linear model via random projections.

The residual-marked empirical process indexed by a direction h is

    T(x) = n^(-1/2) sum_i 1{<X_i, h> <= x} m_i,

a step function with jumps at the observed projections (ties jump jointly).
Its Kolmogorov-Smirnov norm is sup_x |T(x)| and its Cramer-von Mises norm is
the integral of T^2 against the empirical law of the projections, i.e.
(1/n) sum_i T(<X_i, h>)^2. Both reduce to one sort and a cumulative sum.

Null calibration is a wild bootstrap: residuals are multiplied by i.i.d.
two-point golden-ratio weights with mean 0 and second and third moments 1,
and the fitting pipeline is replayed on the perturbed response at the same
rank. Because the pipeline centers the response before regressing on the
score columns, the replay collapses to re-centering the perturbed residuals
and applying (I - H); both constraints the observed residuals satisfy (zero
sum and score orthogonality) are thereby imposed on every replicate. One
projection gives a p-value p_hat = (1/B) #{ ||T*_b|| >= ||T|| }; K
projections are combined by the false-discovery-rate envelope
min_k (K/k) p_(k), clamped to [0, 1].

The bootstrap is streamed: replicates are drawn, replayed and reduced to the
requested norm (KS or CvM, not both) in blocks of b replicates laid out one
per column, b = BOOTSTRAP_BLOCK // n rounded down to even, so its memory is
O(n * b), a few MB whatever B is, instead of O(n * B). A block (start, width)
draws replicates start .. start + width - 1 of the one multiplier stream,
which it first sets to value start * n, so every block draws what one (B, n)
draw holds in its rows, and the counts of the blocks add up to its counts in
any order. A bootstrap is one map of the blocks to their counts.

A Monte Carlo study reads a trial only as the decisions p_fdr < alpha, so a
study trial may stop its bootstrap early (`test_flm`'s private `_stop_above`,
a sequential Monte Carlo p-value after Besag & Clifford, 1991). Its first two
blocks are then at most STOP_CHECK_BLOCK wide, and after every block but the
last the p-values are formed from the counts so far with the final
expression. Once their envelope reaches the threshold the bootstrap stops.
The stop is exact: counts only grow, both p-value expressions are monotone in
the count, and sorting, scaling by K/k and taking a minimum are monotone
under rounding, so the final p_fdr could be no smaller than the envelope at
the stop, and no decision below the threshold can change. A bootstrap that
does not stop counts the same replicates as one without the threshold.

A large bootstrap that may not stop (n * B at least SPLIT_MIN_VALUES) is
split where the platform forks: `forking.strided_map` runs block i in worker
i mod w, with w at most the number of usable CPUs, this process as worker 0
and every worker on one OpenBLAS thread; a child sends each block's count
vector back pickled. Since each block seeks its own place in the stream,
reports are the serial reports bit for bit, whatever the number of usable
CPUs.
"""

from __future__ import annotations

import contextlib
import copy
import functools
import itertools
import math
import numbers
from dataclasses import dataclass

import numpy as np

from . import forking
from .flm import _check_response, _hat_apply_rows, estimate_rho, select_rank_sicc
from .fpc import FpcBasis
# The FPC step of a test takes the test's own centered sample and also returns
# A = X * sqrt(w), which the projections use; it keeps the public name, under
# which perfbench/spans.py times it as `fpc.compute`.
from .fpc import _compute_fpc as compute_fpc
from .funspace import FunctionalSample, center
from .processes import ornstein_uhlenbeck

__all__ = [
    "ProjectionOutcome",
    "TestReport",
    "DegenerateProjectionError",
    "golden_multipliers",
    "sample_direction_datadriven",
    "process_statistic",
    "fdr_combine",
    "fdr_null_rejection_rate",
    "test_flm",
    "test_simple",
]

# Two-point wild bootstrap law built on the golden ratio: values
# (1 -+ sqrt5)/2 with probabilities (5 +- sqrt5)/10 give moments
# E V = 0, E V^2 = 1, E V^3 = 1.
_SQRT5 = np.sqrt(5.0)
GOLDEN_VALUES = ((1.0 - _SQRT5) / 2.0, (1.0 + _SQRT5) / 2.0)
GOLDEN_PROBS = ((5.0 + _SQRT5) / 10.0, (5.0 - _SQRT5) / 10.0)

# A direction is degenerate when every projection is this small relative to
# the Cauchy-Schwarz scale max_i ||X_i|| * ||h||.
DEGENERATE_RELATIVE_TOL = 1e-10
MAX_DIRECTION_ATTEMPTS = 100

STAT_KINDS = ("ks", "cvm")
SAMPLER_VARIANTS = ("i", "ii", "iii")

# Values (replicates x n) per bootstrap block, 1 MB of doubles. In a sweep of
# 2**15..2**19 at n = 50..8192, 2**16 and 2**17 timed alike; smaller blocks
# were slower at n >= 4096 (too few replicates per kernel call) and larger
# ones at n >= 512.
BOOTSTRAP_BLOCK = 2**17
# Width of the first two blocks of a bootstrap that may stop early: at n=50,
# K=5, B=500, about half the null trials of a study settle p_fdr >= 0.1 after
# 128 replicates and three quarters after 256.
STOP_CHECK_BLOCK = 128
# Values (n * B) from which a bootstrap is split over forked workers. In the
# sweep (scripts/bench_split_bootstrap.py, BENCH_split_bootstrap.json; B=1000,
# two CPUs) a split call took 21.9 against 19.3 ms serial at n=256, the same
# at n=512, and 44 against 50 ms at n=1024, falling to 0.7 of the serial time
# from n=4096 up. So every call of the paper's regime (n <= 500, B = 1000)
# stays serial.
SPLIT_MIN_VALUES = 2**19


class DegenerateProjectionError(RuntimeError):
    """Raised when repeated direction draws project the sample to zero."""


@dataclass(frozen=True)
class ProjectionOutcome:
    index: int
    statistic: float
    pvalue: float


@dataclass(frozen=True)
class TestReport:
    per_projection: tuple
    p_fdr: float
    settings: dict

    def to_dict(self) -> dict:
        return {
            "p_fdr": self.p_fdr,
            "per_projection": [
                {"index": rec.index, "statistic": rec.statistic, "p": rec.pvalue}
                for rec in self.per_projection
            ],
            "settings": dict(self.settings),
        }


def _check_choice(name, value, choices):
    if value not in choices:
        raise ValueError(f"{name} must be one of {choices}, got {value!r}")


def _check_fraction(name, value):
    # a bool is an int, but True is no fraction
    real = isinstance(value, numbers.Real) and not isinstance(value, bool)
    if not real or not 0.0 < value <= 1.0:
        raise ValueError(f"{name} must be a real number in (0, 1], got {value!r}")


def _is_integer(value) -> bool:
    """True for an int or a numpy integer, False for a bool or a float."""
    return isinstance(value, (int, np.integer)) and not isinstance(value, bool)


def _check_count(name, value):
    if not _is_integer(value) or value < 1:
        raise ValueError(f"{name} must be a positive integer")


def _check_flag(name, value):
    if not isinstance(value, (bool, np.bool_)):
        raise ValueError(f"{name} must be True or False, got {value!r}")


@dataclass(frozen=True)
class _Settings:
    """The settings of one test, named as `test_flm` takes them and checked
    once, when built. K and B are kept as ints, `kind` in lower case, `r` as
    a float, `positive_correction` as a bool and an integer seed as an int, so
    a report's `settings` serialise whatever was passed.
    """

    K: int = 5
    B: int = 1000
    kind: str = "cvm"
    r: float = 0.95
    sampler: str = "i"
    seed: object = None
    positive_correction: bool = False

    def __post_init__(self):
        kind, seed = str(self.kind).lower(), self.seed
        _check_choice("statistic kind", kind, STAT_KINDS)
        _check_choice("sampler variant", self.sampler, SAMPLER_VARIANTS)
        _check_fraction("variance threshold r", self.r)
        _check_count("K", self.K)
        _check_count("B", self.B)
        _check_flag("positive_correction", self.positive_correction)
        kept = seed is None or isinstance(seed, np.random.SeedSequence)
        if not (kept or _is_integer(seed) and seed >= 0):
            raise ValueError(
                f"seed must be None, an integer >= 0 or a SeedSequence, got {seed!r}"
            )
        vars(self).update(K=int(self.K), B=int(self.B), kind=kind, r=float(self.r),
                          seed=seed if kept else int(seed),
                          positive_correction=bool(self.positive_correction))

    def to_dict(self, rank) -> dict:
        """A report's `settings`, with the rank of its fit (None without one)."""
        seed = self.seed if isinstance(self.seed, int) else None
        return {"K": self.K, "B": self.B, "stat": self.kind, "rank": rank, "r": self.r,
                "sampler": self.sampler, "seed": seed,
                "positive_correction": self.positive_correction}


def golden_multipliers(rng, size) -> np.ndarray:
    """Draw wild bootstrap weights from the golden-ratio two-point law.

    Each weight is `low` where a uniform draw is below GOLDEN_PROBS[0] and
    `high` elsewhere, computed as high + (draw < p) * (low - high) rather
    than with np.where, whose per-value branch mispredicts on random draws.
    The values are exact: high + (low - high) rounds to low, and
    high + -0.0 is high.
    """
    low, high = GOLDEN_VALUES
    draws = rng.random(size)
    np.less(draws, GOLDEN_PROBS[0], out=draws)
    draws *= low - high
    draws += high
    return draws


class _SortedProjections:
    """Sorted layout of one projection vector, reusable across mark vectors.

    Ties share a jump: the process value attached to every observation in a
    tie block is the cumulative sum at the end of the block, so only block
    ends carry process values, each weighted by the size of its block.
    """

    __slots__ = ("n", "order", "ends", "weights", "scale")

    def __init__(self, projections):
        projections = np.asarray(projections, dtype=float)
        if projections.ndim != 1 or projections.size == 0:
            raise ValueError("projections must be a non-empty vector")
        if not np.all(np.isfinite(projections)):
            raise ValueError("projections contain non-finite values")
        self.n = projections.size
        self.order = np.argsort(projections, kind="stable")
        ordered = projections[self.order]
        block_end = np.searchsorted(ordered, ordered, side="right") - 1
        sizes = np.bincount(block_end, minlength=self.n)
        self.ends = np.flatnonzero(sizes) if sizes.max() > 1 else None
        # CvM is (1/n) sum_i T(p_i)^2 with T = cumsum / sqrt(n): each block end
        # enters once per member of its block, and both 1/n factors fold here.
        self.weights = sizes / float(self.n) ** 2
        self.scale = 1.0 / np.sqrt(self.n)

    def norms(self, columns, kind):
        """The `kind` norm of the process for marks in observation order.

        `columns` is (n,) for one mark vector or (n, b) for b of them, one
        per column; the norms come back as a float or a (b,) vector. Only the
        requested norm is computed, and the one buffer allocated has the shape
        of `columns`, so memory is O(n * b) for a block of b replicates. An
        even b is cumulated two columns at a time, with the same sums.
        """
        # np.take copies whole rows, faster than fancy indexing on narrow ones
        sums = np.take(np.asarray(columns, dtype=float), self.order, axis=0)
        if sums.ndim == 2 and sums.shape[1] % 2 == 0:
            # a complex add is two independent float adds: the same bits as
            # np.cumsum per column, with half the elements in numpy's
            # accumulate loop
            pairs = sums.view(np.complex128)
            np.cumsum(pairs, axis=0, out=pairs)
        else:
            np.cumsum(sums, axis=0, out=sums)
        if kind == "cvm":
            return self.weights @ np.square(sums, out=sums)
        if self.ends is not None:
            sums = np.take(sums, self.ends, axis=0)
        # rounding is monotone, so scaling the maximum equals the maximum of
        # the scaled process values bit for bit
        return _max_over_rows(np.abs(sums, out=sums)) * self.scale


def _max_over_rows(values):
    """np.max(values, axis=0), overwriting `values`.

    Folds the bottom half of the rows onto the top half until one row is
    left: log2(n) whole-row passes instead of numpy's axis-0 reduction,
    which is slow on narrow blocks. A maximum does not round, so the result
    is the same in any order.
    """
    rows = values.shape[0]
    while rows > 1:
        half = rows // 2
        np.maximum(values[:half], values[rows - half : rows], out=values[:half])
        rows -= half
    return values[0]


def process_statistic(projections, marks) -> tuple[float, float]:
    """KS and CvM norms of the marked process for one direction.

    Parameters
    ----------
    projections : array, shape (n,)
        Scalar projections <X_i, h>.
    marks : array, shape (n,)
        Marks attached to the observations (residuals, or Y - m0(X)).

    Returns
    -------
    (ks, cvm) : tuple of float
    """
    layout = _SortedProjections(projections)
    marks = np.asarray(marks, dtype=float)
    if marks.shape != (layout.n,):
        raise ValueError("marks must match projections in length")
    if not np.all(np.isfinite(marks)):
        raise ValueError("marks contain non-finite values")
    return tuple(float(layout.norms(marks, kind)) for kind in STAT_KINDS)


def fdr_combine(pvalues) -> float:
    """Combine K p-values into min_k (K/k) p_(k), clamped to [0, 1]."""
    p = np.asarray(pvalues, dtype=float)
    if p.ndim != 1 or p.size == 0:
        raise ValueError("pvalues must be a non-empty vector")
    if np.any(p < 0) or np.any(p > 1) or not np.all(np.isfinite(p)):
        raise ValueError("pvalues must lie in [0, 1]")
    return float(_fdr_envelope(p))


def _fdr_envelope(pvalues):
    """min_k (K/k) p_(k) over the last axis, clamped to at most 1.

    A (M, K) matrix gives one combined p-value per row, each with the bits
    that `fdr_combine` gives for that row.
    """
    k = pvalues.shape[-1]
    ordered = np.sort(pvalues, axis=-1)
    return np.minimum(np.min(ordered * (k / np.arange(1.0, k + 1.0)), axis=-1), 1.0)


def fdr_null_rejection_rate(K, B, alpha, positive_correction=False) -> float:
    """Exact chance that `fdr_combine` of K i.i.d. null p-values is below alpha.

    Under the null each count out of B replicates is uniform on {0, ..., B}.
    With t_k the number of atoms a of `_bootstrap_pvalues` that have
    a * (K/k) < alpha, formed as in `_fdr_envelope`, the rule rejects iff at
    least k counts lie below t_k for some k. The t_k never decrease in k, so a
    recursion over them gives the rate (Noe, 1972): the exact null size of
    Simes' (Benjamini and Hochberg's) rule at a finite B.
    """
    settings = _Settings(K, B, positive_correction=positive_correction)
    _check_fraction("alpha", alpha)
    atoms = _bootstrap_pvalues(np.arange(B + 1), settings)
    # The top atom is 1, which no alpha <= 1 rejects, so every t_k <= B.
    thresholds = [np.count_nonzero(atoms * f < alpha) for f in K / np.arange(1.0, K + 1.0)]
    log_factorial = np.array([math.lgamma(i + 1.0) for i in range(K + 1)])
    j, s = np.arange(K)[:, None], np.arange(K + 1)

    # alive[j]: the chance that j counts lie below the last threshold and no
    # k so far rejected. Summing the mass each threshold rejects keeps the
    # relative accuracy of a small rate.
    alive = np.zeros(K)
    alive[0] = 1.0
    rate = 0.0
    for k, (lower, t) in enumerate(zip([0, *thresholds], thresholds), start=1):
        if t == lower:
            continue
        # Of j counts below `lower`, s lie below t: j plus a binomial draw
        # from the other K - j. Entries with s < j are masked.
        step = (t - lower) / (B + 1 - lower)
        log_pmf = (
            log_factorial[K - j] - log_factorial[s - j] - log_factorial[K - s]
            + (s - j) * math.log(step) + (K - s) * math.log1p(-step)
        )
        below = alive @ np.exp(np.where(s >= j, log_pmf, -np.inf))
        rate += below[k:].sum()  # k or more counts below t_k reject at k
        alive = np.where(s[:K] < k, below[:K], 0.0)
    return float(rate)


def sample_direction_datadriven(
    basis: FpcBasis, r: float = 0.95, rng=None, variant: str = "i"
) -> np.ndarray:
    """Draw one random direction h on the basis grid for projecting the sample.

    Variants
    --------
    "i"   Gaussian coefficients on the leading eigenfunctions, each with the
          ddof=1 spread of its scores, sqrt(n lambda_j / (n - 1)) in closed
          form since the centered scores have Gram matrix n diag(lambda).
    "ii"  Same expansion with unit-variance coefficients.
    "iii" An Ornstein-Uhlenbeck path (mean reversion 1/2, volatility 1)
          drawn independently of the data.

    For variants i and ii the number of components j_n is the smallest k with
    sum_{j<=k} lambda_j^2 / sum_{j<=m} lambda_j^2 >= r.
    """
    _check_choice("sampler variant", variant, SAMPLER_VARIANTS)
    _check_fraction("variance threshold r", r)
    if rng is None:
        raise ValueError("an np.random.Generator is required")
    if variant == "iii":
        return ornstein_uhlenbeck(1, basis.grid, rng, mean_reversion=0.5)[0]

    cumulative = np.cumsum(basis.eigenvalues**2)
    j_n = int(np.argmax(cumulative / cumulative[-1] >= r)) + 1
    coefficients = rng.normal(0.0, 1.0, j_n)
    if variant == "i":
        coefficients *= np.sqrt(basis.eigenvalues[:j_n] * (basis.n / (basis.n - 1.0)))
    return coefficients @ basis.eigenfunctions[:j_n]


def _draw_nondegenerate_direction(curve_scale, root_weighted, basis, settings, rng, draw):
    """Resample until the projections carry signal, up to a fixed budget.

    Returns the projections <X_i, h> = A_i . (sqrt(w) h) of the accepted
    direction h, drawn with the sampler and threshold r of `settings`, where
    A = X * sqrt(w) is `root_weighted` of the sample that `basis` was computed
    from and `curve_scale` its largest row norm, max_i ||X_i||.
    """
    sqrt_w = np.sqrt(basis.grid.weights)
    for _ in range(MAX_DIRECTION_ATTEMPTS):
        values = sample_direction_datadriven(basis, settings.r, rng, settings.sampler)
        root_h = sqrt_w * values
        # einsum reduces every row in the same order, so identical curves get
        # identical projections and tie; a BLAS gemv rounds its tail rows
        # differently from the rest
        projections = np.einsum("ij,j->i", root_weighted, root_h)
        # the quadrature norm ||h|| is |sqrt(w) h|
        scale = curve_scale * np.sqrt(root_h @ root_h)
        if np.max(np.abs(projections)) > DEGENERATE_RELATIVE_TOL * scale:
            return projections
    raise DegenerateProjectionError(
        f"projection draw {draw} degenerate after {MAX_DIRECTION_ATTEMPTS} attempts"
    )


def _replay_residuals(fit, perturbed):
    """Residuals of the centered refit at fixed rank on fitted + perturbed.

    The bootstrap response Y* = fitted + e goes through the same pipeline as
    the data: subtract the sample mean (the fitted values already have mean
    zero), then regress on the score columns, so the replicate residuals are
    (I - H)(e - mean(e)).
    """
    centered = perturbed - perturbed.mean(axis=-1, keepdims=True)
    centered -= _hat_apply_rows(fit, centered)
    return centered


def _prepare(X, y, settings):
    """Check the data both tests share; center X, compute its FPC basis and
    project the curves on the K random directions of `settings`.

    Returns the checked response, the basis, the K sorted projections and
    the stream of bootstrap multipliers. The FPC step leaves A = X * sqrt(w)
    in the centered curves' buffer, and the projections come from A; that
    n x G array is freed on return, before any bootstrap.
    """
    if not isinstance(X, FunctionalSample):
        raise ValueError("X must be a FunctionalSample")
    if X.n < 3:
        raise ValueError("the test needs at least three observations")
    y = _check_response(y, X.n)
    basis, root_weighted = compute_fpc(center(X))
    # the largest curve norm, max_i ||X_i|| = max_i |A_i|
    curve_scale = np.sqrt(np.max(np.einsum("ij,ij->i", root_weighted, root_weighted)))
    direction_rng, multiplier_rng = _streams(settings)
    inputs = (curve_scale, root_weighted, basis, settings, direction_rng)
    layouts = [
        _SortedProjections(_draw_nondegenerate_direction(*inputs, draw))
        for draw in range(1, settings.K + 1)
    ]
    return y, basis, layouts, multiplier_rng


def _streams(settings):
    """The direction and multiplier generators of a test with these settings."""
    root = settings.seed
    if not isinstance(root, np.random.SeedSequence):
        root = np.random.SeedSequence(root)
    # spawning advances a SeedSequence, and the caller's object must give the
    # same report on every call, so a copy spawns; spawning reads the entropy
    # and pool and writes only the copy's child count, so a shallow copy will do
    children = copy.copy(root).spawn(2)
    return [np.random.Generator(np.random.Philox(child)) for child in children]


def _block_widths(settings, n, stop_early):
    """Widths of the consecutive bootstrap blocks that draw the B replicates.

    Blocks are BOOTSTRAP_BLOCK // n replicates wide, rounded down to even so
    the kernel can sum its columns in pairs; only an odd B leaves an odd last
    block. A bootstrap that may stop early starts with two blocks of at most
    STOP_CHECK_BLOCK, so it can stop after 128 or 256 replicates.
    """
    B = settings.B
    rows = min(B, BOOTSTRAP_BLOCK // n)
    rows = max(1, rows - rows % 2)
    widths = [min(STOP_CHECK_BLOCK, rows)] * 2 if stop_early else []
    start = 0
    for width in itertools.chain(widths, itertools.repeat(rows)):
        if start >= B:
            return
        yield min(width, B - start)
        start += width


def _block_exceedances(settings, layouts, marks, fit, observed, rng, state, block):
    """Per direction, the replicates of one block whose `settings.kind` norm
    reaches the observed one.

    The block (start, width) draws replicates start .. start + width - 1 of
    the multiplier stream that starts at the fresh `state`: `rng` is first
    set to value start * n of that stream. Blocks of one stream are
    independent, so their counts add up to the counts of one (B, n) draw in
    any order. The block is transposed once for the kernel.
    """
    start, width = block
    n = marks.size
    _seek(rng, state, start * n)
    replicates = golden_multipliers(rng, (width, n))
    replicates *= marks
    if fit is not None:
        replicates = _replay_residuals(fit, replicates)
    columns = np.ascontiguousarray(replicates.T)
    norms = (layout.norms(columns, settings.kind) for layout in layouts)
    hits = [np.count_nonzero(norm >= value) for norm, value in zip(norms, observed)]
    return np.array(hits)


def _seek(rng, state, skip):
    """Set `rng` to value `skip` of the Philox stream of the fresh `state`.

    A Philox counter step makes four 64-bit values and each double takes one,
    so advancing the counter by skip // 4 and drawing skip % 4 doubles lands
    on value `skip`. The generator is reused, so no Philox is built.
    """
    rng.bit_generator.state = state
    rng.bit_generator.advance(skip // 4)
    rng.random(skip % 4)


def _bootstrap_pvalues(counts, settings):
    """Bootstrap p-values from an array of exceedance counts out of B replicates."""
    B = settings.B
    return (counts + 1.0) / (B + 1.0) if settings.positive_correction else counts / B


def _projection_test(settings, layouts, multiplier_rng, marks, fit, stop_above=None):
    """Score the K projections of the marked process and combine them.

    `settings` give the norm, B and the p-value rule, and the report's
    `settings`. One stream of B golden-ratio multiplier vectors calibrates
    every direction. With a `fit` (composite null) the perturbed marks are
    replayed through the fit at its rank; without one (simple null) they are
    used as drawn. With `stop_above`, the bootstrap stops after the first
    block at which the combined p-value of the counts so far reaches it; the
    report then carries those p-values, lower bounds of the full bootstrap's.
    """
    n, B = marks.size, settings.B
    observed = [float(layout.norms(marks, settings.kind)) for layout in layouts]
    widths = list(_block_widths(settings, n, stop_above is not None))
    blocks = list(zip(itertools.accumulate(widths, initial=0), widths))
    count = functools.partial(
        _block_exceedances, settings, layouts, marks, fit, observed,
        multiplier_rng, multiplier_rng.bit_generator.state,
    )
    if stop_above is None and n * B >= SPLIT_MIN_VALUES and forking.fork_supported():
        workers = min(forking._usable_cpus(), len(blocks))
        per_block = forking.strided_map(count, blocks, workers)
    else:
        per_block = (count(block) for block in blocks)
    counts = np.zeros(settings.K, dtype=np.int64)
    with contextlib.closing(per_block):
        for (start, width), block_counts in zip(blocks, per_block):
            counts += block_counts
            if stop_above is not None and start + width < B:
                pvalues = _bootstrap_pvalues(counts, settings)
                if _fdr_envelope(pvalues) >= stop_above:
                    break

    pvalues = _bootstrap_pvalues(counts, settings)
    outcomes = [
        ProjectionOutcome(index=draw, statistic=statistic, pvalue=float(pvalue))
        for draw, (statistic, pvalue) in enumerate(zip(observed, pvalues), start=1)
    ]
    p_fdr = fdr_combine([rec.pvalue for rec in outcomes])
    rank = None if fit is None else fit.rank
    return TestReport(tuple(outcomes), p_fdr, settings.to_dict(rank))


def test_flm(
    X: FunctionalSample,
    y,
    K: int = 5,
    B: int = 1000,
    kind: str = "cvm",
    r: float = 0.95,
    rank: int | None = None,
    sampler: str = "i",
    seed=None,
    positive_correction: bool = False,
    *,
    _stop_above: float | None = None,
) -> TestReport:
    """Composite goodness-of-fit test of the functional linear model.

    Fits the model once (rank chosen by SICc unless `rank` is given), then
    scores K random projections of the residual-marked process, calibrating
    each with a wild bootstrap of B replicates. Reproducible for a fixed
    `seed` (int >= 0 or SeedSequence) regardless of available parallelism.

    `_stop_above` is for Monte Carlo studies, which read only whether p_fdr
    falls below a level: the bootstrap stops once p_fdr can no longer fall
    below `_stop_above`, and the report then holds lower bounds of the
    p-values, with p_fdr at least `_stop_above`. A report whose p_fdr is
    below it equals the report without it.
    """
    if rank is not None and not _is_integer(rank):
        raise ValueError(f"rank must be an integer or None, got {rank!r}")
    settings = _Settings(K, B, kind, r, sampler, seed, positive_correction)
    y, basis, layouts, multiplier_rng = _prepare(X, y, settings)
    y_centered = y - y.mean()
    if rank is None:
        max_rank = min(basis.m, basis.n - 3)
        if max_rank < 1:
            raise ValueError("too few observations to select a rank; pass rank=")
        rank, _ = select_rank_sicc(y_centered, basis, max_rank)
    fit = estimate_rho(y_centered, basis, int(rank))
    return _projection_test(
        settings, layouts, multiplier_rng, fit.residuals, fit, _stop_above
    )


def test_simple(
    X: FunctionalSample,
    y,
    m0=None,
    K: int = 5,
    B: int = 1000,
    kind: str = "cvm",
    r: float = 0.95,
    sampler: str = "i",
    seed=None,
    positive_correction: bool = False,
) -> TestReport:
    """Test a fully specified regression function m0 against the data.

    Marks are Y_i - m0(X_i); with `m0=None` the null regression is zero and
    the marks are the raw responses (no-effect hypothesis). Nothing is
    estimated under this null, so the bootstrap multiplies the marks
    directly, with no refit and no centering.
    """
    settings = _Settings(K, B, kind, r, sampler, seed, positive_correction)
    y, _, layouts, multiplier_rng = _prepare(X, y, settings)
    if m0 is None:
        marks = y
    else:
        predictions = np.asarray(m0(X) if callable(m0) else m0, dtype=float)
        if predictions.shape != y.shape:
            raise ValueError("m0 predictions must be a vector matching the response")
        marks = y - predictions
    if not np.all(np.isfinite(marks)):
        raise ValueError("marks contain non-finite values")
    return _projection_test(settings, layouts, multiplier_rng, marks, None)
