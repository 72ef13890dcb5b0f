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
rank. The pipeline centers the response and regresses on the score columns,
so the replay is one projection through the fit's orthonormal design Q
(`flm`), e - Q (Q^T e); both constraints the observed residuals satisfy (zero
sum and score orthogonality) are thereby imposed on every replicate. One
projection gives a p-value p_hat = (1/B) #{ ||T*_b|| >= ||T|| }; K
projections are combined by the false-discovery-rate envelope
min_k (K/k) p_(k), clamped to [0, 1].

The bootstrap is streamed: replicates are drawn, replayed and reduced to the
requested norm (KS or CvM, not both) in blocks of b replicates laid out one
per column, b = BOOTSTRAP_BLOCK // n rounded down to even, so its memory is
O(n * b), a few MB whatever B is, instead of O(n * B). A block (start, width)
draws replicates start .. start + width - 1 of the one multiplier stream, at
value start * n of it, so every block draws what one (B, n) draw holds in its
rows, and the counts of the blocks add up to its counts in any order. A
bootstrap is one map of the blocks to their counts. The generator is set to
that value only when it does not already stand there, so a serial bootstrap
never seeks.

The L responses of a Monte Carlo trial, one per deviation level, share its
curves, and the private `_flm_reports` tests them with one bootstrap: each
block draws its multipliers once, and every level replays them through its
own fit into one (n, L, b) array. One record holds the sorted layouts of the
K directions (`_SortedProjections`, built from a (K, n) array), and one call
of its `norms` on (n, L, b) columns gives every direction's norms of a block;
the observed norms of the L levels are one call on an (n, L, 1) array. The
record keeps each distinct (order, weights) row once, as data-driven
directions on one eigenfunction (j_n = 1) share a sort order for each sign,
and its norms are indexed back to the K directions. The distinct rows are
gathered side by side in groups that fit in BOOTSTRAP_BLOCK values, at least
one row each, and a group is cumulated with one np.add per row when its rows
are wide enough, and with one np.cumsum otherwise. Every column is still
summed in row order, and one reduction serves both: each CvM norm is a gemv
over exactly its level's b columns, so each level's report is its own
`test_flm` call's, bit for bit. The record holds ties once, as row weights
that are 0 inside a tie block: CvM weighs the squared sums with them, and KS
sets those rows to 0 before its maximum.

A Monte Carlo study reads a trial only as the decisions p_fdr < alpha, so a
study trial may stop its bootstrap early (`_flm_reports`'s `stop_above`,
a sequential Monte Carlo p-value after Besag & Clifford, 1991). Its first two
blocks are then at most STOP_CHECK_BLOCK wide, and after every block but the
last the p-values are formed from the counts so far with the final
expression. Once their envelope reaches the threshold the bootstrap stops.
The stop is exact: counts only grow, both p-value expressions are monotone in
the count, and sorting, scaling by K/k and taking a minimum are monotone
under rounding, so the final p_fdr could be no smaller than the envelope at
the stop, and no decision below the threshold can change. A bootstrap that
does not stop counts the same replicates as one without the threshold. Each
response of a multi-response call stops on its own counts; the others go on.

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
import threading
from dataclasses import dataclass

import numpy as np

from . import forking
from .flm import _check_rank, _check_response, estimate_rho
# The SICc of a test reads the inner products of the response with the score
# columns, and the FPC step of a test decomposes the test's own centered
# sample; both keep the public names, under which perfbench/spans.py times
# them as `flm.sicc` and `fpc.compute`.
from .flm import _select_rank_sicc as select_rank_sicc
from .fpc import FpcBasis, _leading
from .fpc import _compute_fpc as compute_fpc
from .funspace import FunctionalSample, _is_integer, center
from .processes import ornstein_uhlenbeck

__all__ = [
    "ProjectionOutcome",
    "TestReport",
    "DegenerateProjectionError",
    "golden_multipliers",
    "sample_direction_datadriven",
    "fdr_combine",
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
# Narrowest row, g * L * b values, at which a group of g distinct rows of a
# block of L levels, b replicates each, is cumulated with one np.add per row
# rather than one np.cumsum (`_SortedProjections.norms`). In the sweep
# (scripts/bench_norm_kernel.py, BENCH_stacked_trial.json) rows of 320 values
# or more took 0.41-0.98 of the time of one np.cumsum per direction, rows of
# 240 up to 1.11x and rows of 160 up to 1.50x (n=800).
SIDE_BY_SIDE_MIN_ROW = 320
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
    """Sorted layouts of k projection vectors, reusable across mark vectors.

    Ties share a jump: the process value attached to every observation in a
    tie block is the cumulative sum at the end of the block, so only block
    ends carry process values, each weighted by the size of its block. A
    layout is a sort order and its weights, block size / n^2 at a block end
    and 0 inside a tie block. The kernel reads nothing else, so directions
    with equal (order, weights) rows have bit-identical norms, and each such
    row is kept and scored once: `order` and `weights` hold the d distinct
    rows, and direction k has row `inverse[k]`.
    """

    __slots__ = ("n", "order", "weights", "inverse", "scale")

    def __init__(self, projections):
        projections = np.asarray(projections, dtype=float)
        if projections.ndim != 2 or projections.size == 0:
            raise ValueError("projections must be a non-empty (k, n) array")
        if not np.all(np.isfinite(projections)):
            raise ValueError("projections contain non-finite values")
        self.n = projections.shape[1]
        # each row is keyed on its bytes as it is made, and only the distinct
        # rows are stacked: np.unique(..., axis=0) on the K stacked rows cost
        # more than the dedupe saves at n=4096, and stacking all K rows before
        # copying out the distinct ones raised the large-n benchmark's peak
        # RSS by 6 MB (see ROADMAP, measured leads and dead ends)
        rows, orders, weights, inverse = {}, [], [], []
        for vector in projections:
            order = np.argsort(vector, kind="stable")
            ordered = vector[order]
            block_end = np.searchsorted(ordered, ordered, side="right") - 1
            # CvM is (1/n) sum_i T(p_i)^2 with T = cumsum / sqrt(n): each block
            # end enters once per member of its block, and both 1/n factors
            # fold here.
            row_weights = np.bincount(block_end, minlength=self.n) / float(self.n) ** 2
            key = (order.tobytes(), row_weights.tobytes())
            if key not in rows:
                rows[key] = len(orders)
                orders.append(order)
                weights.append(row_weights)
            inverse.append(rows[key])
        self.order, self.weights = np.array(orders), np.array(weights)
        self.inverse = np.array(inverse)
        self.scale = 1.0 / np.sqrt(self.n)

    def norms(self, columns, kind):
        """The (k, L, b) `kind` norms of the process for the (n, L, b) marks
        `columns` in observation order: b mark vectors, one per column, for
        each of L levels.

        The d distinct rows are gathered side by side into this thread's
        scratch array in groups of as many rows as BOOTSTRAP_BLOCK values
        hold, at least one. A group is cumulated with one contiguous np.add
        per row where its rows hold SIDE_BY_SIDE_MIN_ROW values or more, and
        otherwise with one np.cumsum, which walks each column by the row
        stride but costs one call. Either way each column is summed in row
        order and `_reduce` turns the sums into norms, indexed back to the k
        directions by `inverse`, so every norm has the bits of its direction's
        own record and of its level's own (n, 1, b) block.
        """
        n, count = self.n, len(self.order)
        group = max(1, BOOTSTRAP_BLOCK // (n * columns[0].size))
        norms = []
        for first in range(0, count, group):
            rows = slice(first, min(first + group, count))
            sums = _scratch((n, rows.stop - first, *columns.shape[1:]))
            # row i of the index holds every direction's i-th observation;
            # mode="clip" writes straight to `sums`, "raise" would buffer a copy
            np.take(columns, self.order[rows].T, axis=0, out=sums, mode="clip")
            flat = sums.reshape(n, -1)  # a view: every column of every level
            if flat.shape[1] >= SIDE_BY_SIDE_MIN_ROW:
                row_views = list(flat)  # made at once, faster than while iterating
                for previous, row in zip(row_views, row_views[1:]):
                    np.add(previous, row, out=row)
            else:
                # a complex add is two independent float adds: the same bits
                # as np.cumsum per column, with half the elements in numpy's
                # accumulate loop
                pairs = flat.view(np.complex128) if flat.shape[1] % 2 == 0 else flat
                np.cumsum(pairs, axis=0, out=pairs)
            norms.append(self._reduce(sums, rows, kind))
        return np.concatenate(norms)[self.inverse]

    def _reduce(self, sums, directions, kind):
        """The (d, L, b) `kind` norms of the cumulative sums (n, d, L, b) of
        the d directions in the slice `directions`, overwriting `sums`."""
        if kind == "cvm":
            np.square(sums, out=sums)
            # matmul runs one gemv per direction and level over exactly that
            # level's b columns; a gemv over more columns rounds some of them
            # differently
            weights = self.weights[directions, None, None, :]
            return (weights @ _unit_stride(sums.transpose(1, 2, 0, 3)))[:, :, 0]
        np.abs(sums, out=sums)
        weights = self.weights[directions]
        if not weights.all():
            # rows inside a tie block have weight 0, and 0 is below every
            # |value|, so the maximum is over the block ends; assigned, as a
            # 0/1 mask would turn an overflowed inf into NaN
            sums[weights.T == 0] = 0.0
        # rounding is monotone, so scaling the maximum equals the maximum of
        # the scaled process values bit for bit
        return _max_over_rows(sums) * self.scale


# Per thread, the array the norm kernel gathers each group of rows into,
# reused by every block
_scratch_arrays = threading.local()


def _scratch(shape):
    """A float array of `shape` in this thread's scratch buffer.

    The buffer holds BOOTSTRAP_BLOCK values, or the largest one-row group past
    that, and lives as long as the thread, so a group of rows allocates and
    frees nothing. Freeing arrays that large would also raise glibc's mmap
    threshold for the rest of the process, which moves the cost of every
    later allocation in it. Its contents last until the next call.
    """
    size = math.prod(shape)
    buffer = getattr(_scratch_arrays, "gathered", None)
    if buffer is None or buffer.size < size:
        buffer = _scratch_arrays.gathered = np.empty(max(size, BOOTSTRAP_BLOCK))
    return buffer[:size].reshape(shape)


def _unit_stride(matrices):
    """`matrices` (..., n, b), copied when b is 1: matmul takes one column
    as a vector, whose dot product rounds by its stride, so a level of one
    replicate gets the unit stride of its own call."""
    return matrices.copy() if matrices.shape[-1] == 1 else matrices


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

    # relative to lambda_1, so the squares neither underflow nor overflow
    # for curves of any scale
    cumulative = np.cumsum((basis.eigenvalues / basis.eigenvalues[0]) ** 2)
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
    e - Q (Q^T e), Q the fit's design, for each row e; `perturbed` is kept.
    """
    design = fit.design
    projected = (perturbed @ design) @ design.T
    return np.subtract(perturbed, projected, out=projected)


class _Stream:
    """The golden-ratio multiplier stream of one bootstrap, drawn in blocks.

    `draw(start, width)` returns replicates start .. start + width - 1 of the
    stream as a (width, n) array: the generator is first set to value
    start * n of the stream from its fresh state, unless it already stands
    there, as it does for the first block of a fresh generator and for the
    block after the one drawn last. So a serial bootstrap never seeks, and
    a forked worker seeks each block that does not follow its last one.
    """

    def __init__(self, rng, n):
        self.rng, self.n = rng, n
        self.fresh_state = rng.bit_generator.state
        self.position = 0  # the value of the stream the generator stands at

    def draw(self, start, width):
        skip = start * self.n
        if skip != self.position:
            _seek(self.rng, self.fresh_state, skip)
        draws = golden_multipliers(self.rng, (width, self.n))
        self.position = skip + width * self.n
        return draws


@dataclass(frozen=True)
class _Prepared:
    """What a test computes before its bootstrap: the FPC basis, trimmed to
    the score columns its fits read, the sorted layouts of the K directions,
    the multiplier stream of its bootstrap, and the rank of each response."""

    settings: _Settings
    basis: FpcBasis
    directions: _SortedProjections
    stream: _Stream
    ranks: list


def _check_data(X, responses):
    """Check the sample and the sequence of responses both tests share;
    return the responses as an (L, n) array (np.stack refuses L = 0)."""
    if not isinstance(X, FunctionalSample):
        raise ValueError("X must be a FunctionalSample")
    if X.n < 3:
        raise ValueError("the test needs at least three observations")
    return np.stack([_check_response(y, X.n) for y in responses])


def _prepare(X, settings, responses=(), rank=None):
    """Center the checked sample X, compute its FPC basis, and read from
    A = X * sqrt(w) the rank of each centered response, `rank` or the SICc
    choice from <S_j, y> = u_j . (A^T y), and the (K, n) projections of the
    curves on the K random directions of `settings`, each drawn on every
    component. The basis is then trimmed to the score columns the fits read.

    A is formed in the centered curves' buffer, and on the kernel path
    (n > G) it is the test's one n x G array; it is freed before the
    projections' record is built, and so before any bootstrap.
    """
    direction_rng, multiplier_rng = _streams(settings)
    basis, root_weighted, unit = compute_fpc(center(X))
    if rank is not None:
        _check_rank(rank, basis.m)
        ranks = [int(rank)] * len(responses)
    else:
        max_rank = min(basis.m, basis.n - 3)
        if len(responses) and max_rank < 1:
            raise ValueError("too few observations to select a rank; pass rank=")
        # an overflowed y leaves inf or NaN, which SICc refuses
        with np.errstate(over="ignore", invalid="ignore"):
            ranks = [select_rank_sicc(unit[:, :max_rank].T @ (root_weighted.T @ y), y,
                                      basis.eigenvalues[:max_rank])[0] for y in responses]
    # the largest curve norm, max_i ||X_i|| = max_i |A_i|
    curve_scale = np.sqrt(np.max(np.einsum("ij,ij->i", root_weighted, root_weighted)))
    projections = np.array([
        _draw_nondegenerate_direction(curve_scale, root_weighted, basis, settings,
                                      direction_rng, draw)
        for draw in range(1, settings.K + 1)
    ])
    basis = _leading(basis, root_weighted, unit, max(ranks, default=0))
    del root_weighted, unit
    return _Prepared(settings, basis, _SortedProjections(projections),
                     _Stream(multiplier_rng, X.n), ranks)


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
    """(start, width) of the consecutive bootstrap blocks that draw B replicates.

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
        yield start, min(width, B - start)
        start += width


def _block_exceedances(prepared, marks, fits, observed, levels, block):
    """Per level in `levels` and per direction, the replicates of one block
    whose norm reaches the level's observed one, as a (levels, K) array.

    The block (start, width) draws replicates start .. start + width - 1 of
    the record's multiplier stream once for every level. Blocks of one
    stream are independent, so their counts add up to the counts of one
    (B, n) draw in any order. Each level multiplies the draws by its marks
    and replays them through its fit, if it has one, into its slice of one
    (n, levels, width) array, one replicate per column, and one call gives
    the norms of every direction.
    """
    start, width = block
    draws = prepared.stream.draw(start, width)
    shape, columns = (draws.shape[1], len(levels), width), None
    for column, level in enumerate(levels):
        if column < len(levels) - 1:
            replicates = draws * marks[level]
        else:  # the last level takes over the draws' buffer
            replicates, draws = np.multiply(draws, marks[level], out=draws), None
        if fits is not None:
            replicates = _replay_residuals(fits[level], replicates)
        if columns is None:
            # made after the first replay, so a single level's draws, freed
            # by then, leave their memory to it
            columns = np.empty(shape)
        columns[:, column] = replicates.T
    norms = prepared.directions.norms(columns, prepared.settings.kind)
    # norms[k, j] against the observed norm of direction k at level levels[j]
    return (norms >= observed[levels].T[:, :, None]).sum(axis=2).T


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


def _projection_test(prepared, marks, fits, stop_above=None):
    """Score the K projections of the marked process of each level and
    combine them, one report per level.

    `marks` holds one mark vector per level, and `fits` one fit per level
    (composite null), whose replay each replicate goes through, or is None
    (simple null), when the perturbed marks are used as drawn. The record's
    settings give the norm, B and the p-value rule, and the reports'
    `settings`. One stream of B golden-ratio multiplier vectors calibrates
    every direction of every level. With `stop_above`, a level's bootstrap
    stops after the first block at which the combined p-value of its counts
    so far reaches it; its report then carries those p-values, lower bounds
    of the full bootstrap's. The other levels go on without it.
    """
    settings = prepared.settings
    n, B = len(marks[0]), settings.B
    # a replicate column is (I - Q Q^T)(v * m) or v * m with |v| <= 1.618, so
    # every cumulative sum is at most sqrt(n) * 1.618 * |m| and its square
    # below 4 n m.m; where that is finite no norm overflows to inf or NaN
    with np.errstate(over="ignore"):
        bounded = all(np.isfinite(4.0 * n * (m @ m)) for m in marks)
    if not bounded:
        raise ValueError("marks must be finite with 4 * n * sum(marks**2) finite")
    # one call for every level, each level's marks a block of one replicate
    levels = np.stack(marks, axis=1)[:, :, None]
    observed = prepared.directions.norms(levels, settings.kind)[:, :, 0].T
    blocks = list(_block_widths(settings, n, stop_above is not None))
    # the levels still bootstrapped; the serial loop below drops stopped ones
    # from this list, which each next block then reads
    active = list(range(len(marks)))
    count = functools.partial(_block_exceedances, prepared, marks, fits, observed, active)
    if stop_above is None and n * B >= SPLIT_MIN_VALUES and forking.fork_supported():
        workers = min(forking._usable_cpus(), len(blocks))
        per_block = forking.strided_map(count, blocks, workers)
    else:
        per_block = (count(block) for block in blocks)
    counts = np.zeros(observed.shape, dtype=np.int64)
    with contextlib.closing(per_block):
        for (start, width), block_counts in zip(blocks, per_block):
            counts[active] += block_counts
            if stop_above is not None and start + width < B:
                envelopes = _fdr_envelope(_bootstrap_pvalues(counts[active], settings))
                active[:] = [level for level, envelope in zip(active, envelopes)
                             if envelope < stop_above]
                if not active:
                    break

    reports = []
    for level, level_counts in enumerate(counts):
        pvalues = _bootstrap_pvalues(level_counts, settings)
        outcomes = [
            ProjectionOutcome(index=draw, statistic=float(statistic), pvalue=float(pvalue))
            for draw, (statistic, pvalue) in enumerate(zip(observed[level], pvalues), start=1)
        ]
        p_fdr = fdr_combine([rec.pvalue for rec in outcomes])
        rank = None if fits is None else fits[level].rank
        reports.append(TestReport(tuple(outcomes), p_fdr, settings.to_dict(rank)))
    return reports


def _flm_reports(X, responses, settings, rank=None, stop_above=None):
    """`test_flm` of each of the responses to the curves X, with the checked
    `settings`: one report per response, each that of its own `test_flm`
    call, from one bootstrap that shares the basis, the directions and the
    multiplier draws of every block.

    `stop_above` is for Monte Carlo studies, which read only whether p_fdr
    falls below a level: a response's bootstrap stops once its p_fdr can no
    longer fall below `stop_above`, and its report then holds lower bounds
    of the p-values, with p_fdr at least `stop_above`. A report whose p_fdr
    is below it equals the report without it.
    """
    centered = [response - response.mean() for response in _check_data(X, responses)]
    prepared = _prepare(X, settings, centered, rank)
    fits = [estimate_rho(y, prepared.basis, level_rank)
            for y, level_rank in zip(centered, prepared.ranks)]
    return _projection_test(prepared, [fit.residuals for fit in fits], fits, stop_above)


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
) -> TestReport:
    """Composite goodness-of-fit test of the functional linear model.

    Fits the model once (rank chosen by SICc unless `rank` is given), then
    scores K random projections of the residual-marked process, calibrating
    each with a wild bootstrap of B replicates. Reproducible for a fixed
    `seed` (int >= 0 or SeedSequence) regardless of available parallelism.
    """
    if rank is not None and not (_is_integer(rank) and rank >= 1):
        raise ValueError(f"rank must be an integer in [1, m], m the components the "
                         f"basis retains with positive eigenvalues, or None, got {rank!r}")
    settings = _Settings(K, B, kind, r, sampler, seed, positive_correction)
    [report] = _flm_reports(X, [y], settings, rank)
    return report


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
    [y] = _check_data(X, [y])
    prepared = _prepare(X, settings)
    if m0 is None:
        marks = y
    else:
        predictions = np.asarray(m0(X) if callable(m0) else m0, dtype=float)
        if predictions.shape != y.shape:
            raise ValueError("m0 predictions must be a vector matching the response")
        marks = y - predictions
    [report] = _projection_test(prepared, [marks], None)
    return report
