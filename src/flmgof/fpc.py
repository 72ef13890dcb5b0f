"""Empirical functional principal components in the quadrature metric.

The sample covariance operator of centered curves X_1..X_n is the kernel
C(s, t) = (1/n) sum_i X_i(s) X_i(t). On a grid with trapezoid weights w the
L2 eigenproblem becomes the symmetric matrix problem

    W^(1/2) C W^(1/2) u = lambda u,      e = W^(-1/2) u,

so the eigenfunctions e_j are orthonormal in the quadrature inner product and
the score columns <X_i, e_j> have sample variance (divisor n) exactly
lambda_j. When n < G the same spectrum is read off the n x n Gram matrix
instead of the G x G kernel, which is the cheaper path for short samples.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .funspace import FunctionalSample, Grid, _frozen

__all__ = ["FpcBasis", "compute_fpc", "reconstruct"]

# Eigenvalues below this fraction of the leading one are treated as zero and
# their eigenfunctions dropped.
RELATIVE_EIGENVALUE_FLOOR = 1e-12


@dataclass(frozen=True)
class FpcBasis:
    """Principal component basis of a centered functional sample.

    Fields
    ------
    grid : Grid
    eigenvalues : ndarray, shape (m,)
        Non-increasing, strictly positive after the relative floor.
    eigenfunctions : ndarray, shape (m, G)
        Row j is the j-th eigenfunction, unit norm in the quadrature metric,
        sign fixed so its largest-magnitude value is positive.
    scores : ndarray, shape (n, m)
        scores[i, j] = <X_i, e_j>.

    The direction sampler's constants, `variance_ratios` and
    `score_spread(k)`, are made on first use and kept with the basis.
    """

    grid: Grid
    eigenvalues: np.ndarray
    eigenfunctions: np.ndarray
    scores: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "eigenvalues", _frozen(self.eigenvalues))
        object.__setattr__(self, "eigenfunctions", _frozen(self.eigenfunctions))
        object.__setattr__(self, "scores", _frozen(self.scores))

    @property
    def m(self) -> int:
        """Number of retained components."""
        return int(self.eigenvalues.size)

    @property
    def n(self) -> int:
        return int(self.scores.shape[0])

    @cached_property
    def variance_ratios(self) -> np.ndarray:
        """sum_{j<=k} lambda_j^2 / sum_{j<=m} lambda_j^2 for k = 1..m, read-only."""
        cumulative = np.cumsum(self.eigenvalues**2)
        ratios = cumulative / cumulative[-1]
        ratios.setflags(write=False)
        return ratios

    @cached_property
    def _score_spreads(self) -> dict:
        return {}

    def score_spread(self, components: int) -> np.ndarray:
        """np.std(scores[:, :components], axis=0, ddof=1), made once per count.

        Each count keeps its own array rather than a slice of the spread of
        every column: numpy sums a single column pairwise but several columns
        row by row, so a one-column spread can differ in its last bit.
        """
        spread = self._score_spreads.get(components)
        if spread is None:
            spread = np.std(self.scores[:, :components], axis=0, ddof=1)
            spread.setflags(write=False)
            self._score_spreads[components] = spread
        return spread


def compute_fpc(sample: FunctionalSample, max_rank: int | None = None) -> FpcBasis:
    """Eigendecompose the sample covariance operator of a centered sample.

    Parameters
    ----------
    sample : FunctionalSample
        Must be centered (`sample.centered` is True) with n >= 2.
    max_rank : int, optional
        Upper bound on the number of retained components; defaults to
        min(n - 1, G). Fewer may be returned when trailing eigenvalues fall
        below the relative floor.
    """
    return _compute_fpc(sample, sample.data * sample.grid.weights, max_rank)


def _compute_fpc(sample, weighted, max_rank=None):
    """`compute_fpc` with the curves times the grid weights, X * w, given.

    The scores are (X * w) @ e_j; a caller that also projects the curves
    passes the product it projects with, so it is made once.
    """
    if not sample.centered:
        raise ValueError("compute_fpc requires a centered sample")
    n, num_points = sample.data.shape
    if n < 2:
        raise ValueError("principal components need at least two curves")
    limit = min(n - 1, num_points)
    if max_rank is None:
        max_rank = limit
    if not 1 <= max_rank <= limit:
        raise ValueError(f"max_rank must lie in [1, {limit}], got {max_rank}")

    sqrt_w = np.sqrt(sample.grid.weights)
    root_weighted = sample.data * sqrt_w  # n x G
    gram_path = n <= num_points
    if gram_path:
        covariance = (root_weighted @ root_weighted.T) / n
    else:
        covariance = (root_weighted.T @ root_weighted) / n
    vals, vecs = np.linalg.eigh(covariance)
    order = np.argsort(vals)[::-1]
    vals = vals[order]
    keep = min(_positive_rank(vals), max_rank)
    if keep == 0:
        raise ValueError("sample covariance has no positive eigenvalues")
    vals = vals[:keep]
    basis_w = vecs[:, order[:keep]]  # G x m, or n x m on the Gram path
    if gram_path:
        # u_j = A^T v_j / sqrt(n lambda_j) is the unit eigenvector of A^T A / n
        basis_w = root_weighted.T @ basis_w
        basis_w /= np.sqrt(n * vals)
    del root_weighted  # an n x G array; the scores use X * w

    # every step below works in place on the fresh G x m array
    basis_w /= sqrt_w[:, None]
    flip = np.sign(basis_w[np.argmax(np.abs(basis_w), axis=0), np.arange(keep)])
    flip[flip == 0] = 1.0
    basis_w *= flip
    eigenfunctions = basis_w.T  # m x G
    scores = weighted @ eigenfunctions.T

    return FpcBasis(
        grid=sample.grid,
        eigenvalues=vals,
        eigenfunctions=eigenfunctions,
        scores=scores,
    )


def _positive_rank(sorted_vals):
    """Count leading eigenvalues above the relative floor."""
    top = sorted_vals[0]
    if top <= 0:
        return 0
    return int(np.count_nonzero(sorted_vals > RELATIVE_EIGENVALUE_FLOOR * top))


def reconstruct(basis: FpcBasis, rank: int) -> FunctionalSample:
    """Rebuild curves from their leading `rank` principal component scores."""
    if not 1 <= rank <= basis.m:
        raise ValueError(f"rank must lie in [1, {basis.m}], got {rank}")
    data = basis.scores[:, :rank] @ basis.eigenfunctions[:rank]
    return FunctionalSample(grid=basis.grid, data=data, centered=True)
