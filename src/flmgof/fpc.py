"""Empirical functional principal components in the quadrature metric.

The sample covariance operator of centered curves X_1..X_n is the kernel
C(s, t) = (1/n) sum_i X_i(s) X_i(t). On a grid with trapezoid weights w the
L2 eigenproblem becomes the symmetric matrix problem

    W^(1/2) C W^(1/2) u = lambda u,      e = W^(-1/2) u,

so the eigenfunctions e_j are orthonormal in the quadrature inner product and
the scores S_ij = <X_i, e_j> = (A u_j)_i, with A = X W^(1/2), have Gram
matrix S^T S = n diag(lambda). When n <= G the same spectrum is read off the
n x n Gram matrix A A^T / n instead of the G x G kernel, the cheaper path for
short samples; its unit eigenvectors v_j give the scores in closed form,
sqrt(n lambda_j) v_j, which meet that identity to rounding.

A is formed in the buffer of the centered curves. On the kernel path
(n > G) the scores A u_j are written over it once A has been read, row block
by row block, so the basis's n x m scores are the first n * m values of that
one n x G buffer and the call holds no second n x G array; scores that fill
at most half of it get their own array instead, and the buffer is freed.
Each block is one product into one reused scratch block, and blocks are sized
so that they round as one product over all rows does (`_score_rows`).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .funspace import FunctionalSample, Grid, _adopt, _frozen, center

__all__ = ["FpcBasis", "compute_fpc"]

# Eigenvalues below this fraction of the leading one are treated as zero and
# their eigenfunctions dropped.
RELATIVE_EIGENVALUE_FLOOR = 1e-12

# Least multiply-adds, and the multiple of rows, of one row block of the score
# product A U. OpenBLAS 0.3.31 (AVX-512) takes other kernels for products of
# up to about 10**6 multiply-adds and rounds an odd m's last column by a row's
# place in a run of 24 rows; blocks so sized gave one product's bits for bm,
# ou, gbm, hhn1 and hhn2 curves at G = 21..201, n = G + 1..8192, on one and
# two threads, but for ou curves at m = G = 201 on two threads, where one
# product splits its rows into four runs and blocks of 48..2,048 rows did not.
SCORE_BLOCK = 2**22
SCORE_ROW_ALIGN = 48


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
        scores[i, j] = <X_i, e_j>, with scores.T @ scores = n diag(eigenvalues).
    """

    grid: Grid
    eigenvalues: np.ndarray
    eigenfunctions: np.ndarray
    scores: np.ndarray

    def __post_init__(self):
        self._freeze(_frozen)

    def _freeze(self, freeze):
        for name in ("eigenvalues", "eigenfunctions", "scores"):
            object.__setattr__(self, name, freeze(getattr(self, name)))

    @property
    def m(self) -> int:
        """Number of retained components."""
        return int(self.eigenvalues.size)

    @property
    def n(self) -> int:
        return int(self.scores.shape[0])


def compute_fpc(sample: FunctionalSample) -> FpcBasis:
    """Eigendecompose the sample covariance operator of the centered sample.

    Parameters
    ----------
    sample : FunctionalSample
        At least two curves; they are centered here, so the scores are those
        of `center(sample)`.

    At most min(n - 1, G) components are kept, fewer when trailing
    eigenvalues fall below the relative floor.
    """
    return _compute_fpc(center(sample))[0]


def _compute_fpc(sample, project=None):
    """`compute_fpc` of a centered sample made for this call, and what
    `project(basis, A)` returns of the basis and A = X * sqrt(w).

    Returns (basis, projections), projections None without `project`. A is
    formed in place of the sample's curves, so the call adds no n x G array.
    `project` is called once the eigenfunctions are known and before any
    score is written: it may read every field of the basis but the scores,
    and A, from which a caller projects the curves, as <X_i, h> = A_i .
    (sqrt(w) h). The scores are sqrt(n lambda_j) v_j on the Gram path and
    A u_j on the kernel path, written after `project` returns over A's own
    buffer, or to their own array if they fill at most half of it
    (`_write_scores`); the sample then no longer holds A.
    """
    n, num_points = sample.data.shape
    if n < 2:
        raise ValueError("principal components need at least two curves")

    sqrt_w = np.sqrt(sample.grid.weights)
    root_weighted = sample.data  # n x G
    root_weighted.setflags(write=True)
    root_weighted *= sqrt_w
    root_weighted.setflags(write=False)
    gram_path = n <= num_points
    if gram_path:
        covariance = (root_weighted @ root_weighted.T) / n
    else:
        covariance = (root_weighted.T @ root_weighted) / n
    vals, vecs = np.linalg.eigh(covariance)
    order = np.argsort(vals)[::-1]
    vals = vals[order]
    # vals has at most G entries, and n centered curves span n - 1 dimensions
    keep = min(_positive_rank(vals), n - 1)
    if keep == 0:
        raise ValueError("sample covariance has no positive eigenvalues")
    vals = vals[:keep]
    vecs = vecs[:, order[:keep]]  # G x m, or n x m on the Gram path
    if gram_path:
        # u_j = A^T v_j / sqrt(n lambda_j) is the unit eigenvector of A^T A / n,
        # and A u_j = A A^T v_j / sqrt(n lambda_j) = sqrt(n lambda_j) v_j
        spread = np.sqrt(n * vals)
        basis_w = root_weighted.T @ vecs
        basis_w /= spread
        basis_w /= sqrt_w[:, None]
        scores = vecs
        scores *= spread
    else:
        basis_w = vecs / sqrt_w[:, None]  # vecs, the u_j, give the scores below
        # scores that fill at most half of A's buffer get their own array, so
        # the buffer is freed before a test's bootstrap
        if 2 * keep > num_points:
            root_weighted.setflags(write=True)
            values = root_weighted.reshape(-1)  # a writable view of A's buffer
            root_weighted.setflags(write=False)
        else:
            values = np.empty(n * keep)
        scores = values[: n * keep].reshape(n, keep)

    flip = np.sign(basis_w[np.argmax(np.abs(basis_w), axis=0), np.arange(keep)])
    flip[flip == 0] = 1.0
    basis_w *= flip
    if gram_path:
        scores *= flip

    basis = _adopt(
        FpcBasis,
        grid=sample.grid,
        eigenvalues=vals,
        eigenfunctions=basis_w.T,  # m x G
        scores=scores,
    )
    projections = None if project is None else project(basis, root_weighted)
    if not gram_path:
        _write_scores(root_weighted, vecs, flip, values)
    return basis, projections


def _score_rows(keep, num_points):
    """Rows of a block of the score product: the least multiple of
    SCORE_ROW_ALIGN with at least SCORE_BLOCK multiply-adds, at G m a row."""
    per_block = SCORE_ROW_ALIGN * keep * num_points
    return SCORE_ROW_ALIGN * -(-SCORE_BLOCK // per_block)


def _write_scores(root_weighted, unit, flip, values):
    """Write the scores (A u_j) * flip_j, C order, to the flat `values`.

    Block rows [a, b) go to values [a m, b m). Where `values` is A's own
    buffer these lie in rows of A below b, all read by then, since m <= G.
    Blocks have `_score_rows` rows and the last also takes the remainder, so
    each is at least that long; each is one product into one scratch block,
    the size of the last.
    """
    n, num_points = root_weighted.shape
    keep = unit.shape[1]
    rows = _score_rows(keep, num_points)
    last = rows * (max(1, n // rows) - 1)  # first row of the last block
    block = np.empty((n - last, keep))
    for start in range(0, last + 1, rows):
        stop = n if start == last else start + rows
        scores = np.matmul(root_weighted[start:stop], unit, out=block[: stop - start])
        scores *= flip
        values[start * keep : stop * keep] = scores.reshape(-1)


def _positive_rank(sorted_vals):
    """Count leading eigenvalues above the relative floor."""
    top = sorted_vals[0]
    if top <= 0:
        return 0
    return int(np.count_nonzero(sorted_vals > RELATIVE_EIGENVALUE_FLOOR * top))

