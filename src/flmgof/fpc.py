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

A is formed in the buffer of the centered curves. `_compute_fpc` returns the
basis of every component, A and the unit eigenvectors U, with scores only on
the Gram path; `compute_fpc` adds them on the kernel path (n > G) as one
product A U. A test instead reads the projections and rank inputs it needs
from A, keeps only the score columns its fits read (`_leading`), and then
frees A.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .funspace import FunctionalSample, Grid, _adopt, _frozen, center

__all__ = ["FpcBasis", "compute_fpc"]

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
    eigenvalues fall below the relative floor. Curves whose squared norms
    overflow are refused with `ValueError`.

    The decomposition is `_compute_fpc`'s. On the kernel path (n > G) the
    scores are then one product A U, so the call holds A and the n x m
    scores at once, about 2.07 n * G * 8 bytes traced at
    n = 8192, G = 201, where a test holds about 1.13: a known trade-off.
    """
    basis, root_weighted, unit = _compute_fpc(center(sample))
    if basis.scores.shape[1] == basis.m:  # the Gram path's closed form
        return basis
    return _adopt(FpcBasis, grid=basis.grid, eigenvalues=basis.eigenvalues,
                  eigenfunctions=basis.eigenfunctions, scores=root_weighted @ unit)


def _compute_fpc(sample):
    """The eigendecomposition of `compute_fpc` for a centered sample made for
    this call: (basis, A, U), A = X * sqrt(w).

    The basis holds every component. Its scores are the closed form
    sqrt(n lambda_j) v_j on the Gram path and an (n, 0) array on the kernel
    path. A is formed in place of the sample's curves and is read-only, so
    the call adds no n x G array. U is the G x m matrix of unit eigenvectors,
    u_j = sqrt(w) e_j. From them a caller projects the curves, as
    <X_i, h> = A_i . (sqrt(w) h), and forms each score column's inner
    product with a vector y, as <S_j, y> = u_j . (A^T y).
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
    with np.errstate(over="ignore", invalid="ignore"):
        if gram_path:
            covariance = (root_weighted @ root_weighted.T) / n
        else:
            covariance = (root_weighted.T @ root_weighted) / n
    if not np.all(np.isfinite(covariance)):
        raise ValueError("the curves' squared norms overflow: the sample covariance "
                         "is not finite")
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
        unit = root_weighted.T @ vecs
        unit /= spread
    else:
        unit = vecs
    basis_w = unit / sqrt_w[:, None]

    flip = np.sign(basis_w[np.argmax(np.abs(basis_w), axis=0), np.arange(keep)])
    flip[flip == 0] = 1.0
    basis_w *= flip
    unit *= flip
    # the Gram path's closed-form scores; the kernel path's are products A u_j
    scores = np.multiply(vecs, spread * flip, out=vecs) if gram_path else np.empty((n, 0))
    basis = _adopt(FpcBasis, grid=sample.grid, eigenvalues=vals,
                   eigenfunctions=basis_w.T, scores=scores)  # m x G
    return basis, root_weighted, unit


def _leading(basis, root_weighted, unit, k):
    """The k leading components of a `_compute_fpc` basis, with their scores:
    the Gram path's first k columns, or on the kernel path each column one
    product A u_j into row j of a (k, n) array, so that a column has the same
    bits whatever k is."""
    scores = basis.scores[:, :k]
    if scores.shape[1] < k:
        rows = np.empty((k, basis.n))
        for j, row in enumerate(rows):
            np.matmul(root_weighted, unit[:, j], out=row)
        scores = rows.T
    return _adopt(FpcBasis, grid=basis.grid, eigenvalues=basis.eigenvalues[:k],
                  eigenfunctions=basis.eigenfunctions[:k], scores=scores)


def _positive_rank(sorted_vals):
    """Count leading eigenvalues above the relative floor."""
    top = sorted_vals[0]
    if top <= 0:
        return 0
    return int(np.count_nonzero(sorted_vals > RELATIVE_EIGENVALUE_FLOOR * top))

