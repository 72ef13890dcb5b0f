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
    eigenvalues fall below the relative floor.
    """
    return _compute_fpc(center(sample))[0]


def _compute_fpc(sample):
    """`compute_fpc` of a centered sample made for this call, and A = X * sqrt(w).

    Returns (basis, A). A is formed in place of the sample's curves, which
    the sample then holds, so the call adds no n x G array; a caller projects
    the curves with A, as <X_i, h> = A_i . (sqrt(w) h). The scores are
    sqrt(n lambda_j) v_j on the Gram path and A u_j on the kernel path.
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
        scores = vecs
        scores *= spread
    else:
        basis_w = vecs
        scores = root_weighted @ basis_w

    # every step below works in place on the fresh G x m and n x m arrays
    basis_w /= sqrt_w[:, None]
    flip = np.sign(basis_w[np.argmax(np.abs(basis_w), axis=0), np.arange(keep)])
    flip[flip == 0] = 1.0
    basis_w *= flip
    scores *= flip

    basis = _adopt(
        FpcBasis,
        grid=sample.grid,
        eigenvalues=vals,
        eigenfunctions=basis_w.T,  # m x G
        scores=scores,
    )
    return basis, root_weighted


def _positive_rank(sorted_vals):
    """Count leading eigenvalues above the relative floor."""
    top = sorted_vals[0]
    if top <= 0:
        return 0
    return int(np.count_nonzero(sorted_vals > RELATIVE_EIGENVALUE_FLOOR * top))

