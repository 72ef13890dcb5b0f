"""Functional linear regression on a principal component basis.

With orthonormal eigenfunctions e_j and scores s_ij = <X_i, e_j>, the slope
estimate truncated at rank d is

    rho_hat = sum_{j<=d} c_j e_j,   c_j = (1/(n lambda_j)) sum_i s_ij Y_i,

which coincides with ordinary least squares of Y on the score columns because
the score Gram matrix is n diag(lambda_j) (to rounding, see `fpc`). The induced hat matrix
H = S diag(1/(n lambda_j)) S^T is idempotent, so a refit on fitted + e leaves
residuals (I - H) e; the bootstrap leans on that identity.

Rank selection minimizes a small-sample corrected Schwarz criterion,
SICc(d) = log(RSS_d / n) + d log(n) / (n - d - 2), taking the smallest
minimizer on ties.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .fpc import FpcBasis
from .funspace import _frozen

__all__ = ["FlmFit", "estimate_rho", "select_rank_sicc"]


@dataclass(frozen=True)
class FlmFit:
    """Fitted functional linear model at a fixed rank."""

    basis: FpcBasis
    rank: int
    coef: np.ndarray
    rho_hat: np.ndarray
    fitted: np.ndarray
    residuals: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "coef", _frozen(self.coef))
        object.__setattr__(self, "rho_hat", _frozen(self.rho_hat))
        object.__setattr__(self, "fitted", _frozen(self.fitted))
        object.__setattr__(self, "residuals", _frozen(self.residuals))

    @property
    def n(self) -> int:
        return int(self.fitted.size)


def _check_response(y, n):
    arr = np.asarray(y, dtype=float)
    if arr.ndim != 1 or arr.size != n:
        raise ValueError(f"response must be a vector of length {n}")
    if not np.all(np.isfinite(arr)):
        raise ValueError("response contains non-finite values")
    return arr


def estimate_rho(y, basis: FpcBasis, rank: int) -> FlmFit:
    """Fit the functional linear model at the requested rank.

    `y` is expected centered, with one value per curve of the sample that
    `basis` was computed from. Raises if the rank exceeds the retained
    (positive-eigenvalue) components.
    """
    n = basis.n
    y = _check_response(y, n)
    if not 1 <= rank <= basis.m:
        raise ValueError(
            f"rank {rank} is not available: basis retains {basis.m} components "
            "with positive eigenvalues"
        )
    scores = basis.scores[:, :rank]
    lam = basis.eigenvalues[:rank]
    coef = (scores.T @ y) / (n * lam)
    fitted = scores @ coef
    residuals = y - fitted
    rho_hat = coef @ basis.eigenfunctions[:rank]
    return FlmFit(
        basis=basis,
        rank=rank,
        coef=coef,
        rho_hat=rho_hat,
        fitted=fitted,
        residuals=residuals,
    )


def _hat_apply_rows(fit: FlmFit, rows: np.ndarray) -> np.ndarray:
    """Hat matrix applied to each row of a (B, n) array."""
    scores = fit.basis.scores[:, : fit.rank]
    prec = 1.0 / (fit.n * fit.basis.eigenvalues[: fit.rank])
    return ((rows @ scores) * prec) @ scores.T


# RSS values this far below the response's total sum of squares are pure
# rounding noise; flooring them keeps log(RSS) ties deterministic when the
# model interpolates.
_RSS_RELATIVE_FLOOR = 1e-24


def select_rank_sicc(y, basis: FpcBasis, max_rank: int):
    """Choose the truncation rank by the corrected Schwarz criterion.

    Returns
    -------
    rank : int
        Smallest minimizer of SICc over d = 1..max_rank.
    criterion : ndarray, shape (max_rank,)
        SICc values, criterion[d - 1] for rank d.
    """
    n = basis.n
    y = _check_response(y, n)
    if not 1 <= max_rank <= basis.m:
        raise ValueError(f"max_rank must lie in [1, {basis.m}], got {max_rank}")
    if n <= max_rank + 2:
        raise ValueError("SICc needs n > max_rank + 2")

    scores = basis.scores[:, :max_rank]
    lam = basis.eigenvalues[:max_rank]
    projections = scores.T @ y
    explained = np.cumsum(projections**2 / (n * lam))
    total = float(y @ y)
    rss = np.maximum(total - explained, 0.0)
    rss = np.maximum(rss, _RSS_RELATIVE_FLOOR * max(total, 1.0))

    d = np.arange(1, max_rank + 1, dtype=float)
    criterion = np.log(rss / n) + d * np.log(n) / (n - d - 2.0)
    rank = int(np.argmin(criterion)) + 1
    return rank, criterion
