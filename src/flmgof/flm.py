"""Functional linear regression on a principal component basis.

With orthonormal eigenfunctions e_j and scores s_ij = <X_i, e_j>, the slope
estimate truncated at rank d is

    rho_hat = sum_{j<=d} c_j e_j,   c_j = (1/(n lambda_j)) sum_i s_ij Y_i,

which coincides with ordinary least squares of Y on the score columns because
the score Gram matrix is n diag(lambda_j) (to rounding, see `fpc`). Scores of
centered curves sum to zero, so the fit's design Q = [1/sqrt(n) | s_j /
sqrt(n lambda_j)] has orthonormal columns and Q Q^T = 11^T/n + H, with H the
hat matrix: a centered refit on fitted + e leaves residuals e - Q (Q^T e).

Rank selection minimizes a small-sample corrected Schwarz criterion,
SICc(d) = log(RSS_d / n) + d log(n) / (n - d - 2), taking the smallest
minimizer on ties.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .fpc import FpcBasis
from .funspace import _adopt, _frozen, _is_integer, _read_only

__all__ = ["FlmFit", "estimate_rho", "select_rank_sicc"]


@dataclass(frozen=True)
class FlmFit:
    """Fitted functional linear model at a fixed rank, with the n x (rank + 1)
    design Q of the module docstring built C-contiguous and read-only."""

    basis: FpcBasis
    rank: int
    coef: np.ndarray
    rho_hat: np.ndarray
    fitted: np.ndarray
    residuals: np.ndarray
    design: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        self._freeze(_frozen)

    def _freeze(self, freeze):
        for name in ("coef", "rho_hat", "fitted", "residuals"):
            object.__setattr__(self, name, freeze(getattr(self, name)))
        n, rank = self.basis.n, self.rank
        spread = np.sqrt(n * self.basis.eigenvalues[:rank])
        design = np.empty((n, rank + 1))  # C order, whatever the scores' order
        design[:, 0] = 1 / np.sqrt(n)
        np.divide(self.basis.scores[:, :rank], spread, out=design[:, 1:])
        object.__setattr__(self, "design", _read_only(design))

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


def _check_rank(rank, m):
    """Refuse a rank that is not an integer in [1, m], m a basis's components."""
    if not _is_integer(rank) or not 1 <= rank <= m:
        raise ValueError(
            f"rank must be an integer in [1, {m}], the components the basis "
            f"retains with positive eigenvalues, got {rank!r}"
        )


def estimate_rho(y, basis: FpcBasis, rank: int) -> FlmFit:
    """Fit the functional linear model at the requested rank.

    `y` is expected centered, with one value per curve of the sample that
    `basis` was computed from. Raises if the rank exceeds the retained
    (positive-eigenvalue) components.
    """
    n = basis.n
    y = _check_response(y, n)
    _check_rank(rank, basis.m)
    scores = basis.scores[:, :rank]
    lam = basis.eigenvalues[:rank]
    coef = (scores.T @ y) / (n * lam)
    fitted = scores @ coef
    residuals = y - fitted
    rho_hat = coef @ basis.eigenfunctions[:rank]
    return _adopt(FlmFit, basis=basis, rank=rank, coef=coef, rho_hat=rho_hat,
                  fitted=fitted, residuals=residuals)


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

    Raises ValueError when the criterion is not finite, as when y.y
    overflows.
    """
    n = basis.n
    y = _check_response(y, n)
    if not _is_integer(max_rank) or not 1 <= max_rank <= basis.m:
        raise ValueError(f"max_rank must be an integer in [1, {basis.m}], got {max_rank!r}")
    if n <= max_rank + 2:
        raise ValueError("SICc needs n > max_rank + 2")

    # an overflowed y makes the products inf or NaN, which the criterion refuses
    with np.errstate(over="ignore", invalid="ignore"):
        products = basis.scores[:, :max_rank].T @ y
    return _select_rank_sicc(products, y, basis.eigenvalues[:max_rank])


def _select_rank_sicc(products, y, eigenvalues):
    """`select_rank_sicc` of the centered response y from its inner products
    <S_j, y> with the max_rank leading score columns and their eigenvalues;
    the caller checks max_rank."""
    n, d = y.size, np.arange(1, products.size + 1, dtype=float)
    # an overflowed y.y makes every RSS inf or NaN, and argmin would then
    # pick a rank from NaN; that is refused below instead
    with np.errstate(over="ignore", invalid="ignore"):
        explained = np.cumsum(products**2 / (n * eigenvalues))
        total = float(y @ y)
        rss = np.maximum(total - explained, 0.0)
        rss = np.maximum(rss, _RSS_RELATIVE_FLOOR * max(total, 1.0))
        criterion = np.log(rss / n) + d * np.log(n) / (n - d - 2.0)
    if not np.all(np.isfinite(criterion)):
        raise ValueError("SICc is not finite: the response's sum of squares overflows")
    rank = int(np.argmin(criterion)) + 1
    return rank, criterion
