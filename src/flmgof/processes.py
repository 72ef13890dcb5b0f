"""Gaussian process paths on a grid.

Generators take an `np.random.Generator` and return an (n, G) array of paths
evaluated at the grid points. Brownian motion (plain and geometric) starts at
time 0, or at a negative first point, and the bridge is pinned at 0 and 1.
Covariance helpers give the matching population kernels (the bridge's on
[0, 1]), used for validation and for the exact scenario signal variance.
"""

from __future__ import annotations

import numpy as np

from .funspace import Grid

__all__ = [
    "brownian_motion",
    "brownian_bridge",
    "cosine_expansion",
    "ornstein_uhlenbeck",
    "geometric_brownian_motion",
    "bm_kernel",
    "bb_kernel",
    "ou_kernel",
    "gbm_kernel",
]

# Shared by each generator and its covariance kernel; all have unit volatility.
COSINE_TERMS = 20
OU_MEAN_REVERSION = 1.0 / 3.0
GBM_DRIFT, GBM_INITIAL = 0.5, 2.0


def _bm_paths(n, points, rng):
    steps = np.empty((n, points.size))
    steps[:, 0] = rng.normal(0.0, np.sqrt(points[0]), n) if points[0] > 0 else 0.0
    increments = np.sqrt(np.diff(points))
    steps[:, 1:] = rng.normal(0.0, 1.0, (n, points.size - 1)) * increments
    return np.cumsum(steps, axis=1)


def brownian_motion(n: int, grid: Grid, rng) -> np.ndarray:
    """Standard Brownian motion, X(0) = 0."""
    return _bm_paths(n, grid.points, rng)


def brownian_bridge(n: int, grid: Grid, rng) -> np.ndarray:
    """Brownian bridge B(t) - t B(1), pinned at t = 0 and t = 1.

    B(1) is drawn at t = 1 whether or not the grid holds that point.
    """
    extended = np.union1d(grid.points, 1.0)
    one = np.searchsorted(extended, 1.0)
    paths = _bm_paths(n, extended, rng)
    paths -= np.outer(paths[:, one], extended)
    return paths if extended.size == grid.size else np.delete(paths, one, axis=1)


def cosine_expansion(n: int, grid: Grid, rng, decay: float) -> np.ndarray:
    """Finite cosine series sum_j xi_j sqrt(2) cos(j pi t), xi_j ~ N(0, j^-decay)."""
    j = np.arange(1, COSINE_TERMS + 1)
    sd = j ** (-decay / 2.0)
    coeffs = rng.normal(0.0, 1.0, (n, COSINE_TERMS)) * sd
    basis = np.sqrt(2.0) * np.cos(np.pi * np.outer(j, grid.points))
    return coeffs @ basis


def ornstein_uhlenbeck(
    n: int, grid: Grid, rng, mean_reversion: float = OU_MEAN_REVERSION
) -> np.ndarray:
    """Stationary Ornstein-Uhlenbeck path, X(0) ~ N(0, 1 / (2 alpha)).

    Exact transition recursion on the grid, so the marginal variance is
    1 / (2 alpha) at every point.
    """
    alpha = mean_reversion
    stationary_var = 1.0 / (2.0 * alpha)
    points = grid.points
    # one path per column, so each step of the recursion is a contiguous row
    paths = np.empty((points.size, n))
    # a stationary start propagated to the first abscissa is stationary again
    paths[0] = rng.normal(0.0, np.sqrt(stationary_var), n)
    decay = np.exp(-alpha * np.diff(points))
    innovation_sd = np.sqrt(stationary_var * (1.0 - decay**2))
    noise = rng.normal(0.0, 1.0, (n, points.size - 1))
    np.multiply(noise.T, innovation_sd[:, None], out=paths[1:])
    carried = np.empty(n)
    # row views and Python floats made once, not indexed out on every step
    rows = list(paths)
    for row, following, factor in zip(rows, rows[1:], decay.tolist()):
        np.multiply(row, factor, out=carried)
        np.add(carried, following, out=following)
    return np.ascontiguousarray(paths.T)


def geometric_brownian_motion(n: int, grid: Grid, rng) -> np.ndarray:
    """Geometric Brownian motion GBM_INITIAL exp((GBM_DRIFT - 1/2) t + B(t))."""
    bm = _bm_paths(n, grid.points, rng)
    exponent = (GBM_DRIFT - 0.5) * grid.points + bm
    return GBM_INITIAL * np.exp(exponent)


def bm_kernel(s, t):
    return np.minimum(s, t)


def bb_kernel(s, t):
    return np.minimum(s, t) - np.asarray(s) * np.asarray(t)


def ou_kernel(s, t):
    stationary_var = 1.0 / (2.0 * OU_MEAN_REVERSION)
    distance = np.abs(np.asarray(s) - np.asarray(t))
    return stationary_var * np.exp(-OU_MEAN_REVERSION * distance)


def gbm_kernel(s, t):
    s = np.asarray(s, dtype=float)
    t = np.asarray(t, dtype=float)
    return (
        GBM_INITIAL**2
        * np.exp(GBM_DRIFT * (s + t))
        * (np.exp(np.minimum(s, t)) - 1.0)
    )

