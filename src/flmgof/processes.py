"""Gaussian process paths on a grid in [0, 1].

Generators take an `np.random.Generator` and return an (n, G) array of paths
evaluated at the grid points. Covariance helpers give the matching population
kernels, used for validation and for the exact scenario signal variance.
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
    "gbm_mean",
]


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
    """Brownian bridge B(t) - t B(1), pinned at both ends."""
    points = grid.points
    if points[-1] < 1.0:
        extended = np.append(points, 1.0)
        paths = _bm_paths(n, extended, rng)
        return paths[:, :-1] - np.outer(paths[:, -1], points)
    paths = _bm_paths(n, points, rng)
    return paths - np.outer(paths[:, -1], points)


def cosine_expansion(n: int, grid: Grid, rng, decay: float, terms: int = 20) -> np.ndarray:
    """Finite cosine series sum_j xi_j sqrt(2) cos(j pi t), xi_j ~ N(0, j^-decay)."""
    j = np.arange(1, terms + 1)
    sd = j ** (-decay / 2.0)
    coeffs = rng.normal(0.0, 1.0, (n, terms)) * sd
    basis = np.sqrt(2.0) * np.cos(np.pi * np.outer(j, grid.points))
    return coeffs @ basis


def ornstein_uhlenbeck(
    n: int, grid: Grid, rng, mean_reversion: float = 1.0 / 3.0, volatility: float = 1.0
) -> np.ndarray:
    """Stationary Ornstein-Uhlenbeck path, X(0) ~ N(0, sigma^2 / (2 alpha)).

    Exact transition recursion on the grid, so the marginal variance is
    sigma^2 / (2 alpha) at every point.
    """
    alpha = mean_reversion
    stationary_var = volatility**2 / (2.0 * alpha)
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


def geometric_brownian_motion(
    n: int,
    grid: Grid,
    rng,
    drift: float = 0.5,
    volatility: float = 1.0,
    initial: float = 2.0,
) -> np.ndarray:
    """Geometric Brownian motion s0 exp((mu - sigma^2/2) t + sigma B(t))."""
    bm = _bm_paths(n, grid.points, rng)
    exponent = (drift - volatility**2 / 2.0) * grid.points + volatility * bm
    return initial * np.exp(exponent)


def bm_kernel(s, t):
    return np.minimum(s, t)


def bb_kernel(s, t):
    return np.minimum(s, t) - np.asarray(s) * np.asarray(t)


def ou_kernel(s, t, mean_reversion=1.0 / 3.0, volatility=1.0):
    stationary_var = volatility**2 / (2.0 * mean_reversion)
    return stationary_var * np.exp(-mean_reversion * np.abs(np.asarray(s) - np.asarray(t)))


def gbm_kernel(s, t, drift=0.5, volatility=1.0, initial=2.0):
    s = np.asarray(s, dtype=float)
    t = np.asarray(t, dtype=float)
    return (
        initial**2
        * np.exp(drift * (s + t))
        * (np.exp(volatility**2 * np.minimum(s, t)) - 1.0)
    )


def gbm_mean(t, drift=0.5, initial=2.0):
    return initial * np.exp(drift * np.asarray(t, dtype=float))
