"""Discretized curves: grids, quadrature inner products, centering.

Every curve in an analysis lives on one shared grid of strictly increasing
abscissae, anywhere on the real line. Integrals are composite trapezoid sums,
so an inner product is a weighted dot product and all downstream linear
algebra stays dense and exact with respect to that quadrature rule.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "Grid",
    "FunctionalSample",
    "make_grid",
    "uniform_grid",
    "center",
]


def _as_float_vector(values, name):
    arr = np.asarray(values, dtype=float)
    if arr.ndim != 1:
        raise ValueError(f"{name} must be one-dimensional")
    if arr.size == 0:
        raise ValueError(f"{name} is empty")
    if not np.all(np.isfinite(arr)):
        raise ValueError(f"{name} contains non-finite values")
    return arr


def _is_integer(value) -> bool:
    """True for an int or a numpy integer, False for a bool or a float."""
    return isinstance(value, (int, np.integer)) and not isinstance(value, bool)


def _frozen(arr):
    arr = np.array(arr, dtype=float, copy=True)
    arr.setflags(write=False)
    return arr


def _read_only(arr):
    """`arr` as floats, made read-only in place rather than copied."""
    arr = np.asarray(arr, dtype=float)
    arr.setflags(write=False)
    return arr


def _adopt(cls, **fields):
    """`cls(**fields)` for arrays the library has just made and holds nowhere
    else: checked as by the constructor, which copies because a caller may
    still write its arrays, but frozen in place instead of copied."""
    instance = object.__new__(cls)
    for name, value in fields.items():
        object.__setattr__(instance, name, value)
    instance._freeze(_read_only)
    return instance


@dataclass(frozen=True)
class Grid:
    """Quadrature grid: strictly increasing points, positive weights."""

    points: np.ndarray
    weights: np.ndarray

    def __post_init__(self):
        points = _as_float_vector(self.points, "grid points")
        weights = _as_float_vector(self.weights, "grid weights")
        if points.size < 2:
            raise ValueError("a grid needs at least two points")
        if np.any(np.diff(points) <= 0):
            raise ValueError("grid points must be strictly increasing")
        if weights.shape != points.shape:
            raise ValueError("grid weights must match grid points in length")
        if np.any(weights <= 0):
            raise ValueError("grid weights must be positive")
        object.__setattr__(self, "points", _frozen(points))
        object.__setattr__(self, "weights", _frozen(weights))

    @property
    def size(self) -> int:
        return int(self.points.size)

    def matches(self, other) -> bool:
        """True when both grids share identical abscissae."""
        return self.size == other.size and np.array_equal(self.points, other.points)


def make_grid(points) -> Grid:
    """Build a grid with composite trapezoid weights for the given abscissae."""
    pts = _as_float_vector(points, "grid points")
    if pts.size < 2:
        raise ValueError("a grid needs at least two points")
    w = np.empty_like(pts)
    w[0] = (pts[1] - pts[0]) / 2.0
    w[-1] = (pts[-1] - pts[-2]) / 2.0
    if pts.size > 2:
        w[1:-1] = (pts[2:] - pts[:-2]) / 2.0
    return Grid(points=pts, weights=w)


def uniform_grid(num_points: int = 201) -> Grid:
    """Equidistant trapezoid grid on [0, 1]."""
    if not _is_integer(num_points) or num_points < 2:
        raise ValueError(f"num_points must be an integer >= 2, got {num_points!r}")
    return make_grid(np.linspace(0.0, 1.0, num_points))


@dataclass(frozen=True)
class FunctionalSample:
    """A sample of n curves stored row-wise on a shared grid.

    Parameters
    ----------
    grid : Grid
        Shared abscissae and quadrature weights.
    data : ndarray, shape (n, grid.size)
        One curve per row; all values finite.
    """

    grid: Grid
    data: np.ndarray

    def __post_init__(self):
        self._freeze(_frozen)

    def _freeze(self, freeze):
        data = np.asarray(self.data, dtype=float)
        if data.ndim != 2:
            raise ValueError("sample data must be a 2-d array (rows = curves)")
        if data.shape[0] < 1:
            raise ValueError("sample must contain at least one curve")
        if data.shape[1] != self.grid.size:
            raise ValueError("sample width does not match the grid")
        if not np.all(np.isfinite(data)):
            raise ValueError("sample data contains non-finite values")
        object.__setattr__(self, "data", freeze(data))

    @property
    def n(self) -> int:
        return int(self.data.shape[0])


def center(sample: FunctionalSample) -> FunctionalSample:
    """Subtract the pointwise sample mean curve.

    The result has the same grid and rows that sum to zero in every column;
    for n = 1 the single curve becomes identically zero.
    """
    mean_curve = sample.data.mean(axis=0)
    return _adopt(FunctionalSample, grid=sample.grid, data=sample.data - mean_curve)
