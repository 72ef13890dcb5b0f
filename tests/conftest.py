"""Shared helpers for the test suite."""

import contextlib
import os

import numpy as np
import pytest

from flmgof import FunctionalSample, center, gen_process, uniform_grid
from flmgof.forking import _set_blas_threads
from flmgof.flm import _check_response, _hat_apply_rows
from flmgof.funspace import _as_float_vector
from flmgof.processes import GBM_DRIFT, GBM_INITIAL


@pytest.fixture(autouse=True)
def no_child_left():
    """Fail a test that leaves a child process unreaped, running or exited."""
    yield
    if not hasattr(os, "WNOHANG"):
        return
    try:
        pid, _ = os.waitpid(-1, os.WNOHANG)
    except ChildProcessError:
        return
    if pid == 0:
        pytest.fail("the test left a running child process")
    pytest.fail(f"the test left child process {pid} unreaped")


def brute_process_norms(projections, marks):
    """Double-loop reference for the projected-process norms.

    Evaluates T(x) = n^(-1/2) sum_i 1{p_i <= x} m_i literally at every
    observed projection value with a double loop.
    """
    projections = np.asarray(projections, dtype=float)
    marks = np.asarray(marks, dtype=float)
    n = projections.size
    scale = 1.0 / np.sqrt(n)
    t_at = np.array(
        [scale * marks[projections <= x].sum() for x in projections]
    )
    return float(np.max(np.abs(t_at))), float(np.mean(t_at**2))


def centered_bm_sample(n, num_points=201, seed=0):
    """Centered Brownian motion sample for fixture-style reuse."""
    grid = uniform_grid(num_points)
    rng = np.random.Generator(np.random.Philox(seed))
    sample = gen_process("bm", n, grid, rng)
    return center(sample)


def inner_product(f, g, grid):
    """Trapezoid approximation of the L2[0,1] inner product of two curves."""
    fv = _as_float_vector(f, "first curve")
    gv = _as_float_vector(g, "second curve")
    if fv.size != grid.size or gv.size != grid.size:
        raise ValueError("curve length does not match the grid")
    return float(np.sum(grid.weights * fv * gv))


def curve_norm(f, grid):
    """Quadrature L2 norm of a curve."""
    return float(np.sqrt(max(inner_product(f, f, grid), 0.0)))


def project(sample, direction):
    """Inner products <X_i, h> for every curve in the sample."""
    if direction.size != sample.grid.size:
        raise ValueError("direction length does not match the sample grid")
    return (sample.data * sample.grid.weights) @ direction


def reconstruct(basis, rank):
    """Rebuild curves from their leading `rank` principal component scores."""
    if not 1 <= rank <= basis.m:
        raise ValueError(f"rank must lie in [1, {basis.m}], got {rank}")
    data = basis.scores[:, :rank] @ basis.eigenfunctions[:rank]
    return FunctionalSample(grid=basis.grid, data=data)


def hat_apply(fit, v):
    """Apply the hat matrix of the fit to a vector of length n."""
    v = _check_response(v, fit.n)
    return _hat_apply_rows(fit, v[None, :])[0]


def gbm_mean(t):
    """Mean curve of `processes.geometric_brownian_motion`."""
    return GBM_INITIAL * np.exp(GBM_DRIFT * np.asarray(t, dtype=float))


@contextlib.contextmanager
def _blas_on_one_thread():
    """Run numpy's OpenBLAS, if found, on one thread; restore the count on exit."""
    before = _set_blas_threads(1)
    try:
        yield
    finally:
        _set_blas_threads(before)  # None, where no OpenBLAS was found, sets nothing
