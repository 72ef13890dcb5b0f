import numpy as np
import pytest

from conftest import centered_bm_sample, hat_apply, inner_product
from flmgof import compute_fpc, estimate_rho, select_rank_sicc


def make_regression(n=80, num_points=101, rank=3, noise=0.1, seed=0):
    sample = centered_bm_sample(n, num_points=num_points, seed=seed)
    basis = compute_fpc(sample)
    rng = np.random.default_rng(seed + 1000)
    coef = rng.normal(size=rank)
    y = basis.scores[:, :rank] @ coef
    if noise:
        y = y + noise * rng.standard_normal(n)
    return sample, basis, y, coef


def test_coefficients_match_least_squares():
    sample, basis, y, _ = make_regression(seed=1)
    for rank in (1, 2, 5):
        fit = estimate_rho(y, basis, rank)
        design = basis.scores[:, :rank]
        ols, *_ = np.linalg.lstsq(design, y, rcond=None)
        assert np.allclose(fit.coef, ols, rtol=1e-10, atol=1e-12)
        assert np.allclose(fit.fitted, design @ ols, rtol=1e-10, atol=1e-12)
        assert np.allclose(fit.residuals, y - fit.fitted)


def test_noiseless_recovery():
    sample, basis, y, coef = make_regression(rank=2, noise=0.0, seed=2)
    fit = estimate_rho(y, basis, 2)
    assert np.allclose(fit.coef, coef, rtol=1e-10)
    truth = coef @ basis.eigenfunctions[:2]
    assert np.max(np.abs(fit.rho_hat - truth)) < 1e-8 * np.max(np.abs(truth))
    assert np.max(np.abs(fit.residuals)) < 1e-10 * np.max(np.abs(y))
    # slope coordinates are recoverable as quadrature inner products
    for j in range(2):
        proj = inner_product(fit.rho_hat, basis.eigenfunctions[j], sample.grid)
        assert abs(proj - coef[j]) < 1e-8


def test_hat_matrix_is_orthogonal_projection():
    sample, basis, y, _ = make_regression(n=40, num_points=31, seed=3)
    fit = estimate_rho(y, basis, 4)
    scores = basis.scores[:, :4]
    dense = scores @ np.diag(1.0 / (sample.n * basis.eigenvalues[:4])) @ scores.T
    rng = np.random.default_rng(7)
    v = rng.standard_normal(sample.n)
    hv = hat_apply(fit, v)
    assert np.allclose(hv, dense @ v, atol=1e-10)
    assert np.allclose(hat_apply(fit, hv), hv, atol=1e-10)
    assert np.allclose(dense, dense.T, atol=1e-12)
    assert np.allclose(hat_apply(fit, y), fit.fitted, atol=1e-10)
    # score columns are fixed points of the projection
    for j in range(4):
        col = scores[:, j]
        assert np.allclose(hat_apply(fit, col), col, atol=1e-9 * np.abs(col).max())


def test_refit_residual_identity():
    sample, basis, y, _ = make_regression(n=60, seed=4)
    fit = estimate_rho(y, basis, 3)
    rng = np.random.default_rng(11)
    e = rng.standard_normal(sample.n)
    refit = estimate_rho(fit.fitted + e, basis, 3)
    expected = e - hat_apply(fit, e)
    assert np.allclose(refit.residuals, expected, atol=1e-10)


def sicc_oracle(sample, y, basis, max_rank):
    n = sample.n
    values = np.empty(max_rank)
    for d in range(1, max_rank + 1):
        design = basis.scores[:, :d]
        coef, *_ = np.linalg.lstsq(design, y, rcond=None)
        rss = float(np.sum((y - design @ coef) ** 2))
        rss = max(rss, 1e-24 * max(float(y @ y), 1.0))
        values[d - 1] = np.log(rss / n) + d * np.log(n) / (n - d - 2.0)
    return int(np.argmin(values)) + 1, values


def test_sicc_matches_bruteforce():
    sample, basis, y, _ = make_regression(n=70, rank=3, noise=0.3, seed=5)
    rank, criterion = select_rank_sicc(y, basis, max_rank=10)
    oracle_rank, oracle_values = sicc_oracle(sample, y, basis, 10)
    assert rank == oracle_rank
    assert np.allclose(criterion, oracle_values, rtol=1e-9, atol=1e-9)


def test_sicc_noiseless_selects_true_rank():
    sample, basis, y, _ = make_regression(n=100, rank=2, noise=0.0, seed=6)
    rank, criterion = select_rank_sicc(y, basis, max_rank=8)
    assert rank == 2
    # beyond the true rank the floored RSS makes the penalty strictly dominate
    assert np.all(np.diff(criterion[1:]) > 0)


def test_sicc_prefers_smallest_tie():
    sample, basis, y, _ = make_regression(n=50, rank=1, noise=0.5, seed=7)
    rank, criterion = select_rank_sicc(y, basis, max_rank=6)
    minimizers = np.flatnonzero(criterion == criterion.min())
    assert rank == minimizers[0] + 1


def test_estimate_rho_errors():
    sample, basis, y, _ = make_regression(n=30, num_points=41, seed=8)
    with pytest.raises(ValueError):
        estimate_rho(y[:-1], basis, 2)
    with pytest.raises(ValueError):
        estimate_rho(np.r_[y[:-1], np.nan], basis, 2)
    with pytest.raises(ValueError):
        estimate_rho(y, basis, 0)
    with pytest.raises(ValueError):
        estimate_rho(y, basis, basis.m + 1)
    other = centered_bm_sample(31, num_points=41, seed=9)
    other_basis = compute_fpc(other)
    with pytest.raises(ValueError):
        estimate_rho(y, other_basis, 2)


def test_select_rank_errors():
    sample, basis, y, _ = make_regression(n=12, num_points=41, seed=10)
    with pytest.raises(ValueError):
        select_rank_sicc(y, basis, max_rank=0)
    with pytest.raises(ValueError):
        select_rank_sicc(y, basis, max_rank=basis.m + 1)
    with pytest.raises(ValueError):
        select_rank_sicc(y, basis, max_rank=10)  # needs n > max_rank + 2
