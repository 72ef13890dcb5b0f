import numpy as np
import pytest

from conftest import centered_bm_sample, hat_apply, hat_matrix, inner_product
from flmgof import FlmFit, compute_fpc, estimate_rho, gen_process, select_rank_sicc
from flmgof import deviation, gen_response, scenario, uniform_grid


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
    dense = hat_matrix(fit)
    # the fit's design spans the constant and the score columns: Q Q^T is
    # the projector of centering and then regressing
    centering = np.full((sample.n, sample.n), 1.0 / sample.n)
    assert np.allclose(fit.design @ fit.design.T, dense + centering, atol=1e-12)
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


@pytest.mark.parametrize("kind", ["ou", "bm"])
@pytest.mark.parametrize("n, num_points", [(200, 201), (150, 51)])
def test_design_is_orthonormal(kind, n, num_points):
    # Q = [1/sqrt(n) | s_j / sqrt(n lambda_j)] at the largest rank. The score
    # block is S^T S / (n sqrt(lambda_i lambda_j)), so it takes the bounds of
    # test_score_gram_matrix_is_n_diag_lambda: per pair on the Gram path
    # (n <= G), relative to lambda_1 on the kernel path. The constant column
    # meets score column j to rounding relative to lambda_1 / lambda_j on
    # both paths: on the Gram path eigh leaves v_j a component of about
    # eps * lambda_1 / lambda_j along the null vector of the centered curves
    sample = gen_process(kind, n, uniform_grid(num_points), np.random.default_rng(n))
    basis = compute_fpc(sample)
    lam = basis.eigenvalues
    y = basis.scores[:, 0] + np.random.default_rng(n + 1).standard_normal(n)
    fit = estimate_rho(y - y.mean(), basis, basis.m)
    design = fit.design
    assert design.shape == (n, basis.m + 1)
    assert design.flags.c_contiguous and not design.flags.writeable
    assert np.all(design[:, 0] == 1.0 / np.sqrt(n))
    error = np.abs(design.T @ design - np.eye(basis.m + 1))
    pair = np.sqrt(np.outer(lam, lam))
    scale = pair if n <= num_points else lam[0]
    assert np.max(error[1:, 1:] * pair / scale) <= 1e-13
    assert np.max(error[0, 1:] * lam / lam[0]) <= 1e-13


def test_a_hand_built_fit_gets_the_design_of_estimate_rho():
    sample, basis, y, _ = make_regression(n=40, num_points=31, seed=12)
    fit = estimate_rho(y, basis, 3)
    names = ("coef", "rho_hat", "fitted", "residuals")
    assert not any(getattr(fit, name).flags.writeable for name in names)
    arrays = {name: np.array(getattr(fit, name)) for name in names}
    before = {name: array.copy() for name, array in arrays.items()}
    built = FlmFit(basis=basis, rank=3, **arrays)
    assert np.array_equal(built.design, fit.design)
    assert built.design.flags.c_contiguous and not built.design.flags.writeable
    for name, array in arrays.items():
        # the fit holds read-only copies; the caller's arrays stay as they were
        assert array.flags.writeable and np.array_equal(array, before[name])
        assert getattr(built, name) is not array
        assert not getattr(built, name).flags.writeable
        assert np.array_equal(getattr(built, name), array)


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


def test_sicc_refuses_a_criterion_that_overflows():
    # y.y overflows from a scale of about 1e154 here; the criterion is then
    # NaN or inf at every rank, and no rank can be chosen from it
    sample, basis, y, _ = make_regression(n=40, num_points=21, seed=12)
    y = y - y.mean()
    rank, criterion = select_rank_sicc(1e150 * y, basis, max_rank=8)
    assert 1 <= rank <= 8 and np.all(np.isfinite(criterion))
    for scale in (1e154, 1e160):
        with pytest.raises(ValueError, match="SICc is not finite"):
            select_rank_sicc(scale * y, basis, max_rank=8)


def integer_calls(value):
    """{name: call} of the public functions that take an integer argument
    other than a test's settings, each called with `value` for it."""
    sample, basis, y, _ = make_regression(n=12, num_points=41, seed=11)
    spec, rng = scenario(1, sample.grid), np.random.default_rng(0)
    return {
        "gen_process": lambda: gen_process("bm", value, sample.grid, rng),
        "gen_response": lambda: gen_response(spec, sample, value, rng),
        "select_rank_sicc": lambda: select_rank_sicc(y, basis, max_rank=value),
        "estimate_rho": lambda: estimate_rho(y, basis, value),
        "deviation": lambda: deviation(value, sample.data[0], sample.grid),
        "uniform_grid": lambda: uniform_grid(value),
    }


@pytest.mark.parametrize("name", list(integer_calls(1)))
def test_integer_arguments_refuse_floats_and_bools(name):
    # 2 is valid for each, and np.int64 counts as an integer
    integer_calls(np.int64(2))[name]()
    for value in (2.0, True, np.float64(1.0)):
        with pytest.raises(ValueError, match="integer|must be"):
            integer_calls(value)[name]()
