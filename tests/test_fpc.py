import numpy as np
import pytest

from conftest import centered_bm_sample, inner_product, reconstruct
from flmgof import FunctionalSample, center, compute_fpc, gen_process, uniform_grid
from flmgof import forking, fpc, rptest


def philox(seed):
    return np.random.Generator(np.random.Philox(seed))


def bm_analytic_eigenvalues(count):
    j = np.arange(1, count + 1)
    return 1.0 / ((j - 0.5) ** 2 * np.pi**2)


def discretized_kernel_eigenvalues(grid, kernel, count):
    """Eigenvalues of the integral operator with the given covariance kernel."""
    sqrt_w = np.sqrt(grid.weights)
    mat = kernel(grid.points[:, None], grid.points[None, :])
    sym = sqrt_w[:, None] * mat * sqrt_w[None, :]
    vals = np.linalg.eigvalsh(sym)[::-1]
    return vals[:count]


def test_discretized_bm_kernel_matches_analytic_spectrum():
    grid = uniform_grid(201)
    vals = discretized_kernel_eigenvalues(grid, np.minimum, 3)
    assert np.allclose(vals, bm_analytic_eigenvalues(3), rtol=5e-3)


def test_bm_sample_spectrum():
    sample = centered_bm_sample(2000, seed=1)
    basis = compute_fpc(sample)
    truth = bm_analytic_eigenvalues(3)
    assert np.all(np.abs(basis.eigenvalues[:3] - truth) <= 0.10 * truth)


def test_orthonormal_scores_and_trace():
    sample = centered_bm_sample(300, num_points=101, seed=2)
    basis = compute_fpc(sample)
    grid = sample.grid
    gram = (basis.eigenfunctions * grid.weights) @ basis.eigenfunctions.T
    assert np.max(np.abs(gram - np.eye(basis.m))) < 1e-8
    assert np.max(np.abs(basis.scores.mean(axis=0))) < 1e-8
    score_var = basis.scores.var(axis=0, ddof=0)
    assert np.max(np.abs(score_var - basis.eigenvalues)) < 1e-10 * basis.eigenvalues[0]
    trace = basis.eigenvalues.sum()
    energy = np.mean(np.sum(sample.data**2 * grid.weights, axis=1))
    assert abs(trace - energy) < 1e-8 * energy
    assert np.all(np.diff(basis.eigenvalues) <= 1e-15)


def test_two_curve_sample_single_component():
    grid = uniform_grid(51)
    f = np.sin(2.0 * np.pi * grid.points) + 0.3
    sample = FunctionalSample(grid=grid, data=np.vstack([f, -f]))
    basis = compute_fpc(sample)
    assert basis.m == 1
    assert np.isclose(basis.eigenvalues[0], inner_product(f, f, grid))
    unit = f / np.sqrt(inner_product(f, f, grid))
    aligned = basis.eigenfunctions[0]
    assert np.allclose(np.abs(aligned), np.abs(unit), atol=1e-10)
    # sign convention: the largest-magnitude coordinate is positive
    assert aligned[np.argmax(np.abs(aligned))] > 0


def test_sign_convention_every_component():
    sample = centered_bm_sample(40, num_points=61, seed=3)
    basis = compute_fpc(sample)
    peaks = basis.eigenfunctions[
        np.arange(basis.m), np.argmax(np.abs(basis.eigenfunctions), axis=1)
    ]
    assert np.all(peaks > 0)


def test_full_rank_reconstruction():
    sample = centered_bm_sample(25, num_points=101, seed=4)
    basis = compute_fpc(sample)
    rebuilt = reconstruct(basis, basis.m)
    scale = np.max(np.abs(sample.data))
    assert np.max(np.abs(rebuilt.data - sample.data)) < 1e-6 * scale


def test_parseval_residual_energy():
    sample = centered_bm_sample(60, num_points=81, seed=5)
    basis = compute_fpc(sample)
    grid = sample.grid
    for rank in (1, 3, 7):
        rebuilt = reconstruct(basis, rank)
        residual = sample.data - rebuilt.data
        energy = np.mean(np.sum(residual**2 * grid.weights, axis=1))
        tail = basis.eigenvalues[rank:].sum()
        assert abs(energy - tail) < 1e-8 * max(tail, 1e-12)


def test_scale_equivariance():
    sample = centered_bm_sample(30, num_points=51, seed=6)
    basis = compute_fpc(sample)
    scaled = FunctionalSample(grid=sample.grid, data=2.5 * sample.data)
    basis2 = compute_fpc(scaled)
    assert np.allclose(basis2.eigenvalues, 2.5**2 * basis.eigenvalues, rtol=1e-10)
    assert np.allclose(basis2.eigenfunctions, basis.eigenfunctions, atol=1e-8)


def test_wide_and_tall_samples_share_invariants():
    # n > G exercises the kernel path, n < G the Gram path
    for n, num_points, seed in ((120, 41, 7), (20, 101, 8)):
        sample = centered_bm_sample(n, num_points=num_points, seed=seed)
        basis = compute_fpc(sample)
        assert basis.m <= min(n - 1, num_points)
        gram = (basis.eigenfunctions * sample.grid.weights) @ basis.eigenfunctions.T
        assert np.max(np.abs(gram - np.eye(basis.m))) < 1e-8
        score_var = basis.scores.var(axis=0, ddof=0)
        assert np.allclose(score_var, basis.eigenvalues, rtol=1e-8)


def test_compute_fpc_errors():
    grid = uniform_grid(21)
    with pytest.raises(ValueError):
        compute_fpc(FunctionalSample(grid=grid, data=np.zeros((4, 21))))
    with pytest.raises(ValueError):
        compute_fpc(FunctionalSample(grid=grid, data=np.ones((1, 21))))


def test_compute_fpc_centers_the_sample():
    # an uncentered sample gives, bit for bit, the basis of its centered copy
    # as the test core computes it, on both the Gram and the kernel path. The
    # test core's decomposition returns the basis of every component, with
    # scores on the Gram path only, A = X * sqrt(w), read-only in the centered
    # sample's buffer, and the unit eigenvectors U = sqrt(w) E^T; `_leading`
    # keeps the k leading components. The caller's sample stays as it was.
    for n, num_points, seed in ((30, 41, 12), (60, 21, 13)):
        raw = gen_process("bm", n, uniform_grid(num_points), philox(seed))
        bits = raw.data.tobytes()
        basis = compute_fpc(raw)
        centered = center(raw)
        sqrt_w = np.sqrt(centered.grid.weights)
        product = centered.data * sqrt_w
        full, root_weighted, unit = rptest.compute_fpc(centered)
        assert root_weighted is centered.data and not root_weighted.flags.writeable
        assert np.array_equal(root_weighted, product)
        assert np.array_equal(unit / sqrt_w[:, None], basis.eigenfunctions.T)
        assert full.n == n
        if n <= num_points:
            assert np.array_equal(full.scores, basis.scores)
        else:
            assert full.scores.shape == (n, 0)
        trimmed = fpc._leading(full, root_weighted, unit, 3)
        assert trimmed.m == 3 and trimmed.scores.shape == (n, 3)
        for name in ("eigenvalues", "eigenfunctions"):
            assert np.array_equal(getattr(full, name), getattr(basis, name))
            assert np.array_equal(getattr(trimmed, name), getattr(basis, name)[:3])
        if n <= num_points:
            assert np.array_equal(trimmed.scores, basis.scores[:, :3])
        else:
            # row j of a (k, n) array holds score column j
            assert trimmed.scores.T.flags.c_contiguous
            for j in range(3):
                assert np.array_equal(trimmed.scores[:, j], product @ unit[:, j])
        assert raw.data.tobytes() == bits


def one_product_scores(raw, m):
    """The kernel-path scores of `raw` as one product over all rows: (A u_j)
    times the sign that makes e_j's largest-magnitude value positive."""
    sqrt_w = np.sqrt(raw.grid.weights)
    root_weighted = center(raw).data * sqrt_w
    vals, vecs = np.linalg.eigh((root_weighted.T @ root_weighted) / raw.n)
    vecs = vecs[:, np.argsort(vals)[::-1][:m]]
    unit = vecs / sqrt_w[:, None]
    flip = np.sign(unit[np.argmax(np.abs(unit), axis=0), np.arange(m)])
    return (root_weighted @ vecs) * flip


def leading_columns(raw, k):
    """The basis a test keeps of `raw` when its fits read k score columns."""
    return fpc._leading(*rptest.compute_fpc(center(raw)), k)


@pytest.mark.parametrize(
    "threads, kind",
    [(1, "bm"), (2, "bm"), (1, "hhn1"), (2, "hhn1"), (1, "ou"), (2, "ou")],
)
def test_kernel_path_scores_are_one_product(threads, kind):
    # on the kernel path the public scores are one product A U, on one BLAS
    # thread and on two. A test keeps k leading columns, each one product
    # A u_j, so a column has the same bits whatever k is, and it matches the
    # public column to rounding, which scales with the curves' norms |A_i|,
    # not with the column's own spread
    before = forking._set_blas_threads(threads)
    try:
        for num_points in (21, 51, 201):
            grid = uniform_grid(num_points)
            for n in (num_points + 1, 3 * num_points + 5, 8192):
                raw = gen_process(kind, n, grid, philox(n + num_points))
                basis = compute_fpc(raw)
                assert np.array_equal(basis.scores, one_product_scores(raw, basis.m))
                every, first = leading_columns(raw, basis.m), leading_columns(raw, 1)
                assert np.array_equal(first.scores, every.scores[:, :1])
                error = np.max(np.abs(every.scores - basis.scores))
                assert error <= 1e-14 * np.max(np.abs(basis.scores))
    finally:
        forking._set_blas_threads(before)


@pytest.mark.parametrize("kind", ["ou", "bm"])
@pytest.mark.parametrize("n, num_points", [(200, 201), (150, 51)])
def test_score_gram_matrix_is_n_diag_lambda(kind, n, num_points):
    # S^T S = n diag(lambda). On the Gram path (n <= G) the scores are the
    # closed form sqrt(n lambda_j) v_j, and the identity holds to rounding
    # relative to sqrt(lambda_i lambda_j) for every pair of components. On
    # the kernel path the scores A u_j carry the residual of the G x G
    # eigendecomposition, a few eps * lambda_1, which is up to 2e-12 of
    # sqrt(lambda_i lambda_j) for the smallest components here
    sample = gen_process(kind, n, uniform_grid(num_points), philox(n + num_points))
    basis = compute_fpc(sample)
    lam = basis.eigenvalues
    error = np.abs(basis.scores.T @ basis.scores / n - np.diag(lam))
    scale = np.sqrt(np.outer(lam, lam)) if n <= num_points else lam[0]
    assert np.max(error / scale) <= 1e-13


def test_determinism():
    sample = centered_bm_sample(30, num_points=31, seed=11)
    one = compute_fpc(sample)
    two = compute_fpc(sample)
    assert np.array_equal(one.eigenvalues, two.eigenvalues)
    assert np.array_equal(one.eigenfunctions, two.eigenfunctions)
    assert np.array_equal(one.scores, two.scores)
