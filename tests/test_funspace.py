import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import curve_norm, inner_product
from flmgof import (
    FpcBasis,
    FunctionalSample,
    Grid,
    center,
    gen_process,
    make_grid,
    uniform_grid,
)
from flmgof import test_flm as flm_gof
from flmgof import test_simple as simple_gof
from flmgof.funspace import _adopt


def test_trapezoid_weights_three_points():
    grid = make_grid([0.0, 0.5, 1.0])
    assert np.allclose(grid.weights, [0.25, 0.5, 0.25])
    assert np.isclose(grid.weights.sum(), 1.0)


def test_uniform_grid_weights():
    grid = uniform_grid(201)
    assert grid.size == 201
    assert np.isclose(grid.weights[0], 0.0025)
    assert np.isclose(grid.weights[-1], 0.0025)
    assert np.allclose(grid.weights[1:-1], 0.005)
    assert np.isclose(grid.weights.sum(), grid.points[-1] - grid.points[0])


def test_weights_sum_to_span_nonuniform():
    pts = np.sort(np.random.default_rng(3).uniform(0.0, 1.0, 17))
    pts[0], pts[-1] = 0.02, 0.97
    grid = make_grid(pts)
    assert np.isclose(grid.weights.sum(), pts[-1] - pts[0])


def test_inner_product_identity_curve():
    grid = uniform_grid(201)
    t = grid.points
    assert abs(inner_product(t, t, grid) - 1.0 / 3.0) < 1e-4


def test_inner_product_orthogonal_sines():
    grid = uniform_grid(201)
    t = grid.points
    psi1 = np.sqrt(2.0) * np.sin(0.5 * np.pi * t)
    psi2 = np.sqrt(2.0) * np.sin(1.5 * np.pi * t)
    assert abs(inner_product(psi1, psi2, grid)) < 1e-3
    assert abs(inner_product(psi1, psi1, grid) - 1.0) < 1e-3


def test_quadrature_error_decays_quadratically():
    errors = []
    for num_points in (11, 101, 1001):
        grid = uniform_grid(num_points)
        t = grid.points
        errors.append(abs(inner_product(t, t, grid) - 1.0 / 3.0))
    # halving h divides the error by ~4; a decade divides it by ~100
    assert errors[1] < errors[0] * 2e-2
    assert errors[2] < errors[1] * 2e-2


def test_grid_validation():
    with pytest.raises(ValueError):
        make_grid([0.0, 0.5, 0.5])
    with pytest.raises(ValueError):
        make_grid([0.3])


@pytest.mark.parametrize("tied", [False, True])
def test_reports_do_not_depend_on_where_the_grid_lies(tied):
    # Moving the grid by t -> a + c t, with the weights times c, scales every
    # inner product by c: the eigenvalues scale by c and the scores and the
    # projections by sqrt(c), so the residuals, the order of the projections
    # and the rank stay, and a report moves by rounding only. Grids outside
    # [0, 1] are as good as any. Sampler iii is left out: its paths depend on
    # the spacing of the grid.
    rng = np.random.Generator(np.random.Philox(31))
    grid = uniform_grid(31)
    curves = gen_process("bm", 20 if tied else 40, grid, rng).data
    if tied:
        curves = np.vstack([curves, curves])
    m0 = curves @ (grid.weights * np.sin(2.0 * np.pi * grid.points))
    y = m0 + m0**2 + 0.5 * rng.standard_normal(len(curves))

    def reports(grid):
        sample = FunctionalSample(grid=grid, data=curves)
        return [
            test(sample, y, **extra, K=3, B=100, kind=kind, sampler=sampler, seed=0).to_dict()
            for test, extra in ((flm_gof, {}), (simple_gof, {"m0": m0}))
            for kind in ("ks", "cvm")
            for sampler in ("i", "ii")
        ]

    base = reports(grid)
    assert any(report["p_fdr"] < 1.0 for report in base)
    for c in (0.1, 0.5, 2.0, 3.0):
        for a in (0.0, -5.0, 7.25):
            moved = reports(Grid(points=a + c * grid.points, weights=c * grid.weights))
            for old, new in zip(base, moved):
                assert new["settings"] == old["settings"]
                assert new["p_fdr"] == old["p_fdr"]
                for row, moved_row in zip(old["per_projection"], new["per_projection"]):
                    assert moved_row["p"] == row["p"]
                    assert moved_row["statistic"] == pytest.approx(row["statistic"],
                                                                   rel=1e-13, abs=0.0)


def test_curve_validation():
    grid = uniform_grid(11)
    with pytest.raises(ValueError):
        inner_product(np.ones(10), np.ones(11), grid)
    with pytest.raises(ValueError):
        inner_product(np.full(11, np.nan), np.ones(11), grid)


def test_sample_validation():
    grid = uniform_grid(11)
    with pytest.raises(ValueError):
        FunctionalSample(grid=grid, data=np.ones((3, 10)))
    bad = np.ones((3, 11))
    bad[1, 4] = np.inf
    with pytest.raises(ValueError):
        FunctionalSample(grid=grid, data=bad)


def test_a_callers_arrays_are_copied_and_fresh_ones_adopted():
    grid = uniform_grid(5)
    data = np.arange(10.0).reshape(2, 5)
    sample = FunctionalSample(grid=grid, data=data)
    scores = np.ones((2, 1))
    basis = FpcBasis(grid=grid, eigenvalues=np.ones(1), eigenfunctions=np.ones((1, 5)),
                     scores=scores)
    for mine, held in ((data, sample.data), (scores, basis.scores)):
        assert not np.shares_memory(mine, held)
        assert mine.flags.writeable and not held.flags.writeable
        mine[0, 0] = -1.0
        assert held[0, 0] != -1.0

    # the library's own fresh arrays are frozen in place, after the same checks
    fresh = np.arange(10.0).reshape(2, 5)
    adopted = _adopt(FunctionalSample, grid=grid, data=fresh)
    assert adopted.data is fresh and not fresh.flags.writeable
    assert adopted.grid is grid and set(vars(adopted)) == {"grid", "data"}
    with pytest.raises(ValueError, match="non-finite"):
        _adopt(FunctionalSample, grid=grid, data=np.full((2, 5), np.nan))


def test_center_removes_column_means():
    grid = uniform_grid(21)
    rng = np.random.default_rng(5)
    sample = FunctionalSample(grid=grid, data=rng.normal(2.0, 1.0, (7, 21)))
    centered = center(sample)
    assert centered.grid is sample.grid
    assert np.max(np.abs(centered.data.mean(axis=0))) < 1e-12
    assert np.array_equal(centered.data, sample.data - sample.data.mean(axis=0))


def test_center_single_curve():
    grid = uniform_grid(21)
    data = np.sin(np.pi * grid.points)[None, :]
    sample = FunctionalSample(grid=grid, data=data)
    assert np.allclose(center(sample).data, 0.0)


@settings(max_examples=50, deadline=None)
@given(
    st.lists(st.floats(-50, 50), min_size=9, max_size=9),
    st.lists(st.floats(-50, 50), min_size=9, max_size=9),
    st.lists(st.floats(-50, 50), min_size=9, max_size=9),
    st.floats(-5, 5),
)
def test_inner_product_bilinear_and_cauchy_schwarz(f, g, h, a):
    grid = uniform_grid(9)
    f, g, h = np.array(f), np.array(g), np.array(h)
    left = inner_product(a * f + h, g, grid)
    right = a * inner_product(f, g, grid) + inner_product(h, g, grid)
    scale = 1.0 + abs(left) + abs(right)
    assert abs(left - right) < 1e-9 * scale
    cs = inner_product(f, g, grid) ** 2
    bound = inner_product(f, f, grid) * inner_product(g, g, grid)
    assert cs <= bound * (1.0 + 1e-9) + 1e-9


def test_norm_matches_inner_product():
    grid = uniform_grid(31)
    f = np.cos(3.0 * grid.points)
    assert np.isclose(curve_norm(f, grid) ** 2, inner_product(f, f, grid))
