import math

import numpy as np
import pytest

from oracles import (
    GaussianFlmSpec,
    indicator_score_moments,
    k1_covariance,
    normal_cdf,
    normal_pdf,
    tnx_limit,
    tnx_sequence,
    tnx_truncation_bound,
)


def philox(seed):
    return np.random.Generator(np.random.Philox(seed))


def spec_uncorrelated():
    # h rho lambda sums to 0.5 - 0.5 + 0 = 0: Y and X^h are independent
    return GaussianFlmSpec(
        eigenvalues=np.array([1.0, 0.5, 0.25]),
        rho_coef=np.array([1.0, 1.0, 0.0]),
        h_coef=np.array([0.5, -1.0, 1.0]),
        sigma2_eps=0.3,
    )


def spec_aligned():
    return GaussianFlmSpec(
        eigenvalues=np.array([1.0, 0.25, 1.0 / 9.0, 1.0 / 16.0]),
        rho_coef=np.array([1.0, -4.0, 2.0, 0.5]),
        h_coef=np.array([2.0, -8.0, 4.0, 1.0]),
        sigma2_eps=0.5,
    )


def test_normal_cdf_and_pdf():
    assert normal_cdf(0.0) == 0.5
    assert normal_cdf(1.959963984540054) == pytest.approx(0.975, abs=1e-9)
    assert normal_cdf(-8.0) < 1e-14
    assert normal_cdf(8.0) > 1.0 - 1e-14
    assert normal_pdf(0.0) == pytest.approx(1.0 / math.sqrt(2 * math.pi), abs=1e-16)
    for x in (-2.0, -0.3, 0.0, 1.7):
        assert normal_cdf(-x) == pytest.approx(1.0 - normal_cdf(x), abs=1e-15)
        step = 1e-6
        slope = (normal_cdf(x + step) - normal_cdf(x - step)) / (2 * step)
        assert slope == pytest.approx(normal_pdf(x), abs=1e-9)


def test_spec_moments():
    spec = spec_uncorrelated()
    assert spec.terms == 3
    assert spec.projection_variance == pytest.approx(
        0.25 * 1.0 + 1.0 * 0.5 + 1.0 * 0.25, abs=1e-15
    )
    assert spec.signal_variance == pytest.approx(1.5, abs=1e-15)
    assert spec.cross_covariance == pytest.approx(0.0, abs=1e-15)
    aligned = spec_aligned()
    # h = 2 rho gives perfect correlation between signal and projection
    corr = aligned.cross_covariance / math.sqrt(
        aligned.signal_variance * aligned.projection_variance
    )
    assert corr == pytest.approx(1.0, abs=1e-12)


def test_spec_validation():
    lam = np.array([1.0, 0.5])
    ones = np.ones(2)
    with pytest.raises(ValueError):
        GaussianFlmSpec(np.array([]), np.array([]), np.array([]), 1.0)
    with pytest.raises(ValueError):
        GaussianFlmSpec(np.array([1.0, -0.5]), ones, ones, 1.0)
    with pytest.raises(ValueError):
        GaussianFlmSpec(np.array([0.5, 1.0]), ones, ones, 1.0)
    with pytest.raises(ValueError):
        GaussianFlmSpec(lam, np.ones(3), ones, 1.0)
    with pytest.raises(ValueError):
        GaussianFlmSpec(lam, ones, np.ones(3), 1.0)
    with pytest.raises(ValueError):
        GaussianFlmSpec(lam, ones, ones, -0.1)
    with pytest.raises(ValueError):
        GaussianFlmSpec(lam, ones, np.zeros(2), 1.0)


def test_k1_structure():
    spec = spec_uncorrelated()
    sd = math.sqrt(spec.projection_variance)
    for s, t in ((-0.4, 0.9), (0.3, 0.3), (1.2, -2.0)):
        value = k1_covariance(spec, s, t)
        assert value == pytest.approx(k1_covariance(spec, t, s), abs=1e-15)
        # the bracket is the total variance of Y minus the explained part
        bracket = (
            spec.signal_variance
            + spec.sigma2_eps
            - spec.cross_covariance**2 / spec.projection_variance
        )
        assert value == pytest.approx(
            bracket * normal_cdf(min(s, t) / sd), abs=1e-15
        )
    # monotone in min(s, t)
    grids = [k1_covariance(spec, s, 10.0) for s in (-1.0, 0.0, 1.0, 2.0)]
    assert all(a < b for a, b in zip(grids, grids[1:]))


def test_k1_collapses_when_direction_matches_slope():
    spec = spec_aligned()
    sd = math.sqrt(spec.projection_variance)
    for s, t in ((-0.7, 0.2), (0.5, 1.5)):
        expected = spec.sigma2_eps * normal_cdf(min(s, t) / sd)
        assert k1_covariance(spec, s, t) == pytest.approx(expected, abs=1e-12)


def test_indicator_score_moments_against_monte_carlo():
    spec = spec_uncorrelated()
    rng = philox(101)
    n = 200_000
    xi = rng.standard_normal((n, spec.terms))
    projected = xi @ (spec.h_coef * np.sqrt(spec.eigenvalues))
    for x in (-0.8, 0.0, 1.1):
        truth = indicator_score_moments(spec, x)
        indicator = (projected <= x)[:, None]
        draws = indicator * xi
        emp = draws.mean(axis=0)
        se = draws.std(axis=0, ddof=1) / math.sqrt(n)
        assert np.all(np.abs(emp - truth) <= 4.0 * se)


def test_tnx_sequence_properties():
    spec = spec_aligned()
    for x in (-1.0, 0.0, 1.0):
        limit = tnx_limit(spec, x)
        values = [tnx_sequence(spec, x, kn) for kn in range(1, spec.terms + 2)]
        # non-decreasing and capped by the full-spectrum limit
        assert all(a <= b + 1e-15 for a, b in zip(values, values[1:]))
        assert values[spec.terms - 1] == pytest.approx(limit, abs=1e-15)
        assert values[spec.terms] == pytest.approx(limit, abs=1e-15)
        for kn in range(1, spec.terms + 1):
            gap = abs(tnx_sequence(spec, x, kn) - limit)
            assert gap <= tnx_truncation_bound(spec, x, kn) + 1e-15
            assert tnx_sequence(spec, x, kn) <= math.sqrt(kn)
    with pytest.raises(ValueError):
        tnx_sequence(spec, 0.0, 0)
    with pytest.raises(ValueError):
        tnx_truncation_bound(spec, 0.0, 0)


def test_truncation_bound_shrinks_with_kn():
    spec = spec_aligned()
    bounds = [tnx_truncation_bound(spec, 0.5, kn) for kn in range(1, spec.terms + 1)]
    assert all(a >= b for a, b in zip(bounds, bounds[1:]))
    assert bounds[-1] == 0.0


def test_projected_process_covariance_light_panel():
    # drawing the model and scoring marks Y against the projected indicator:
    # with zero cross covariance the limit covariance holds at finite n
    spec = spec_uncorrelated()
    rng = philox(313)
    reps, n = 1500, 100
    points = np.array([-0.5, 0.0, 0.75])
    scale = spec.h_coef * np.sqrt(spec.eigenvalues)
    signal_scale = spec.rho_coef * np.sqrt(spec.eigenvalues)
    values = np.empty((reps, points.size))
    for rep in range(reps):
        xi = rng.standard_normal((n, spec.terms))
        projected = xi @ scale
        y = xi @ signal_scale + math.sqrt(spec.sigma2_eps) * rng.standard_normal(n)
        indicator = projected[:, None] <= points[None, :]
        values[rep] = (indicator * y[:, None]).sum(axis=0) / math.sqrt(n)
    for a in range(points.size):
        for b in range(a, points.size):
            products = values[:, a] * values[:, b]
            truth = k1_covariance(spec, points[a], points[b])
            se = products.std(ddof=1) / math.sqrt(reps)
            assert abs(products.mean() - truth) <= 4.0 * se
