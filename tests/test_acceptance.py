"""Thirteen end-to-end acceptance checks with pinned tolerances.

Each test prints one [PASS]/[FAIL] line with the measured quantities, then
asserts. Monte Carlo cells use the package default seed 0; auxiliary oracle
seeds are fixed constants. Budgets are wall-clock upper bounds, generous on
purpose: the statistical bands are the real gate.
"""

import json
import math
import statistics
import time

import numpy as np
import pytest

from conftest import brute_process_norms, centered_bm_sample, inner_product
from flmgof import (
    compute_fpc,
    estimate_rho,
    golden_multipliers,
    run_study,
)
from oracles import (
    GaussianFlmSpec,
    fdr_null_rejection_rate,
    k1_covariance,
    process_statistic,
    tnx_limit,
    tnx_sequence,
    tnx_truncation_bound,
)
from flmgof.cli import bench_composite_test, main


def philox(seed):
    return np.random.Generator(np.random.Philox(seed))


def verdict(number, ok, detail):
    print(f"[{'PASS' if ok else 'FAIL'}] criterion {number:02d}: {detail}")
    assert ok, f"criterion {number:02d}: {detail}"


@pytest.fixture(scope="module")
def s1_null_study():
    started = time.perf_counter()
    result = run_study([1], [0], [50], M=500, K=5, B=500, kind="cvm", seed=0)[0]
    return result, time.perf_counter() - started


@pytest.fixture(scope="module")
def s7_power_cvm():
    started = time.perf_counter()
    result = run_study([7], [1], [50], M=200, K=5, B=500, kind="cvm", seed=0)[0]
    return result, time.perf_counter() - started


@pytest.fixture(scope="module")
def s7_power_ks():
    result = run_study([7], [1], [50], M=200, K=5, B=500, kind="ks", seed=0)[0]
    return result


def test_criterion_01_fpc_spectral_oracle():
    started = time.perf_counter()
    sample = centered_bm_sample(2000, num_points=201, seed=1)
    basis = compute_fpc(sample)
    truth = 1.0 / ((np.arange(1, 4) - 0.5) ** 2 * np.pi**2)
    worst_rel = float(np.max(np.abs(basis.eigenvalues[:3] / truth - 1.0)))
    energy = float(
        np.mean(np.sum(sample.data**2 * sample.grid.weights, axis=1))
    )
    trace_rel = abs(basis.eigenvalues.sum() - energy) / energy
    elapsed = time.perf_counter() - started
    ok = worst_rel <= 0.10 and trace_rel <= 1e-8 and elapsed < 10.0
    verdict(
        1,
        ok,
        f"eigenvalue error {worst_rel:.3f} (<=0.10), trace error {trace_rel:.2e} "
        f"(<=1e-08), {elapsed:.1f}s (<10s)",
    )


def test_criterion_02_noiseless_recovery():
    started = time.perf_counter()
    sample = centered_bm_sample(100, num_points=101, seed=2)
    basis = compute_fpc(sample)
    rho = 2.0 * basis.eigenfunctions[0] + 3.0 * basis.eigenfunctions[1]
    y = np.array([inner_product(row, rho, sample.grid) for row in sample.data])
    fit = estimate_rho(y, basis, 2)
    coef_err = float(np.max(np.abs(fit.coef - [2.0, 3.0])))
    resid_err = float(np.max(np.abs(fit.residuals)))
    elapsed = time.perf_counter() - started
    ok = coef_err <= 1e-8 and resid_err <= 1e-8 and elapsed < 1.0
    verdict(
        2,
        ok,
        f"coef error {coef_err:.2e}, residual error {resid_err:.2e} (<=1e-08), "
        f"{elapsed:.2f}s (<1s)",
    )


def test_criterion_03_statistic_bruteforce_oracle():
    started = time.perf_counter()
    rng = philox(3)
    worst = 0.0
    for _ in range(1000):
        n = int(rng.integers(1, 9))
        projections = rng.integers(-3, 4, n).astype(float)
        marks = rng.standard_normal(n)
        fast_ks, fast_cvm = process_statistic(projections, marks)
        ks, cvm = brute_process_norms(projections, marks)
        worst = max(worst, abs(fast_ks - ks), abs(fast_cvm - cvm))
    elapsed = time.perf_counter() - started
    ok = worst <= 1e-12 and elapsed < 5.0
    verdict(
        3,
        ok,
        f"max |fast - brute| {worst:.2e} over 1000 tied instances (<=1e-12), "
        f"{elapsed:.1f}s (<5s)",
    )


def test_criterion_04_multiplier_moments():
    draws = golden_multipliers(philox(4), 1_000_000)
    n = draws.size
    m1 = float(draws.mean())
    m2 = float(np.mean(draws**2))
    m3 = float(np.mean(draws**3))
    # moment sds: sd(V)=1, sd(V^2)=1, sd(V^3)=2
    ok = (
        abs(m1) <= 4.0 / math.sqrt(n)
        and abs(m2 - 1.0) <= 4.0 / math.sqrt(n)
        and abs(m3 - 1.0) <= 8.0 / math.sqrt(n)
    )
    verdict(
        4,
        ok,
        f"moments ({m1:+.4f}, {m2:.4f}, {m3:.4f}) vs (0, 1, 1) within 4 SE "
        f"over 1e6 draws",
    )


def test_criterion_05_null_size(s1_null_study):
    result, elapsed = s1_null_study
    rate = result.rejection_rates[1]
    ok = 0.021 <= rate <= 0.071 and elapsed < 900.0
    verdict(
        5,
        ok,
        f"S1 d=0 n=50 M=500 rejection at 0.05 is {rate:.3f} "
        f"(band [0.021, 0.071]), {elapsed:.0f}s (<900s)",
    )


def test_criterion_06_power(s7_power_cvm):
    result, elapsed = s7_power_cvm
    power = result.rejection_rates[1]
    ok = power >= 0.90 and elapsed < 600.0
    verdict(
        6,
        ok,
        f"S7 d=1 n=50 M=200 CvM power at 0.05 is {power:.3f} (>=0.90), "
        f"{elapsed:.0f}s (<600s)",
    )


def test_criterion_07_cvm_dominates_ks(s7_power_cvm, s7_power_ks):
    cvm_power = s7_power_cvm[0].rejection_rates[1]
    ks_power = s7_power_ks.rejection_rates[1]
    ok = cvm_power >= ks_power - 0.03
    verdict(
        7,
        ok,
        f"CvM power {cvm_power:.3f} vs KS power {ks_power:.3f} "
        f"(CvM >= KS - 0.03)",
    )


def test_criterion_08_rank_selection(s1_null_study):
    mean_rank = s1_null_study[0].mean_rank
    ok = 3.0 <= mean_rank <= 3.8
    verdict(8, ok, f"mean selected rank {mean_rank:.2f} (band [3.0, 3.8])")


def _panel_worst_zscore(spec, reps, n, seed, response_marks):
    sd = math.sqrt(spec.projection_variance)
    points = sd * np.array([-0.6745, 0.0, 0.6745])
    rng = philox(seed)
    scale_h = spec.h_coef * np.sqrt(spec.eigenvalues)
    scale_rho = spec.rho_coef * np.sqrt(spec.eigenvalues)
    values = np.empty((reps, points.size))
    done = 0
    while done < reps:
        take = min(500, reps - done)
        xi = rng.standard_normal((take, n, spec.terms))
        noise = rng.standard_normal((take, n))
        signal = xi @ scale_rho
        y = signal + math.sqrt(spec.sigma2_eps) * noise
        marks = y if response_marks else y - signal
        indicator = (xi @ scale_h)[..., None] <= points
        values[done : done + take] = (indicator * marks[..., None]).sum(
            axis=1
        ) / math.sqrt(n)
        done += take
    worst = 0.0
    for a in range(points.size):
        for b in range(points.size):
            products = values[:, a] * values[:, b]
            truth = k1_covariance(spec, points[a], points[b])
            se = products.std(ddof=1) / math.sqrt(reps)
            worst = max(worst, abs(products.mean() - truth) / se)
    return worst


def test_criterion_09_limit_covariance_panels():
    started = time.perf_counter()
    lam = np.array([1.0, 0.25, 1.0 / 9.0, 1.0 / 16.0])
    rho = np.array([1.0, -4.0, 2.0, 0.0])
    # independent projection: h rho lambda sums to zero, marks are responses
    uncorrelated = GaussianFlmSpec(lam, rho, np.array([1.0, 1.0, 0.0, 1.0]), 0.5)
    worst_a = _panel_worst_zscore(uncorrelated, 5000, 200, 901, True)
    # aligned projection h = rho: bracket collapses, marks are the true errors
    aligned = GaussianFlmSpec(lam, rho, rho, 0.5)
    worst_b = _panel_worst_zscore(aligned, 5000, 200, 902, False)
    elapsed = time.perf_counter() - started
    ok = worst_a <= 3.0 and worst_b <= 3.0 and elapsed < 300.0
    verdict(
        9,
        ok,
        f"3x3 covariance panels worst |z| = {worst_a:.2f} and {worst_b:.2f} "
        f"(<=3), 5000 reps n=200, {elapsed:.0f}s (<300s)",
    )


def test_criterion_10_truncated_norm_limit():
    j = np.arange(1, 51)
    spec = GaussianFlmSpec(
        eigenvalues=j**-2.0,
        rho_coef=(-1.0) ** j / j,
        h_coef=1.0 / j,
        sigma2_eps=1.0,
    )
    worst_gap = 0.0
    bound_ok = True
    root_ok = True
    for x in (-1.0, 0.0, 1.0):
        limit = tnx_limit(spec, x)
        full = tnx_sequence(spec, x, 50)
        worst_gap = max(
            worst_gap, abs(full - limit) - tnx_truncation_bound(spec, x, 50)
        )
        for kn in (1, 5, 10, 25, 50):
            value = tnx_sequence(spec, x, kn)
            bound_ok &= abs(value - limit) <= tnx_truncation_bound(spec, x, kn) + 1e-15
            root_ok &= value <= math.sqrt(kn)
    ok = worst_gap <= 1e-12 and bound_ok and root_ok
    verdict(
        10,
        ok,
        f"kn=J=50 norm matches the density limit (gap beyond bound "
        f"{worst_gap:.1e}), truncation bounds and sqrt(kn) cap hold",
    )


def test_criterion_11_fdr_floor():
    # exact null rates; the bands are those set for 2000-draw estimates
    rate_wide = fdr_null_rejection_rate(25, 500, 0.01)
    floor_threshold = 0.0487 - 3.0 * math.sqrt(0.0487 * 0.9513 / 2000)

    # at the smallest positive alpha only a combined p-value of 0 rejects
    zero_rate = fdr_null_rejection_rate(5, 1000, np.nextafter(0.0, 1.0))
    rate_narrow = fdr_null_rejection_rate(5, 1000, 0.05)
    floor = 1.0 - (1000.0 / 1001.0) ** 5
    zero_band = 3.0 * math.sqrt(floor * (1.0 - floor) / 2000)
    ok = (
        rate_wide >= floor_threshold
        and abs(zero_rate - floor) <= zero_band
        and 0.03 <= rate_narrow <= 0.07
    )
    verdict(
        11,
        ok,
        f"K=25 B=500 rate at 0.01 is {rate_wide:.4f} (>= {floor_threshold:.4f}); "
        f"K=5 B=1000 zero rate {zero_rate:.4f} vs floor {floor:.4f} "
        f"(+-{zero_band:.4f}), rate at 0.05 is {rate_narrow:.4f} in [0.03, 0.07]",
    )


def test_criterion_12_near_linear_scaling():
    # the sizes alternate round by round, so a drift in host speed reaches
    # both medians alike
    seconds = {1024: [], 2048: []}
    for round_ in range(5):
        for n, times in seconds.items():
            (row,) = bench_composite_test([n], 1, K=5, B=1000, kind="cvm", seed=round_)
            times.append(row[1])
    ratio = statistics.median(seconds[2048]) / statistics.median(seconds[1024])
    ok = ratio <= 3.0
    verdict(
        12,
        ok,
        f"wall time ratio n=2048 / n=1024 at K=5 B=1000 is {ratio:.2f} (<=3)",
    )


def test_criterion_13_thread_count_invariance(capsys):
    args = [
        "simulate", "--scenario", "S1", "--d", "0", "--n", "50", "--M", "500",
        "--projections", "5", "--bootstrap", "500", "--stat", "cvm", "--seed", "0",
    ]
    code_serial = main(args + ["--threads", "1"])
    out_serial = capsys.readouterr().out
    code_parallel = main(args + ["--threads", "2"])
    out_parallel = capsys.readouterr().out
    ok = (
        code_serial == 0
        and code_parallel == 0
        and out_serial == out_parallel
        and json.loads(out_serial)[0]["M"] == 500
    )
    with capsys.disabled():
        verdict(
            13,
            ok,
            f"--threads 1 vs 2 stdout identical: {out_serial == out_parallel} "
            f"({len(out_serial)} bytes)",
        )
