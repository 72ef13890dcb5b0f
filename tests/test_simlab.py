import multiprocessing
import os
import signal
import time
from concurrent.futures import ProcessPoolExecutor

import numpy as np
import pytest

from conftest import gbm_mean
from flmgof import (
    FunctionalSample,
    deviation,
    gen_process,
    gen_response,
    make_grid,
    run_study,
    scenario,
    uniform_grid,
)
from flmgof.processes import (
    COSINE_TERMS,
    GBM_INITIAL,
    bb_kernel,
    bm_kernel,
    gbm_kernel,
    ornstein_uhlenbeck,
    ou_kernel,
)
from flmgof import forking, rptest, simlab
from flmgof.simlab import _deviation_rows


def philox(seed):
    return np.random.Generator(np.random.Philox(seed))


def covariance_zscores(data, kernel_matrix, n):
    emp = np.cov(data, rowvar=False, ddof=1)
    diag = np.diag(kernel_matrix)
    se = np.sqrt((np.outer(diag, diag) + kernel_matrix**2) / n)
    mask = se > 0
    # entries with zero population variance must be exactly zero
    assert np.max(np.abs(emp[~mask] - kernel_matrix[~mask]), initial=0.0) < 1e-12
    z = np.zeros_like(emp)
    z[mask] = (emp[mask] - kernel_matrix[mask]) / se[mask]
    return z


def truncated_cosine_kernel(points, decay):
    j = np.arange(1, COSINE_TERMS + 1)
    basis = np.sqrt(2.0) * np.cos(np.pi * np.outer(j, points))
    return (basis.T * j**-decay) @ basis


# ------------------------------------------------------------------ processes


@pytest.mark.parametrize(
    "kind,kernel",
    [
        ("bm", bm_kernel),
        ("bb", bb_kernel),
        ("ou", ou_kernel),
    ],
)
def test_gaussian_process_covariances(kind, kernel):
    grid = uniform_grid(21)
    n = 4000
    sample = gen_process(kind, n, grid, philox(hash(kind) % 2**32))
    truth = kernel(grid.points[:, None], grid.points[None, :])
    z = covariance_zscores(sample.data, truth, n)
    assert np.max(np.abs(z)) < 5.0
    assert np.max(np.abs(sample.data.mean(axis=0))) < 5.0 * np.sqrt(
        np.max(np.diag(truth)) / n
    )


@pytest.mark.parametrize("kind,decay", [("hhn1", 2.0), ("hhn2", 4.0)])
def test_cosine_expansion_covariances(kind, decay):
    grid = uniform_grid(21)
    n = 4000
    sample = gen_process(kind, n, grid, philox(11))
    truth = truncated_cosine_kernel(grid.points, decay)
    z = covariance_zscores(sample.data, truth, n)
    assert np.max(np.abs(z)) < 5.0


def test_gbm_mean_and_variance():
    grid = uniform_grid(11)
    n = 40000
    sample = gen_process("gbm", n, grid, philox(13))
    truth_mean = gbm_mean(grid.points)
    assert np.max(np.abs(sample.data.mean(axis=0) / truth_mean - 1.0)) < 0.02
    assert sample.data[0, 0] == GBM_INITIAL
    truth_var = gbm_kernel(grid.points, grid.points)
    emp_var = sample.data.var(axis=0, ddof=1)
    # heavy lognormal tails: compare only where the variance is nonzero
    ratio = emp_var[1:] / truth_var[1:]
    assert np.max(np.abs(ratio - 1.0)) < 0.2


def test_bm_marginals_are_gaussian():
    grid = uniform_grid(6)
    sample = gen_process("bm", 4000, grid, philox(17))
    endpoint = sample.data[:, -1]
    skew = np.mean(endpoint**3) / np.mean(endpoint**2) ** 1.5
    assert abs(skew) < 5.0 * np.sqrt(6.0 / 4000)


def test_gen_process_determinism_and_validation():
    grid = uniform_grid(21)
    a = gen_process("bm", 3, grid, philox(5))
    b = gen_process("bm", 3, grid, philox(5))
    assert np.array_equal(a.data, b.data)
    assert a.data.shape == (3, 21)
    with pytest.raises(ValueError):
        gen_process("weibull", 3, grid, philox(0))
    with pytest.raises(ValueError):
        gen_process("bm", 0, grid, philox(0))


def column_loop_ornstein_uhlenbeck(n, grid, rng, mean_reversion=1.0 / 3.0):
    """The recursion written over the (n, G) columns, one step per column."""
    stationary_var = 1.0 / (2.0 * mean_reversion)
    points = grid.points
    paths = np.empty((n, points.size))
    paths[:, 0] = rng.normal(0.0, np.sqrt(stationary_var), n)
    decay = np.exp(-mean_reversion * np.diff(points))
    innovation_sd = np.sqrt(stationary_var * (1.0 - decay**2))
    noise = rng.normal(0.0, 1.0, (n, points.size - 1))
    for k in range(points.size - 1):
        paths[:, k + 1] = decay[k] * paths[:, k] + innovation_sd[k] * noise[:, k]
    return paths


@pytest.mark.parametrize(
    "grid", [uniform_grid(201), make_grid(np.sort(philox(3).uniform(0.0, 1.0, 37)))]
)
def test_ornstein_uhlenbeck_matches_column_loop(grid):
    for n, alpha in ((1, 0.5), (7, 1.0 / 3.0), (50, 1.0 / 3.0)):
        paths = ornstein_uhlenbeck(n, grid, philox(n), mean_reversion=alpha)
        reference = column_loop_ornstein_uhlenbeck(n, grid, philox(n), alpha)
        assert paths.flags.c_contiguous
        assert np.array_equal(paths, reference)


# ----------------------------------------------------------------- deviations


def test_deviation_frozen_values():
    grid = uniform_grid(201)
    assert deviation(1, np.full(201, 2.0), grid) == pytest.approx(2.0, abs=1e-14)
    assert deviation(3, np.ones(201), grid) == pytest.approx(np.exp(-1.0), abs=1e-14)
    with pytest.raises(ValueError):
        deviation(4, np.ones(201), grid)
    with pytest.raises(ValueError):
        deviation(1, np.ones(200), grid)


def brute_double_integral(x, grid):
    total = 0.0
    for a in range(grid.size):
        for b in range(grid.size):
            s, t = grid.points[a], grid.points[b]
            total += (
                grid.weights[a]
                * grid.weights[b]
                * np.sin(2.0 * np.pi * t * s)
                * s
                * (1.0 - s)
                * t
                * (1.0 - t)
                * x[a]
                * x[b]
            )
    return 25.0 * total


def test_interaction_deviation_matches_double_loop():
    grid = uniform_grid(31)
    rng = philox(19)
    x = rng.standard_normal(31)
    fast = deviation(2, x, grid)
    slow = brute_double_integral(x, grid)
    assert fast == pytest.approx(slow, rel=1e-12, abs=1e-14)


def test_interaction_deviation_grid_refinement():
    curve = lambda t: np.sin(np.pi * t) + t
    values = {
        size: deviation(2, curve(uniform_grid(size).points), uniform_grid(size))
        for size in (101, 201, 401)
    }
    assert abs(values[201] - values[401]) < 1e-5
    # halving the step shrinks the error fourfold: second-order quadrature
    ratio = (values[101] - values[201]) / (values[201] - values[401])
    assert 3.0 < ratio < 5.0


def test_deviation_rows_agree_with_scalar_version():
    grid = uniform_grid(41)
    rng = philox(23)
    data = rng.standard_normal((6, 41))
    for kind in (1, 2, 3):
        rows = _deviation_rows(kind, data, grid)
        singles = [deviation(kind, row, grid) for row in data]
        assert np.allclose(rows, singles, rtol=1e-12, atol=1e-14)


def test_scenario_sine_kernel_is_built_once(monkeypatch):
    builds = []

    def counting(grid):
        builds.append(grid.size)
        return np.sin(2.0 * np.pi * np.outer(grid.points, grid.points))

    monkeypatch.setattr(simlab, "_sine_kernel", counting)
    spec = scenario(7, grid=uniform_grid(41))
    X = gen_process("ou", 6, spec.grid, philox(24))
    for d in (1, 2, 1):
        y = gen_response(spec, X, d, philox(25), sigma2=0.0)
        manual = X.data @ (spec.grid.weights * spec.rho) + spec.deviation_sign * (
            spec.deltas[d] * _deviation_rows(2, X.data, spec.grid)
        )
        assert np.array_equal(y, manual)
    # one build for the spec, one per uncached `_deviation_rows` reference call
    assert builds == [41] * 4


# ------------------------------------------------------------------ scenarios


def test_scenario_table():
    spec = scenario(1)
    assert spec.id == "S1"
    assert spec.process == "bm"
    assert spec.deviation_kind == 1
    assert spec.deviation_sign == 1
    assert spec.deltas == (0.0, 0.25, 0.75)
    assert spec.grid.size == 201
    # slope at t = 1/2: 2 sin(pi/4) + 4 sin(3 pi/4) + 5 sin(5 pi/4)
    mid = np.flatnonzero(np.isclose(spec.grid.points, 0.5))[0]
    assert spec.rho[mid] == pytest.approx(np.sqrt(0.5), abs=1e-12)

    for index in range(1, 10):
        spec = scenario(index)
        assert spec.index == index
        assert spec.deltas[0] == 0.0
        assert spec.deltas[0] < spec.deltas[1] < spec.deltas[2]
        assert spec.rho.shape == (201,)

    assert scenario(7).process == "ou"
    assert scenario(8).deviation_kind == 3
    assert scenario(9).process == "gbm"
    assert np.array_equal(scenario(4).rho, scenario(5).rho)
    grid = uniform_grid(201)
    assert scenario(6).rho[0] == pytest.approx(np.log(10.0) + 1.0, abs=1e-12)
    assert scenario(7).rho[0] == pytest.approx(-1.0, abs=1e-12)
    with pytest.raises(ValueError):
        scenario(0)
    with pytest.raises(ValueError):
        scenario(10)


def test_quadratic_slope_integrates_to_zero():
    spec = scenario(9)
    against_one = np.sum(spec.grid.weights * spec.rho)
    assert abs(against_one) < 1e-4


def test_slope_consistent_across_grids():
    fine = uniform_grid(401)
    for index in (1, 4, 9):
        coarse_rho = scenario(index).rho
        fine_rho = scenario(index, grid=fine).rho
        assert np.max(np.abs(fine_rho[::2] - coarse_rho)) < 1e-10


def test_signal_variance_of_first_scenario():
    # analytic value sum c_j^2 lambda_j = (4 l1 + 16 l2 + 25 l3) / 2
    lam = 1.0 / ((np.arange(1, 4) - 0.5) ** 2 * np.pi**2)
    truth = (4.0 * lam[0] + 16.0 * lam[1] + 25.0 * lam[2]) / 2.0
    spec = scenario(1)
    assert abs(spec.signal_variance - truth) < 0.03 * truth
    expected_noise = spec.signal_variance * 0.05 / 0.95
    assert spec.sigma2 == pytest.approx(expected_noise, rel=1e-12)


def s1_signal_variance(end):
    # on [0, end], <X, rho> = int R(u) dW(u) with R(u) = int_u^end rho, so its
    # variance is int R(u)^2 du; R is in closed form for the sine slope of S1
    u = np.linspace(0.0, end, 20001)
    tail = np.zeros_like(u)
    for j, c in ((1, 2.0), (2, 4.0), (3, 5.0)):
        a = (j - 0.5) * np.pi
        tail += c * (np.cos(a * u) - np.cos(a * end)) / a
    return float(np.trapezoid(tail**2, u))


def test_signal_variance_is_exact_per_grid():
    # two grids of the same size must not share a value
    full = scenario(1)
    half = scenario(1, grid=make_grid(np.linspace(0.0, 0.5, 201)))
    assert full.signal_variance == pytest.approx(s1_signal_variance(1.0), rel=1e-4)
    assert half.signal_variance == pytest.approx(s1_signal_variance(0.5), rel=1e-4)
    assert half.signal_variance > 1.1 * full.signal_variance


# ------------------------------------------------------------------ responses


def test_gen_response_with_explicit_noise_variance():
    grid = uniform_grid(41)
    spec = scenario(8, grid=grid)
    X = gen_process(spec.process, 12, grid, philox(29))
    y = gen_response(spec, X, 2, philox(0), sigma2=0.0)
    manual = X.data @ (grid.weights * spec.rho)
    manual = manual + spec.deviation_sign * spec.deltas[2] * np.array(
        [deviation(spec.deviation_kind, row, grid) for row in X.data]
    )
    assert np.allclose(y, manual, rtol=1e-12, atol=1e-14)

    noisy_a = gen_response(spec, X, 0, philox(31), sigma2=2.0)
    noisy_b = gen_response(spec, X, 0, philox(31), sigma2=2.0)
    assert np.array_equal(noisy_a, noisy_b)
    null = gen_response(spec, X, 0, philox(0), sigma2=0.0)
    spread = np.std(noisy_a - null)
    assert 0.5 < spread / np.sqrt(2.0) < 2.0


def test_gen_response_validation():
    grid = uniform_grid(41)
    spec = scenario(3, grid=grid)
    X = gen_process("bm", 5, grid, philox(0))
    with pytest.raises(ValueError):
        gen_response(spec, X, 3, philox(0), sigma2=1.0)
    other = gen_process("bm", 5, uniform_grid(31), philox(0))
    with pytest.raises(ValueError):
        gen_response(spec, other, 0, philox(0), sigma2=1.0)


# ---------------------------------------------------------------- study runs


def test_run_study_smoke():
    results = run_study([1], [0, 1], [25], M=4, K=2, B=50, seed=123)
    assert len(results) == 2
    for res, d in zip(results, (0, 1)):
        assert res.scenario == "S1"
        assert res.d == d
        assert res.n == 25
        assert res.M == 4
        assert len(res.rejection_rates) == 3
        assert all(0.0 <= rate <= 1.0 for rate in res.rejection_rates)
        # rates are nested across the alpha ladder 0.01 < 0.05 < 0.10
        assert res.rejection_rates[0] <= res.rejection_rates[1] <= res.rejection_rates[2]
        assert res.mean_rank >= 1.0
        assert res.sd_rank >= 0.0
        assert res.wall_time_s > 0.0


def table(results):
    return [
        (res.scenario, res.d, res.n, res.rejection_rates, res.mean_rank, res.sd_rank)
        for res in results
    ]


def assert_no_child():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@pytest.fixture
def forks(monkeypatch):
    """Record every os.fork call; calls past the third fork nothing and
    raise OSError, so a broken worker cap cannot start many processes."""
    calls = []
    fork = os.fork

    def counting_fork():
        calls.append(None)
        if len(calls) > 3:
            raise OSError("no more forks in this test")
        return fork()

    monkeypatch.setattr(os, "fork", counting_fork)
    return calls


def test_run_study_threads_do_not_change_results(monkeypatch):
    # 4 cells x 5 trials: at 2 and 3 workers every cell's trials are split
    # over all workers, and each cell starts in another worker than the last
    monkeypatch.setattr(simlab, "_usable_cpus", lambda: 3)
    study = dict(scenarios=[1, 7], d_values=[0, 1], n_values=[25], M=5, K=2, B=50)
    tables = {
        threads: run_study(**study, seed=7, threads=threads) for threads in (1, 2, 3)
    }
    for results in tables.values():
        assert [(res.scenario, res.d) for res in results] == [
            ("S1", 0), ("S1", 1), ("S7", 0), ("S7", 1)
        ]
        assert table(results) == table(tables[1])
        assert all(res.wall_time_s > 0.0 for res in results)
    # a cell's trials do not depend on the cells around it
    (alone,) = run_study([7], [1], [25], M=5, K=2, B=50, seed=7)
    assert table([alone]) == table(tables[1][3:])


def test_run_study_golden_table():
    # rows recorded before the per-basis direction constants, the row-wise
    # Ornstein-Uhlenbeck recursion and the shared X * w product; S7 draws
    # Ornstein-Uhlenbeck paths
    results = run_study([1, 7], [0, 1], [50], M=10, K=5, B=200, seed=7)
    rows = [
        (res.scenario, res.d, res.rejection_rates, res.mean_rank, res.sd_rank)
        for res in results
    ]
    assert rows == [
        ("S1", 0, (0.0, 0.1, 0.1), 3.2, 0.4216370213557839),
        ("S1", 1, (0.0, 0.5, 0.6), 3.5, 0.5270462766947299),
        ("S7", 0, (0.0, 0.1, 0.2), 4.4, 0.6992058987801011),
        ("S7", 1, (1.0, 1.0, 1.0), 3.3, 0.6749485577105528),
    ]


def _record_blas_threads(queue):
    forking._set_blas_threads(1)
    queue.put((os.getpid(), forking._openblas_function("get_num_threads")()))


def test_pool_workers_run_blas_on_one_thread():
    get_num_threads = forking._openblas_function("get_num_threads")
    if get_num_threads is None:
        pytest.skip("numpy's BLAS is not a bundled OpenBLAS")
    before = get_num_threads()
    context = multiprocessing.get_context("fork")
    queue = context.Queue()
    with ProcessPoolExecutor(
        2, mp_context=context, initializer=_record_blas_threads, initargs=(queue,)
    ) as pool:
        pool.submit(os.getpid).result()  # a fork pool starts all its workers
        reports = [queue.get(timeout=60) for _ in range(2)]
    assert len({pid for pid, _ in reports}) == 2
    assert [count for _, count in reports] == [1, 1]
    assert get_num_threads() == before


def test_serial_study_runs_blas_on_one_thread(monkeypatch):
    get_num_threads = forking._openblas_function("get_num_threads")
    set_num_threads = forking._openblas_function("set_num_threads")
    if get_num_threads is None or set_num_threads is None:
        pytest.skip("numpy's BLAS is not a bundled OpenBLAS")
    before = get_num_threads()
    seen = []
    trial = simlab._study_trial

    def recording_trial(payload):
        seen.append(get_num_threads())
        return trial(payload)

    monkeypatch.setattr(simlab, "_study_trial", recording_trial)
    set_num_threads(2)
    try:
        caller = get_num_threads()
        run_study([1], [0], [20], M=2, K=2, B=30, threads=1)
        assert seen == [1, 1]
        assert get_num_threads() == caller
        run_study([1], [0], [20], M=1, K=2, B=30, threads=2)  # one trial: no fork
        assert seen == [1, 1, 1]
        assert get_num_threads() == caller
    finally:
        set_num_threads(before)


def test_forked_workers_split_trials_and_run_blas_on_one_thread(monkeypatch):
    get_num_threads = forking._openblas_function("get_num_threads")
    if get_num_threads is None:
        pytest.skip("numpy's BLAS is not a bundled OpenBLAS")
    monkeypatch.setattr(simlab, "_usable_cpus", lambda: 3)
    monkeypatch.setattr(
        simlab, "_study_trial", lambda payload: (get_num_threads(), os.getpid())
    )
    before = get_num_threads()
    with simlab._trial_outcomes(list(range(7)), threads=3) as outcomes:
        seen = list(outcomes)
    assert [count for count, _ in seen] == [1] * 7
    # trial i runs in worker i mod 3, and worker 0 is this process
    pids = [pid for _, pid in seen]
    assert pids[0] == os.getpid() and len(set(pids[:3])) == 3
    assert pids == [pids[i % 3] for i in range(7)]
    assert get_num_threads() == before


def test_run_study_forks_no_more_workers_than_trials(forks, monkeypatch):
    # the calling process is one of the workers, so w workers take w - 1 forks
    monkeypatch.setattr(simlab, "_usable_cpus", lambda: 4)
    parallel = run_study([1], [0], [20], M=2, K=2, B=30, threads=4)
    assert len(forks) == 1
    assert table(parallel) == table(run_study([1], [0], [20], M=2, K=2, B=30))
    # one trial, or none, runs here without a fork
    run_study([1], [0], [20], M=1, K=2, B=30, threads=4)
    assert run_study([], [0], [20], M=3, threads=2) == []
    assert len(forks) == 1


@pytest.mark.parametrize("cpus", [2, 3])
def test_run_study_workers_capped_at_usable_cpus(forks, monkeypatch, cpus):
    monkeypatch.setattr(simlab, "_usable_cpus", lambda: cpus)
    results = run_study([1], [0], [20], M=6, K=2, B=30, threads=64)
    assert len(forks) == cpus - 1
    assert table(results) == table(run_study([1], [0], [20], M=6, K=2, B=30))


def test_run_study_validation(forks, monkeypatch):
    # every setting is checked before a worker is forked or a trial runs,
    # also a bad value at the end of a list
    trials = []
    monkeypatch.setattr(simlab, "_study_trial", trials.append)
    monkeypatch.setattr(simlab, "_usable_cpus", lambda: 2)
    study = dict(scenarios=[1], d_values=[0], n_values=[25], M=30, threads=2)
    for bad in (dict(M=0), dict(threads=0), dict(K=0), dict(B=0), dict(kind="foo"),
                dict(sampler="x"), dict(r=0.0), dict(d_values=[0, 1, 3]),
                dict(n_values=[25, 3]), dict(scenarios=[1, 10]),
                # integer settings refuse a float or a bool
                dict(M=2.0), dict(M=True), dict(threads=2.0), dict(K=2.0),
                dict(B=20.0), dict(d_values=[0, 1.0]), dict(n_values=[25, 20.0]),
                dict(scenarios=[1, 1.0]), dict(scenarios=[True])):
        with pytest.raises(ValueError):
            run_study(**{**study, **bad})
    assert forks == [] and trials == []


def test_pool_path_keeps_the_table(monkeypatch):
    # where the platform cannot fork, a pool started the default way runs
    # the trials, each worker with its OpenBLAS on one thread
    started = []

    class RecordingPool(ProcessPoolExecutor):
        def __init__(self, **kwargs):
            started.append(kwargs)
            super().__init__(**kwargs)

    monkeypatch.setattr(simlab, "ProcessPoolExecutor", RecordingPool)
    monkeypatch.setattr(simlab, "fork_supported", lambda: False)
    monkeypatch.setattr(simlab, "_usable_cpus", lambda: 2)
    study = dict(scenarios=[1, 7], d_values=[0, 1], n_values=[25], M=3, K=2, B=50)
    assert table(run_study(**study, threads=2)) == table(run_study(**study))
    assert started == [
        dict(max_workers=2, initializer=forking._set_blas_threads, initargs=(1,))
    ]


@pytest.mark.parametrize(
    "threads, cells", [(1, dict(scenarios=[1, 7], d_values=[0, 1])), (2, {})]
)
def test_serial_study_needs_no_signal_mask(forks, monkeypatch, threads, cells):
    # a serial study (one thread, or one trial) forks nothing, so it runs
    # where signal.pthread_sigmask does not exist, as on Windows
    study = dict(scenarios=[1], d_values=[0], n_values=[25], M=1, K=2, B=50)
    study.update(cells, M=3 if cells else 1)
    expected = table(run_study(**study))
    monkeypatch.delattr(signal, "pthread_sigmask")
    monkeypatch.setattr(simlab, "fork_supported", lambda: False)
    assert table(run_study(**study, threads=threads)) == expected
    assert forks == []


def test_trial_error_in_a_child_is_the_serial_error(forks, monkeypatch):
    trial = simlab._study_trial

    def failing(payload):
        if payload[-1] == 1:  # at two workers, trial 1 runs in the child
            raise ArithmeticError(f"trial 1 of {payload[0].id} failed")
        return trial(payload)

    monkeypatch.setattr(simlab, "_study_trial", failing)
    monkeypatch.setattr(simlab, "_usable_cpus", lambda: 2)
    errors = []
    for threads in (1, 2):
        with pytest.raises(ArithmeticError) as caught:
            run_study([1], [0], [20], M=4, K=2, B=30, threads=threads)
        errors.append((type(caught.value), str(caught.value)))
        assert_no_child()
    assert len(forks) == 1
    assert errors == [(ArithmeticError, "trial 1 of S1 failed")] * 2


def test_trials_of_a_killed_child_run_here(monkeypatch):
    parent, trial = os.getpid(), simlab._study_trial

    def killed(payload):
        if os.getpid() != parent and payload[-1] == 3:
            os.kill(os.getpid(), signal.SIGKILL)
        return trial(payload)

    monkeypatch.setattr(simlab, "_study_trial", killed)
    monkeypatch.setattr(simlab, "_usable_cpus", lambda: 2)
    study = dict(scenarios=[1], d_values=[0, 1], n_values=[20], M=4, K=2, B=30)
    assert table(run_study(**study, threads=2)) == table(run_study(**study))
    assert_no_child()


def children_sleep_caller_fails(monkeypatch, error):
    """Rebind the study trial: in a forked worker it sleeps for a minute, in
    this process it raises `error`, or returns an outcome if `error` is None."""
    parent = os.getpid()

    def trial(payload):
        if os.getpid() != parent:
            time.sleep(60)
        if error is not None:
            raise error("the caller's trial failed")
        return 0.5, 3

    monkeypatch.setattr(simlab, "_study_trial", trial)
    monkeypatch.setattr(simlab, "_usable_cpus", lambda: 2)


@pytest.mark.parametrize("error", [RuntimeError, KeyboardInterrupt])
def test_children_killed_when_the_caller_fails(monkeypatch, error):
    children_sleep_caller_fails(monkeypatch, error)
    started = time.perf_counter()
    with pytest.raises(error):
        run_study([1], [0], [20], M=4, K=2, B=30, threads=2)
    assert time.perf_counter() - started < 30
    assert_no_child()
    assert signal.SIGINT not in signal.pthread_sigmask(signal.SIG_BLOCK, [])


def test_children_killed_when_the_outcomes_close_early(monkeypatch):
    children_sleep_caller_fails(monkeypatch, None)
    started = time.perf_counter()
    with simlab._trial_outcomes(list(range(6)), threads=2) as outcomes:
        assert next(outcomes) == (0.5, 3)  # this process's own first trial
    assert time.perf_counter() - started < 30
    assert_no_child()


def test_early_stop_keeps_every_decision():
    # a report that stops early is the full report whenever p_fdr < 0.1;
    # otherwise both are at least 0.1, so no study decision changes
    decided = set()
    for index in (1, 3, 7):
        spec = scenario(index)
        for d in (0, 1):
            for trial in range(4):
                rng = philox((index, d, trial))
                X = gen_process(spec.process, 50, spec.grid, rng)
                y = gen_response(spec, X, d, rng)
                for kind in ("cvm", "ks"):
                    args = dict(K=5, B=500, kind=kind, seed=trial)
                    full = simlab.test_flm(X, y, **args)
                    stopped = simlab.test_flm(X, y, **args, _stop_above=0.1)
                    if stopped.p_fdr < 0.1:
                        assert stopped.to_dict() == full.to_dict()
                    else:
                        assert full.p_fdr >= 0.1
                    decided.add(stopped.p_fdr < 0.1)
    assert decided == {False, True}


def test_null_study_trials_stop_early(monkeypatch):
    # the early stop must keep saving replicates: a null trial that settles
    # p_fdr >= 0.1 draws 128 or 256 of its B = 500
    drawn = []
    draw = rptest.golden_multipliers

    def recording(rng, size):
        drawn.append(size[0])
        return draw(rng, size)

    monkeypatch.setattr(rptest, "golden_multipliers", recording)
    spec = scenario(1)
    per_trial = []
    for trial in range(10):
        drawn.clear()
        simlab._study_trial((spec, 0, 50, 5, 500, "cvm", 0.95, "i", 0, trial))
        per_trial.append(sum(drawn))
    assert min(per_trial) <= 256
    assert sum(per_trial) < 0.8 * 10 * 500
