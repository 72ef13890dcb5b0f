import dataclasses
import hashlib
import importlib.resources
import inspect
import json
import math
import os
import signal
import sys
import tracemalloc
import weakref

import jsonschema
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    _blas_on_one_thread,
    brute_process_norms,
    centered_bm_sample,
    hat_matrix,
    inner_product,
    project,
)
import flmgof
from flmgof import (
    DegenerateProjectionError,
    FpcBasis,
    FunctionalSample,
    center,
    compute_fpc,
    estimate_rho,
    fdr_combine,
    gen_process,
    gen_response,
    golden_multipliers,
    sample_direction_datadriven,
    scenario,
    select_rank_sicc,
    uniform_grid,
)
from flmgof import test_flm as flm_gof
from flmgof import test_simple as simple_gof
from flmgof import forking, fpc, rptest, run_study, simlab
from flmgof.rptest import (
    BOOTSTRAP_BLOCK,
    GOLDEN_PROBS,
    GOLDEN_VALUES,
    STAT_KINDS,
    _bootstrap_pvalues,
    _draw_nondegenerate_direction,
    _fdr_envelope,
    _max_over_rows,
    _replay_residuals,
    _Settings,
    _SortedProjections,
)
from flmgof.processes import ornstein_uhlenbeck
from flmgof.simlab import ALPHAS
from oracles import (
    binomial_tails,
    bootstrap_cvm_law,
    enumerated_fdr_rejection_rate,
    exact_bootstrap_pvalues,
    fdr_null_rejection_rate,
    pcvm,
    process_statistic,
    simulated_fdr_combined,
)


def philox(seed):
    return np.random.Generator(np.random.Philox(seed))


def flm_reports(X, responses, stop_above=None, **options):
    """The multi-response entry, with its settings named as `test_flm` takes them."""
    return rptest._flm_reports(X, responses, _Settings(**options), stop_above=stop_above)


# ---------------------------------------------------------------- statistics


def test_two_point_example():
    ks, cvm = process_statistic([0.0, 1.0], [1.0, -1.0])
    assert type(ks) is float and type(cvm) is float
    assert ks == pytest.approx(1.0 / np.sqrt(2.0), abs=1e-15)
    assert cvm == pytest.approx(0.25, abs=1e-15)
    # the order of the projections, not of the observations, sorts the process
    assert process_statistic([1.0, 0.0], [-1.0, 1.0]) == (ks, cvm)


def test_all_projections_tied():
    marks = np.array([0.5, -2.0, 1.0, 0.25])
    ks, cvm = process_statistic(np.zeros(4), marks)
    total = marks.sum()
    assert ks == pytest.approx(abs(total) / 2.0, abs=1e-15)
    assert cvm == pytest.approx(total**2 / 4.0, abs=1e-15)


@st.composite
def tied_instances(draw):
    n = draw(st.integers(1, 8))
    projections = draw(
        st.lists(st.integers(-3, 3), min_size=n, max_size=n)
    )
    marks = draw(
        st.lists(
            st.floats(-5, 5, allow_nan=False, allow_infinity=False),
            min_size=n,
            max_size=n,
        )
    )
    return np.asarray(projections, dtype=float), np.asarray(marks, dtype=float)


@settings(max_examples=300, deadline=None)
@given(tied_instances())
def test_matches_bruteforce(instance):
    projections, marks = instance
    fast_ks, fast_cvm = process_statistic(projections, marks)
    ks, cvm = brute_process_norms(projections, marks)
    assert fast_ks == pytest.approx(ks, abs=1e-10)
    assert fast_cvm == pytest.approx(cvm, abs=1e-10)
    assert fast_cvm <= fast_ks**2 + 1e-12


@settings(max_examples=100, deadline=None)
@given(tied_instances(), st.randoms(use_true_random=False))
def test_statistic_invariances(instance, pyrandom):
    projections, marks = instance
    base_ks, base_cvm = process_statistic(projections, marks)
    perm = np.arange(projections.size)
    pyrandom.shuffle(perm)
    ks, cvm = process_statistic(projections[perm], marks[perm])
    assert ks == pytest.approx(base_ks, abs=1e-10)
    assert cvm == pytest.approx(base_cvm, abs=1e-10)
    # statistics depend on projections only through their ordering and ties
    ks, cvm = process_statistic(2.0 * projections + 1.0, marks)
    assert ks == pytest.approx(base_ks, abs=1e-12)
    assert cvm == pytest.approx(base_cvm, abs=1e-12)
    ks, cvm = process_statistic(projections, -3.0 * marks)
    assert ks == pytest.approx(3.0 * base_ks, abs=1e-9)
    assert cvm == pytest.approx(9.0 * base_cvm, abs=1e-9)


def test_batched_norms_match_single_rows():
    rng = philox(0)
    projections = rng.integers(-2, 3, size=12).astype(float)
    columns = rng.standard_normal((12, 7))
    layout = _SortedProjections(projections[None])
    for column, kind in enumerate(STAT_KINDS):
        norms = layout.norms(columns[:, None], kind)[0, 0]
        assert norms.shape == (7,)
        for b in range(7):
            marks = columns[:, b]
            assert norms[b] == pytest.approx(
                process_statistic(projections, marks)[column], abs=1e-12
            )
            assert norms[b] == pytest.approx(
                brute_process_norms(projections, marks)[column], abs=1e-12
            )


def block_ends(projections):
    """Positions, in sorted order, of the last observation of each tie block
    of the (n,) `projections`."""
    return np.flatnonzero(np.diff(np.sort(projections), append=np.inf))


def assert_block_ends(layout, projections):
    """`layout`'s weights are nonzero exactly at the block ends of each row of
    the (k, n) `projections`, each direction's weights read through
    `layout.inverse`."""
    assert len(layout.inverse) == len(projections)
    for weights, row in zip(layout.weights[layout.inverse], projections):
        assert np.array_equal(np.flatnonzero(weights), block_ends(row))


def plain_cumsum_norms(layout, projections, columns, kind):
    """The norm kernel with one np.cumsum per column, the unpaired reference,
    for the one-row record of the (n,) `projections` and (n,) or (n, b)
    columns; KS reads the block ends of the sorted projections."""
    [order], [weights] = layout.order, layout.weights
    sums = np.cumsum(np.asarray(columns, dtype=float)[order], axis=0)
    if kind == "cvm":
        return weights @ np.square(sums)
    return np.max(np.abs(sums[block_ends(projections)]), axis=0) * layout.scale


@pytest.mark.parametrize("tied", [False, True])
def test_paired_cumsum_is_bit_identical(tied):
    rng = philox(5)
    n = 200
    projections = rng.standard_normal(n)
    if tied:
        projections = np.round(projections, 1)
        assert np.unique(projections).size < n
    layout = _SortedProjections(projections[None])
    assert (block_ends(projections).size < n) == tied
    assert_block_ends(layout, projections[None])
    marks = rng.standard_normal((n, 655))
    for kind in STAT_KINDS:
        # the marks of a response, as the observed norms take them
        observed = layout.norms(marks[:, :1, None], kind)
        assert observed.shape == (1, 1, 1)
        assert observed[0, 0, 0] == plain_cumsum_norms(layout, projections, marks[:, 0], kind)
        for width in (1, 2, 3, 654, 655):
            columns = np.ascontiguousarray(marks[:, :width])
            norms = layout.norms(columns[:, None], kind)
            assert norms.shape == (1, 1, width)
            reference = plain_cumsum_norms(layout, projections, columns, kind)
            assert np.array_equal(norms[0, 0], reference)


def test_max_over_rows_matches_numpy_max():
    rng = philox(6)
    for rows in (1, 2, 3, 5, 8, 13, 200):
        for shape in ((rows,), (rows, 1), (rows, 3)):
            values = rng.integers(-9, 9, shape).astype(float)
            expected = np.max(values, axis=0)
            assert np.array_equal(_max_over_rows(values.copy()), expected)


@pytest.mark.parametrize("n, widths", [
    # the blocks of B = 1000 replicates, plain and when the bootstrap may stop
    (200, ([654, 346], [128, 128, 654, 90])),
    (500, ([262, 262, 262, 214], [128, 128, 262, 262, 220])),
])
def test_bootstrap_blocks_have_even_widths(monkeypatch, n, widths):
    # BOOTSTRAP_BLOCK // 200 = 655 replicates would make an odd block
    widths, stop_widths = widths
    drawn = []

    def recording(rng, size):
        drawn.append(size)
        return golden_multipliers(rng, size)

    monkeypatch.setattr(rptest, "golden_multipliers", recording)
    sample = centered_bm_sample(n, num_points=31, seed=n)
    y = sample.data[:, 10] + philox(n).standard_normal(n)
    report = flm_gof(sample, y, K=2, B=1000, seed=0)
    assert drawn == [(width, n) for width in widths]
    drawn.clear()
    simple_gof(sample, y, K=2, B=999, seed=0)
    assert drawn[-1] == (widths[-1] - 1, n)  # only an odd B leaves an odd block
    # a bootstrap that may stop starts with two narrow blocks; p_fdr never
    # reaches 1.5, so it draws every block and counts the same replicates
    drawn.clear()
    [unstopped] = flm_reports(sample, [y], K=2, B=1000, seed=0, stop_above=1.5)
    assert drawn == [(width, n) for width in stop_widths]
    assert unstopped.to_dict() == report.to_dict()
    drawn.clear()
    flm_reports(sample, [y], K=2, B=999, seed=0, stop_above=1.5)
    assert drawn[-1] == (stop_widths[-1] - 1, n)


def test_process_statistic_errors():
    with pytest.raises(ValueError):
        process_statistic([], [])
    with pytest.raises(ValueError):
        process_statistic([0.0, 1.0], [1.0])
    with pytest.raises(ValueError):
        process_statistic([0.0, np.nan], [1.0, 1.0])
    with pytest.raises(ValueError):
        process_statistic([0.0, 1.0], [1.0, np.inf])
    # a record of k directions is no single direction
    with pytest.raises(ValueError):
        process_statistic([[0.0, 1.0], [1.0, 0.0]], [1.0, -1.0])


def test_a_record_takes_a_k_by_n_array():
    # one direction is a one-row record, not a vector
    for projections in (np.arange(4.0), np.zeros((1, 0)), np.zeros((1, 2, 2))):
        with pytest.raises(ValueError, match=r"non-empty \(k, n\) array"):
            _SortedProjections(projections)
    assert _SortedProjections(np.arange(4.0)[None]).order.shape == (1, 4)


# ------------------------------------------------------------- fdr combining


def test_fdr_combine_frozen_example():
    assert fdr_combine([0.9, 0.01, 0.04]) == pytest.approx(0.03, abs=1e-15)
    assert fdr_combine([0.5]) == 0.5
    assert fdr_combine([1.0, 1.0]) == 1.0
    assert fdr_combine([0.0, 1.0]) == 0.0


@settings(max_examples=200, deadline=None)
@given(st.lists(st.floats(0, 1), min_size=1, max_size=10))
def test_fdr_combine_properties(pvalues):
    p = np.asarray(pvalues)
    combined = fdr_combine(p)
    k = p.size
    ordered = np.sort(p)
    brute = min(
        min(ordered[i] * k / (i + 1) for i in range(k)), 1.0
    )
    assert combined == pytest.approx(brute, abs=1e-12)
    assert 0.0 <= combined <= 1.0
    assert combined >= ordered[0] - 1e-12
    assert combined <= min(k * ordered[0], 1.0) + 1e-12
    assert fdr_combine(p[::-1]) == pytest.approx(combined, abs=1e-15)


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_early_stop_decisions_hold_for_larger_counts(data):
    # counts only grow as the bootstrap goes on, so an envelope that has
    # reached a level stays there: the early stop changes no decision
    K = data.draw(st.integers(1, 25))
    B = data.draw(st.integers(1, 2000))
    final = np.array(data.draw(st.lists(st.integers(0, B), min_size=K, max_size=K)))
    low = np.array([data.draw(st.integers(0, int(count))) for count in final])
    for positive_correction in (False, True):
        settings = _Settings(B=B, positive_correction=positive_correction)
        at_stop = _fdr_envelope(_bootstrap_pvalues(low, settings))
        at_end = _fdr_envelope(_bootstrap_pvalues(final, settings))
        for alpha in ALPHAS:
            assert at_end >= alpha or not at_stop >= alpha


def test_fdr_combine_errors():
    with pytest.raises(ValueError):
        fdr_combine([])
    with pytest.raises(ValueError):
        fdr_combine([0.5, -0.1])
    with pytest.raises(ValueError):
        fdr_combine([0.5, 1.5])
    with pytest.raises(ValueError):
        fdr_combine([0.5, np.nan])


def test_fdr_size_on_independent_uniforms():
    # with independent uniform p-values the combined value is again uniform
    rng = philox(42)
    m = 20000
    for k in (1, 5, 25):
        u = np.sort(rng.random((m, k)), axis=1)
        combined = np.minimum((u * (k / np.arange(1.0, k + 1.0))).min(axis=1), 1.0)
        for alpha in (0.05, 0.25):
            rate = np.mean(combined <= alpha)
            band = 3.5 * np.sqrt(alpha * (1 - alpha) / m)
            assert abs(rate - alpha) <= band


def test_fdr_envelope_rows_are_fdr_combine():
    # the envelope combines each row of a (M, K) p-value matrix with the
    # rule that `fdr_combine` applies to one vector, bit for bit
    counts = philox(5).integers(0, 21, size=(400, 7))
    for pvalues in (counts / 20, (counts + 1.0) / 21.0):
        by_row = np.array([fdr_combine(row) for row in pvalues])
        assert np.array_equal(_fdr_envelope(pvalues), by_row)


# --------------------------------------------- exact null rate of the fdr rule


@pytest.mark.parametrize("positive_correction", [False, True])
def test_fdr_null_rejection_rate_matches_enumeration(positive_correction):
    for K, B in ((1, 7), (2, 9), (3, 20), (4, 6), (5, 4)):
        for alpha in (0.01, 0.05, 0.1, 0.3, 0.5, 1.0):
            exact = enumerated_fdr_rejection_rate(K, B, alpha, positive_correction)
            rate = fdr_null_rejection_rate(K, B, alpha, positive_correction)
            assert abs(rate - exact) <= 1e-12


def test_fdr_null_rejection_rate_matches_simulation():
    M = 20000
    for K, B in ((1, 500), (5, 500), (5, 1000), (10, 100), (3, 20)):
        for positive_correction in (False, True):
            combined = simulated_fdr_combined(K, B, M, philox(1000 * K + B), positive_correction)
            for alpha in ALPHAS:
                rate = fdr_null_rejection_rate(K, B, alpha, positive_correction)
                se = math.sqrt(rate * (1.0 - rate) / M)
                assert abs(np.mean(combined < alpha) - rate) <= 4.0 * se


def test_fdr_null_rejection_rate_single_projection():
    # with K = 1 the rule rejects the t_1 atoms below alpha, each with chance
    # 1/(B+1); the recursion's exp and log leave a few ulps
    for B in (1, 7, 500):
        for positive_correction in (False, True):
            settings = _Settings(B=B, positive_correction=positive_correction)
            atoms = _bootstrap_pvalues(np.arange(B + 1), settings)
            for alpha in (0.01, 0.05, 0.1, 0.5, 1.0):
                below = np.count_nonzero(atoms < alpha)
                rate = fdr_null_rejection_rate(1, B, alpha, positive_correction)
                assert rate == pytest.approx(below / (B + 1), rel=1e-15, abs=0.0)


def test_fdr_null_rejection_rate_floor():
    assert round(fdr_null_rejection_rate(25, 500, 0.01), 6) == 0.048723
    # at the smallest positive alpha only a combined p-value of 0 rejects:
    # some count is 0 for the plain p-value, never for the corrected one
    tiny = np.nextafter(0.0, 1.0)
    for K, B in ((1, 10), (5, 1000), (25, 500)):
        floor = 1.0 - (B / (B + 1.0)) ** K
        assert fdr_null_rejection_rate(K, B, tiny) == pytest.approx(floor, rel=1e-12)
        assert fdr_null_rejection_rate(K, B, tiny, positive_correction=True) == 0.0
        for alpha in ALPHAS:
            plain = fdr_null_rejection_rate(K, B, alpha)
            assert floor <= plain + 1e-15
            # the corrected p-value dominates the plain one pointwise
            assert fdr_null_rejection_rate(K, B, alpha, True) <= plain + 1e-15


@pytest.mark.parametrize(
    "K, B, alpha",
    [(0, 100, 0.05), (5, 0, 0.05), (2.5, 100, 0.05), (5, 100, 0.0),
     (5, 100, 1.5), (5, 100, float("nan"))],
)
def test_fdr_null_rejection_rate_validation(K, B, alpha):
    with pytest.raises(ValueError):
        fdr_null_rejection_rate(K, B, alpha)


@pytest.mark.parametrize("alpha", ["0.05", True, np.True_, float("nan"), 0])
def test_fdr_null_rejection_rate_alpha_must_be_a_real_number(alpha):
    # the check the variance threshold r has, as True would run as 1.0
    with pytest.raises(ValueError, match=r"alpha must be a real number in \(0, 1\]"):
        fdr_null_rejection_rate(5, 100, alpha)
    rate = fdr_null_rejection_rate(5, 100, np.float64(0.05))
    assert rate == fdr_null_rejection_rate(5, 100, 0.05)


# ------------------------------------------------------------ wild multipliers


def test_golden_multiplier_law():
    rng = philox(7)
    draws = golden_multipliers(rng, 200000)
    values = np.unique(draws)
    assert np.allclose(np.sort(values), np.sort(GOLDEN_VALUES), atol=1e-15)
    low_share = np.mean(draws == GOLDEN_VALUES[0])
    assert abs(low_share - GOLDEN_PROBS[0]) < 4.0 * np.sqrt(0.2 / draws.size)
    n = draws.size
    assert abs(draws.mean()) < 4.0 / np.sqrt(n)
    assert abs(np.mean(draws**2) - 1.0) < 4.0 / np.sqrt(n)
    assert abs(np.mean(draws**3) - 1.0) < 8.0 / np.sqrt(n)
    assert golden_multipliers(rng, (3, 5)).shape == (3, 5)


def test_golden_multipliers_match_where_reference():
    low, high = GOLDEN_VALUES
    assert high + (low - high) == low  # the select without a branch is exact
    for size in (1, 7, (3, 5), (64, 2048)):
        draws = golden_multipliers(philox(8), size)
        reference = np.where(philox(8).random(size) < GOLDEN_PROBS[0], low, high)
        assert np.array_equal(draws, reference)
        assert set(np.unique(draws)) <= {low, high}


# ------------------------------------------------------------------ directions


def tiny_basis():
    grid = uniform_grid(3)
    eigenfunctions = np.eye(3)
    return FpcBasis(
        grid=grid,
        eigenvalues=np.array([2.0, 1.0, 0.1]),
        eigenfunctions=eigenfunctions,
        scores=np.zeros((5, 3)),
    )


def test_component_count_uses_squared_eigenvalues():
    # squared spectrum (4, 1, 0.01): 4/5.01 < 0.95 <= 5/5.01
    basis = tiny_basis()
    rng = philox(1)
    direction = sample_direction_datadriven(basis, r=0.95, rng=rng, variant="ii")
    assert direction[2] == 0.0
    assert np.any(direction[:2] != 0.0)
    direction = sample_direction_datadriven(basis, r=0.5, rng=philox(1), variant="ii")
    assert np.all(direction[1:] == 0.0)
    direction = sample_direction_datadriven(basis, r=1.0, rng=philox(1), variant="ii")
    assert np.all(direction != 0.0)


def test_direction_metadata_and_validation():
    basis = tiny_basis()
    direction = sample_direction_datadriven(basis, rng=philox(3), variant="ii")
    assert direction.shape == (basis.grid.size,)
    with pytest.raises(ValueError):
        sample_direction_datadriven(basis, rng=philox(0), variant="nope")
    with pytest.raises(ValueError):
        sample_direction_datadriven(basis, rng=None)
    for variant in ("i", "ii", "iii"):
        for r in (0.0, 1.5, 5.0, float("nan")):
            with pytest.raises(ValueError, match="variance threshold r"):
                sample_direction_datadriven(basis, r=r, rng=philox(0), variant=variant)


def closed_form_spread(basis, components):
    n = basis.n
    return np.sqrt(basis.eigenvalues[:components] * (n / (n - 1.0)))


def sample_spread(basis, components):
    return np.std(basis.scores[:, :components], axis=0, ddof=1)


def unit_spread(basis, components):
    return np.ones(components)


def per_draw_direction(basis, r, rng, spread):
    """A direction of sampler i or ii with every constant made for the draw;
    `spread(basis, j_n)` gives the coefficients' standard deviations."""
    cumulative = np.cumsum(basis.eigenvalues**2)
    j_n = int(np.argmax(cumulative / cumulative[-1] >= r)) + 1
    coefficients = rng.normal(0.0, 1.0, j_n) * spread(basis, j_n)
    return coefficients @ basis.eigenfunctions[:j_n]


def direction_bases():
    # Brownian curves put over 95% of the squared spectrum on the first
    # component (j_n = 1 below r = 1); the cosine curves spread it out. The
    # first three samples take the n x n Gram path, the last two (n > G) the
    # G x G kernel path
    grid = uniform_grid(41)
    samples = [centered_bm_sample(50, num_points=201, seed=31)]
    samples += [
        center(gen_process(kind, n, grid, philox(n)))
        for kind, n in (("ou", 30), ("hhn1", 12), ("bm", 90), ("ou", 60))
    ]
    return [compute_fpc(sample) for sample in samples]


@pytest.mark.parametrize("r", [0.5, 0.95, 1.0])
def test_sampler_i_spread_is_the_closed_form(r):
    for index, basis in enumerate(direction_bases()):
        for draw in range(3):
            seed = (index, draw)
            got = sample_direction_datadriven(basis, r=r, rng=philox(seed), variant="i")
            expected = per_draw_direction(basis, r, philox(seed), closed_form_spread)
            assert np.array_equal(got, expected)
            estimated = per_draw_direction(basis, r, philox(seed), sample_spread)
            assert np.max(np.abs(got - estimated)) <= 1e-11 * np.max(np.abs(estimated))
        components = min(basis.m, 10)
        assert np.allclose(
            closed_form_spread(basis, components),
            sample_spread(basis, components),
            rtol=1e-11,
            atol=0.0,
        )


@pytest.mark.parametrize("variant", ["ii"])
@pytest.mark.parametrize("r", [0.5, 0.95, 1.0])
def test_direction_constants_match_the_per_draw_formula(variant, r):
    bases = direction_bases()
    for index, basis in enumerate(bases):
        for draw in range(3):
            seed = (index, draw)
            got = sample_direction_datadriven(basis, r=r, rng=philox(seed), variant=variant)
            expected = per_draw_direction(basis, r, philox(seed), unit_spread)
            assert np.array_equal(got, expected)
    squared = bases[0].eigenvalues ** 2
    assert squared[0] >= 0.95 * squared.sum()  # j_n = 1 below r = 1


def test_sampler_iii_draws_as_before():
    for index, basis in enumerate(direction_bases()):
        got = sample_direction_datadriven(basis, rng=philox(index), variant="iii")
        expected = ornstein_uhlenbeck(1, basis.grid, philox(index), mean_reversion=0.5)
        assert np.array_equal(got, expected[0])


def test_a_basis_holds_only_its_fields(monkeypatch):
    # a test's basis keeps the score columns its fits read: as many as the
    # chosen rank under the composite null, none under the simple null
    bases = []
    make_basis = rptest._leading

    def recording(*args):
        bases.append(make_basis(*args))
        return bases[-1]

    monkeypatch.setattr(rptest, "_leading", recording)
    sample, y = noisy_case(seed=37)
    ranks = []
    for sampler in ("i", "ii", "iii"):
        ranks.append(flm_gof(sample, y, K=2, B=20, sampler=sampler, seed=0).settings["rank"])
        simple_gof(sample, y, K=2, B=20, sampler=sampler, seed=0)
    fields = {field.name for field in dataclasses.fields(FpcBasis)}
    assert [set(vars(basis)) for basis in bases] == [fields] * 6
    assert [basis.m for basis in bases] == [count for rank in ranks for count in (rank, 0)]
    assert [basis.scores.shape for basis in bases[1::2]] == [(sample.n, 0)] * 3


def direction_inputs(sample):
    """A test's basis on `sample` with every score column, each formed as a
    test forms it, its largest curve norm and the A = X * sqrt(w) it
    projects with."""
    full, root_weighted, unit = rptest.compute_fpc(center(sample))
    basis = fpc._leading(full, root_weighted, unit, full.m)
    curve_scale = np.sqrt(np.max(np.sum(root_weighted**2, axis=1)))
    return basis, curve_scale, root_weighted


def ordered_eigh(matrix, m):
    """The m leading eigenvalues and unit eigenvectors of a symmetric matrix."""
    vals, vecs = np.linalg.eigh(matrix)
    order = np.argsort(vals)[::-1][:m]
    return vals[order], vecs[:, order]


def test_one_weighted_product_gives_scores_and_projections(monkeypatch):
    # A = X * sqrt(w) of the centered curves gives the covariance, the scores
    # (in closed form on the n <= G Gram path, A u_j on the G x G kernel
    # path), the projections A (sqrt(w) h) and the SICc inner products
    # <S_j, y> = u_j . (A^T y); a test reads them all and keeps its score
    # columns before A is freed
    products, bases, directions, projections, scales, criteria = [], [], [], [], [], []
    decompose, make_basis, make_record, draw, sampler, sicc = (
        rptest.compute_fpc, rptest._leading, rptest._SortedProjections,
        rptest._draw_nondegenerate_direction, rptest.sample_direction_datadriven,
        rptest.select_rank_sicc,
    )

    def recording_decomposition(sample):
        full, root_weighted, unit = decompose(sample)
        products.append(weakref.ref(root_weighted))
        return full, root_weighted, unit

    def recording_basis(*args):
        bases.append(make_basis(*args))
        return bases[-1]

    def record(*args):
        # A is freed before the projections' record is built
        assert products[-1]() is None
        return make_record(*args)

    def recording_draw(*args, **kwargs):
        scales.append(args[0])
        projections.append(draw(*args, **kwargs))
        return projections[-1]

    def recording_sampler(*args):
        directions.append(sampler(*args))
        return directions[-1]

    def recording_sicc(*args):
        criteria.append(sicc(*args))
        return criteria[-1]

    def multipliers(*args):
        # A is freed before the first multiplier draw
        assert products[-1]() is None
        return golden_multipliers(*args)

    for process, n, num_points in (("bm", 30, 41), ("bm", 60, 21), ("hhn1", 60, 51)):
        raw = gen_process(process, n, uniform_grid(num_points), philox(4))
        attributes, bits = dict(vars(raw)), raw.data.tobytes()
        sqrt_w = np.sqrt(raw.grid.weights)
        product = center(raw).data * sqrt_w
        basis = compute_fpc(raw)
        if n <= num_points:
            vals, vecs = ordered_eigh((product @ product.T) / n, basis.m)
            expected = np.abs(vecs) * np.sqrt(n * vals)
        else:
            vals, vecs = ordered_eigh((product.T @ product) / n, basis.m)
            expected = np.abs(product @ vecs)
        assert np.array_equal(basis.eigenvalues, vals)
        assert np.array_equal(np.abs(basis.scores), expected)

        # each test's A gives its largest curve norm, its projections and its
        # SICc inner products, and is gone by its first multiplier block;
        # nothing is left on the caller's sample
        for recorded in (products, bases, directions, projections, scales, criteria):
            recorded.clear()
        with monkeypatch.context() as patch:
            patch.setattr(rptest, "compute_fpc", recording_decomposition)
            patch.setattr(rptest, "_leading", recording_basis)
            patch.setattr(rptest, "_SortedProjections", record)
            patch.setattr(rptest, "_draw_nondegenerate_direction", recording_draw)
            patch.setattr(rptest, "sample_direction_datadriven", recording_sampler)
            patch.setattr(rptest, "select_rank_sicc", recording_sicc)
            patch.setattr(rptest, "golden_multipliers", multipliers)
            y = basis.scores[:, 0] + 0.1 * philox(5).standard_normal(n)
            for sampler_name in ("i", "iii"):
                report = flm_gof(raw, y, K=2, B=20, sampler=sampler_name, seed=0)
                simple_gof(raw, y, K=2, B=20, sampler=sampler_name, seed=0)
        assert len(products) == len(bases) == 4
        assert len(directions) == len(projections) == 8
        for recorded, columns in zip(bases, (report.settings["rank"], 0) * 2):
            for name in ("eigenvalues", "eigenfunctions"):
                assert np.array_equal(getattr(recorded, name), getattr(basis, name)[:columns])
            assert np.allclose(recorded.scores, basis.scores[:, :columns],
                               rtol=0.0, atol=1e-14 * np.max(np.abs(basis.scores)))
        # the public SICc from the public scores chooses the same rank from
        # the same criterion, to rounding, which log(RSS) amplifies at ranks
        # near n, where the RSS is small
        max_rank = min(basis.m, n - 3)
        rank, criterion = select_rank_sicc(y - y.mean(), basis, max_rank)
        assert [rank, rank] == [chosen for chosen, _ in criteria]
        for _, values in criteria:
            assert np.allclose(values, criterion, rtol=0.0, atol=1e-9)
        largest = np.sqrt(np.max(np.sum(center(raw).data ** 2 * raw.grid.weights, axis=1)))
        assert len(scales) == 8
        assert np.allclose(scales, largest, rtol=1e-14, atol=0.0)
        for h, got in zip(directions, projections):
            assert np.array_equal(got, np.einsum("ij,j->i", product, sqrt_w * h))
            assert np.allclose(got, project(center(raw), h), rtol=1e-12, atol=1e-15)
        assert vars(raw) == attributes and raw.data.tobytes() == bits


@pytest.mark.parametrize("gof", [flm_gof, simple_gof])
@pytest.mark.parametrize("sampler", ["i", "ii", "iii"])
def test_identical_curves_tie_exactly(gof, sampler, monkeypatch):
    # every curve twice, at n = 2m with n mod 4 = 2, where a BLAS gemv rounds
    # the last rows differently: each curve's two copies must project alike,
    # so the process has exactly one block end per distinct curve in each of
    # the K directions of the test's one record
    layouts, projected = [], []
    make_layout = rptest._SortedProjections

    def recording(projections):
        projected.append(projections)
        layouts.append(make_layout(projections))
        return layouts[-1]

    monkeypatch.setattr(rptest, "_SortedProjections", recording)
    grid = uniform_grid(201)
    for m in (15, 25, 51, 125):
        curves = gen_process("bm", m, grid, philox(m)).data
        sample = FunctionalSample(grid=grid, data=np.vstack([curves, curves]))
        y = philox(m + 1).standard_normal(2 * m)
        layouts.clear()
        projected.clear()
        gof(sample, y, K=5, B=10, sampler=sampler, seed=m)
        [layout], [projections] = layouts, projected
        assert layout.order[layout.inverse].shape == (5, 2 * m)
        assert [block_ends(row).size for row in projections] == [m] * 5
        assert_block_ends(layout, projections)


def test_working_set_of_a_large_test():
    # On the kernel path a test holds one n x G array beyond its input, in
    # its FPC step only: A = X * sqrt(w) is formed in the centered curves'
    # buffer, the projections and SICc's inner products are read from it,
    # the k score columns the fits read are formed, and A is freed before
    # the bootstrap. The fresh arrays are frozen in place, not copied, and
    # the bootstrap streams blocks of BOOTSTRAP_BLOCK values. Each test
    # traces about 1.13 n * G * 8 bytes, on Brownian curves (every component
    # kept) and on low-rank cosine-series curves (m = 20) alike.
    n, grid = 8192, uniform_grid(201)
    for process in ("bm", "hhn1"):
        sample = gen_process(process, n, grid, philox(8))
        m0 = sample.data @ grid.weights
        y = m0 + philox(9).standard_normal(n)
        for gof, extra in ((flm_gof, {}), (simple_gof, {"m0": m0})):
            tracemalloc.start()
            try:
                gof(sample, y, K=2, B=50, seed=0, **extra)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak <= 1.2 * sample.data.nbytes, (process, gof)


def test_inputs_stay_as_they_were():
    # only arrays the library made are frozen or reused in place, also when
    # the input is itself a sample the library made
    raw = gen_process("bm", 40, uniform_grid(21), philox(6))
    y = raw.data @ raw.grid.weights + 0.1 * philox(7).standard_normal(raw.n)
    for sample in (raw, center(raw)):
        data, bits = sample.data, sample.data.tobytes()
        center(sample)
        compute_fpc(sample)
        flm_gof(sample, y, K=2, B=20, seed=0)
        simple_gof(sample, y, K=2, B=20, seed=0)
        assert sample.data is data
        assert data.tobytes() == bits and not data.flags.writeable


@pytest.mark.parametrize("r", ["0.9", True, np.True_, None, [0.5], 1 + 0j])
def test_threshold_must_be_a_real_number(r, monkeypatch):
    # refused before any work, as a bool is for the integer settings
    sample = centered_bm_sample(20, num_points=21, seed=3)
    y = philox(4).standard_normal(sample.n)
    calls, trials = [], []
    monkeypatch.setattr(rptest, "compute_fpc", lambda *args: calls.append(args))
    monkeypatch.setattr(simlab, "_study_trial", trials.append)
    for gof in (flm_gof, simple_gof):
        with pytest.raises(ValueError, match="variance threshold r"):
            gof(sample, y, K=2, B=10, r=r)
    with pytest.raises(ValueError, match="variance threshold r"):
        run_study([1], [0], [20], M=2, K=2, B=10, r=r)
    assert calls == [] and trials == []


@pytest.mark.parametrize("sampler", ["i", "ii", "iii"])
def test_threshold_and_sampler_are_checked_before_any_work(sampler, monkeypatch):
    sample = centered_bm_sample(20, num_points=21, seed=3)
    y = philox(4).standard_normal(sample.n)
    calls = []
    monkeypatch.setattr(rptest, "compute_fpc", lambda *args: calls.append(args))
    for gof in (flm_gof, simple_gof):
        for r in (0.0, -1.0, 1.5, 5.0, float("nan")):
            with pytest.raises(ValueError, match="variance threshold r"):
                gof(sample, y, K=2, B=10, r=r, sampler=sampler)
        with pytest.raises(ValueError, match="sampler variant"):
            gof(sample, y, K=2, B=10, sampler=sampler + "v")
        # a seed is None, an integer >= 0 or a SeedSequence
        for seed in (-1, 1.5, True, "7"):
            with pytest.raises(ValueError, match="seed"):
                gof(sample, y, K=2, B=10, sampler=sampler, seed=seed)
    assert calls == []


def test_datadriven_coefficient_spread():
    sample = centered_bm_sample(200, num_points=51, seed=12)
    basis = compute_fpc(sample)
    rng = philox(13)
    target = np.std(basis.scores[:, 0], ddof=1)
    coeffs = np.empty(20000)
    for i in range(coeffs.size):
        direction = sample_direction_datadriven(basis, rng=rng, variant="i")
        coeffs[i] = inner_product(direction, basis.eigenfunctions[0], basis.grid)
    assert abs(coeffs.mean()) < 0.03 * target
    assert abs(coeffs.std(ddof=1) - target) < 0.05 * target


def test_ou_sampler_ignores_the_data():
    basis = tiny_basis()
    a = sample_direction_datadriven(basis, rng=philox(5), variant="iii")
    other = FpcBasis(
        grid=basis.grid,
        eigenvalues=np.array([1.0]),
        eigenfunctions=np.ones((1, 3)),
        scores=np.zeros((5, 1)),
    )
    b = sample_direction_datadriven(other, rng=philox(5), variant="iii")
    assert np.array_equal(a, b)


def test_project_linear_curves():
    grid = uniform_grid(201)
    data = np.vstack([grid.points, -grid.points])
    sample = FunctionalSample(grid=grid, data=data)
    projections = project(sample, np.ones(201))
    # trapezoid quadrature integrates linear curves exactly
    assert np.allclose(projections, [0.5, -0.5], atol=1e-14)
    with pytest.raises(ValueError):
        project(sample, np.ones(5))


def test_degenerate_direction_guard():
    grid = uniform_grid(5)
    f = np.sin(2.0 * np.pi * grid.points) + 0.2
    g = np.cos(3.0 * np.pi * grid.points)
    g = g - f * inner_product(g, f, grid) / inner_product(f, f, grid)
    assert abs(inner_product(f, g, grid)) < 1e-15
    sample = FunctionalSample(grid=grid, data=np.vstack([f, -f]))
    orthogonal_basis = FpcBasis(
        grid=grid,
        eigenvalues=np.array([1.0]),
        eigenfunctions=g[None, :],
        scores=np.zeros((2, 1)),
    )
    _, curve_scale, root_weighted = direction_inputs(sample)
    with pytest.raises(DegenerateProjectionError):
        _draw_nondegenerate_direction(
            curve_scale, root_weighted, orthogonal_basis, _Settings(sampler="ii"),
            philox(0), draw=1,
        )


# ----------------------------------------------------------------- bootstrap


def small_fit(n=50, seed=20, noise=0.5):
    sample = centered_bm_sample(n, num_points=51, seed=seed)
    basis = compute_fpc(sample)
    rng = np.random.default_rng(seed + 1)
    y = 2.0 * basis.scores[:, 0] + noise * rng.standard_normal(n)
    y = y - y.mean()
    fit = estimate_rho(y, basis, 2)
    return sample, basis, fit


def test_replay_matches_refit_from_scratch():
    # the replay must equal the whole pipeline rerun on Y* = fitted + e:
    # center the response, then fit again at the same rank
    sample, basis, fit = small_fit()
    perturbations = philox(24).standard_normal((6, sample.n)) + 0.3
    given = perturbations.copy()
    replayed = _replay_residuals(fit, perturbations)
    # the replay returns a new array and leaves its input as it was
    assert np.array_equal(perturbations, given)
    assert replayed.shape == perturbations.shape
    for e, row in zip(perturbations, replayed):
        response = fit.fitted + e
        refit = estimate_rho(response - response.mean(), basis, fit.rank)
        assert np.allclose(row, refit.residuals, atol=1e-10)
        assert np.allclose(_replay_residuals(fit, e), refit.residuals, atol=1e-10)
    assert np.array_equal(perturbations, given)


def test_pcvm_of_one_component_is_the_mean_of_two_directions():
    # with p = 1 a Gaussian direction is +S or -S up to a positive factor,
    # which leaves the order, so the PCvM statistic is the mean of their norms
    rng = philox(31)
    scores, marks = rng.standard_normal((25, 1)), rng.standard_normal(25)
    scores[3] = scores[7]  # one tie: a zero difference
    both = [process_statistic(sign * scores[:, 0], marks)[1] for sign in (1.0, -1.0)]
    assert pcvm(scores, marks) == pytest.approx(np.mean(both), rel=1e-12, abs=0.0)


@pytest.mark.parametrize("n, p", [(30, 2), (30, 4), (50, 2), (50, 4)])
def test_mean_cvm_over_directions_is_the_pcvm_statistic(n, p):
    # Sampler "ii" draws h = sum_{j<=j_n} xi_j e_j with xi standard normal,
    # and with r = 1 on a basis of p components j_n = p. The curves project
    # to S xi, so over the draws the package's CvM norm of the residual-marked
    # process averages to the PCvM statistic (`pcvm`); its mean over 20,000
    # fixed-seed draws must lie within 4 SE of it. Sampler "i" scales xi_j by
    # sqrt(n lambda_j / (n - 1)), so its curves project to S D xi, and its
    # mean is the PCvM statistic of the scaled scores S D
    draws = 20_000
    spec = scenario(3)
    rng = philox(300 + n)
    X = gen_process(spec.process, n, spec.grid, rng)
    y = gen_response(spec, X, 0, rng)
    full = compute_fpc(X)
    basis = FpcBasis(grid=full.grid, eigenvalues=full.eigenvalues[:p],
                     eigenfunctions=full.eigenfunctions[:p], scores=full.scores[:, :p])
    squares = np.cumsum(basis.eigenvalues**2)
    assert squares[-2] / squares[-1] < 1.0  # so j_n = p at r = 1
    marks = estimate_rho(y - y.mean(), basis, p).residuals
    spreads = {"ii": 1.0, "i": np.sqrt(n * basis.eigenvalues / (n - 1))}
    for sampler, spread in spreads.items():
        directions_rng = philox(10 * n + p)
        directions = np.array([sample_direction_datadriven(basis, 1.0, directions_rng, sampler)
                               for _ in range(draws)])
        projections = directions @ (spec.grid.weights * X.data).T
        norms = _SortedProjections(projections).norms(marks[:, None, None], "cvm")[:, 0, 0]
        expected = pcvm(basis.scores * spread, marks)
        z = (norms.mean() - expected) / (norms.std(ddof=1) / math.sqrt(draws))
        assert abs(z) < 4.0, sampler


@pytest.mark.parametrize("n, num_points", [(50, 51), (60, 31)])
def test_replay_equals_centering_then_hat_projection(n, num_points):
    # the one projection against the two steps it replaces, (I - H)(e - mean(e))
    # with a dense H, at rank 1, a middle rank and the largest rank a test
    # selects, on the Gram path (n <= G) and the kernel path. They differ by
    # mean(e) H 1, zero where the scores sum to zero; on the Gram path the
    # eigenvectors of small components carry about eps * lambda_1 / lambda_j
    # along 1, so there the largest rank is compared with that term kept
    sample = centered_bm_sample(n, num_points=num_points, seed=25)
    basis = compute_fpc(sample)
    y = basis.scores[:, 0] + 0.5 * philox(26).standard_normal(n)
    perturbations = philox(27).standard_normal((6, n)) + 0.3
    means = perturbations.mean(axis=1, keepdims=True)
    top = min(basis.m, n - 3)
    for rank in (1, top // 2, top):
        fit = estimate_rho(y - y.mean(), basis, rank)
        hat = hat_matrix(fit)
        two_step = (perturbations - means) @ (np.eye(n) - hat)  # H is symmetric
        drift = means * hat.sum(axis=1)
        replayed = _replay_residuals(fit, perturbations)
        bound = 1e-13 * np.max(np.abs(perturbations))
        assert np.max(np.abs(replayed - (two_step - drift))) <= bound
        if rank < top or n > num_points:
            assert np.max(np.abs(replayed - two_step)) <= bound


@pytest.mark.parametrize("null", ["flm", "simple"])
@pytest.mark.parametrize(
    "index, n, tied",
    [(index, n, False) for index in (1, 3, 7) for n in (30, 100, 200)] + [(7, 100, True)],
)
def test_bootstrap_cvm_law_matches_the_closed_form(index, n, tied, null):
    # A replicate's CvM norm is v^T A v (`bootstrap_cvm_law`), so over B
    # replicates drawn, replayed and reduced by the package's own code its
    # mean must lie within 4 SE of tr A, and its variance within 4 SE of
    # 2 tr A^2 - sum A_ii^2, that SE taken from the replicates' own fourth
    # moment. One check covers the multiplier law, the replay, the sort,
    # ties and the weights
    B, width = 40_000, 2_000
    spec = scenario(index)
    rng = philox(100 * index + n)
    curves = gen_process(spec.process, n // 2 if tied else n, spec.grid, rng).data
    if tied:
        curves = np.vstack([curves, curves])
    X = FunctionalSample(grid=spec.grid, data=curves)
    y = gen_response(spec, X, 0, rng)
    basis = compute_fpc(X)
    h = sample_direction_datadriven(basis, 0.95, rng)
    projections = np.einsum("ij,j->i", X.data, spec.grid.weights * h)
    record = _SortedProjections(projections[None])
    assert (record.weights == 0).any() == tied
    fit = None
    if null == "flm":
        y_centered = y - y.mean()
        rank = select_rank_sicc(y_centered, basis, min(basis.m, n - 3))[0]
        fit = estimate_rho(y_centered, basis, int(rank))
    marks = y if fit is None else fit.residuals
    M, mean, variance = bootstrap_cvm_law(record, marks, None if fit is None else fit.design)
    # M from the definition, (1/n^2) sum_k (sum_i 1{p_i <= p_k} m_i)^2
    below = (projections[None, :] <= projections[:, None]).astype(float)
    np.testing.assert_allclose(M, below.T @ below / n**2, rtol=1e-12, atol=0.0)

    observed = record.norms(marks[:, None, None], "cvm")[0, 0, 0]
    assert observed == pytest.approx(marks @ M @ marks, rel=1e-12, abs=0.0)
    multipliers = philox(7)
    norms = []
    for _ in range(B // width):
        replicates = golden_multipliers(multipliers, (width, n)) * marks
        if fit is not None:
            replicates = _replay_residuals(fit, replicates)
        norms.append(record.norms(replicates.T[:, None, :], "cvm")[0, 0])
    norms = np.concatenate(norms)
    assert abs(norms.mean() - mean) <= 4.0 * math.sqrt(variance / B)
    fourth = np.mean((norms - norms.mean()) ** 4)
    assert abs(norms.var() - variance) <= 4.0 * math.sqrt((fourth - norms.var() ** 2) / B)


def test_bootstrap_counts_follow_the_exact_bootstrap_law():
    # At n=12 the 2^12 golden-ratio multiplier vectors give each direction's
    # B = infinity p-value p through the replay, so a report's count out of B
    # is Binomial(B, p). Per count, both exact binomial tails must reach the
    # normal tail at 4.5 SE. Over datasets, which are independent, the counts'
    # summed deviation from B p must lie within 4 SE, taking each dataset's
    # deviations as perfectly correlated (a direction's KS and CvM counts
    # share the multipliers), which only widens the band
    n, K, B, datasets = 12, 3, 2000, 60
    tail = 0.5 * math.erfc(4.5 / math.sqrt(2.0))
    spec = scenario(1)
    deviation, variance, cells = 0.0, 0.0, 0
    for dataset in range(datasets):
        rng = philox(dataset)
        X = gen_process(spec.process, n, spec.grid, rng)
        y = gen_response(spec, X, 0, rng)
        dataset_deviation, dataset_spread = 0.0, 0.0
        for kind in STAT_KINDS:
            report = flm_gof(X, y, K=K, B=B, kind=kind, seed=dataset)
            prepared = rptest._prepare(X, _Settings(K, B, kind, seed=dataset), [y - y.mean()])
            fit = estimate_rho(y - y.mean(), prepared.basis, report.settings["rank"])
            exact = exact_bootstrap_pvalues(fit, prepared.directions, kind)
            observed = prepared.directions.norms(fit.residuals[:, None, None], kind)[:, 0, 0]
            assert len(observed) == len(exact) == K
            for rec, statistic, p in zip(report.per_projection, observed, exact):
                assert rec.statistic == statistic
                count = round(rec.pvalue * B)
                if p in (0.0, 1.0):
                    assert count == p * B
                    continue
                assert min(binomial_tails(count, B, p)) >= tail
                dataset_deviation += count - B * p
                dataset_spread += math.sqrt(B * p * (1.0 - p))
                cells += 1
        deviation += dataset_deviation
        variance += dataset_spread**2
    assert cells >= 0.9 * datasets * K * len(STAT_KINDS)
    assert abs(deviation) <= 4.0 * math.sqrt(variance)


@settings(max_examples=50, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(8, 60), st.sampled_from(("i", "ii", "iii")))
def test_power_of_two_scalings_keep_every_decision(seed, n, sampler):
    # Scaling y by 8 scales the residuals, every replicate and so every norm
    # by a power of two, exactly. Scaling X by 4 scales the eigenvalues by 16
    # and the scores and projections by 4 and 16, exactly, which leaves the
    # design Q, the marks and every order as they were. Either way each rank,
    # p-value and p_fdr keeps its bits. On 31 grid points n <= 31
    # takes the Gram path and n > 31 the kernel path
    grid = uniform_grid(31)
    rng = philox(seed)
    X = gen_process("bm", n, grid, rng)
    y = X.data @ (grid.weights * np.sin(2.0 * np.pi * grid.points))
    y = y + 0.3 * rng.standard_normal(n)
    scaled_X = FunctionalSample(grid=grid, data=4.0 * X.data)
    for gof in (flm_gof, simple_gof):
        for kind in STAT_KINDS:
            options = {"K": 3, "B": 100, "kind": kind, "sampler": sampler, "seed": seed}
            base = gof(X, y, **options)
            growth = 64.0 if kind == "cvm" else 8.0
            scaled = ((gof(X, 8.0 * y, **options), growth),
                      (gof(scaled_X, y, **options), 1.0))
            for report, factor in scaled:
                assert report.settings == base.settings  # the rank among them
                assert report.p_fdr == base.p_fdr
                for rec, ref in zip(report.per_projection, base.per_projection):
                    assert rec.pvalue == ref.pvalue
                    assert rec.statistic == factor * ref.statistic


def test_component_count_holds_at_extreme_curve_scales():
    # At 2**300 times the curves the squared eigenvalues overflow, and at
    # 2**-300 they underflow to 0; a share of inf/inf or 0/0 is NaN, and the
    # rule then read j_n = 1. The cosine-series curves here have j_n = 2,
    # so each scaling kept every decision only once the share is formed
    # from lambda_j / lambda_1. n = 30 takes the Gram path, n = 40 the kernel
    grid = uniform_grid(31)
    for n in (30, 40):
        rng = philox(n)
        X = gen_process("hhn1", n, grid, rng)
        y = X.data @ (grid.weights * grid.points) + 0.3 * rng.standard_normal(n)
        squares = np.cumsum(compute_fpc(X).eigenvalues ** 2)
        assert squares[0] < 0.95 * squares[-1] <= squares[1]  # j_n = 2 at r = 0.95
        extremes = [FunctionalSample(grid=grid, data=2.0**power * X.data)
                    for power in (-300, 300)]
        for gof in (flm_gof, simple_gof):
            for sampler in ("i", "ii"):
                for kind in STAT_KINDS:
                    options = {"K": 3, "B": 100, "kind": kind, "sampler": sampler,
                               "seed": n}
                    base = gof(X, y, **options)
                    for scaled in extremes:
                        report = gof(scaled, y, **options)
                        assert report.settings == base.settings  # the rank among them
                        assert report.p_fdr == base.p_fdr
                        assert [rec.pvalue for rec in report.per_projection] == [
                            rec.pvalue for rec in base.per_projection
                        ]


# ------------------------------------------------------------ composite tests


def noisy_case(n=60, seed=30):
    sample = centered_bm_sample(n, num_points=51, seed=seed)
    basis = compute_fpc(sample)
    rng = np.random.default_rng(seed + 1)
    y = basis.scores[:, 0] - 0.5 * basis.scores[:, 1] + 0.3 * rng.standard_normal(n)
    return sample, y


def test_flm_report_is_deterministic():
    sample, y = noisy_case()
    report = flm_gof(sample, y, K=4, B=150, seed=5)
    again = flm_gof(sample, y, K=4, B=150, seed=5)
    assert report.to_dict() == again.to_dict()
    assert report.p_fdr == fdr_combine([rec.pvalue for rec in report.per_projection])
    assert len(report.per_projection) == 4
    for rec in report.per_projection:
        assert 0.0 <= rec.pvalue <= 1.0
        assert rec.statistic >= 0.0
    expected_keys = {"K", "B", "stat", "rank", "r", "sampler", "seed",
                     "positive_correction"}
    assert set(report.settings) == expected_keys
    assert report.settings["seed"] == 5
    assert report.settings["stat"] == "cvm"
    assert isinstance(report.settings["rank"], int)


def test_flm_seed_matters_and_seedsequence_accepted():
    sample, y = noisy_case(seed=31)
    a = flm_gof(sample, y, K=3, B=100, seed=0)
    b = flm_gof(sample, y, K=3, B=100, seed=1)
    assert a.to_dict() != b.to_dict()
    c = flm_gof(sample, y, K=3, B=100, seed=np.random.SeedSequence(0))
    assert c.p_fdr == a.p_fdr
    assert c.per_projection == a.per_projection
    assert c.settings["seed"] is None


def test_seedsequence_reused_gives_identical_reports():
    sample, y = noisy_case(seed=38)
    root = np.random.SeedSequence(21, spawn_key=(1,))
    for gof in (flm_gof, simple_gof):
        first = gof(sample, y, K=3, B=60, seed=root)
        second = gof(sample, y, K=3, B=60, seed=root)
        assert second.to_dict() == first.to_dict()
        assert root.n_children_spawned == 0
    assert first.to_dict() == simple_gof(
        sample, y, K=3, B=60, seed=np.random.SeedSequence(21, spawn_key=(1,))
    ).to_dict()
    # a SeedSequence that has spawned already gives the streams of the
    # children its next spawn(2) would make, and stays as it was
    spawned = np.random.SeedSequence(21, spawn_key=(1,))
    spawned.spawn(3)
    twin = np.random.SeedSequence(21, spawn_key=(1,), n_children_spawned=3)
    for stream, child in zip(rptest._streams(_Settings(seed=spawned)), twin.spawn(2)):
        assert np.array_equal(stream.random(8), philox(child).random(8))
    first = flm_gof(sample, y, K=3, B=60, seed=spawned)
    assert flm_gof(sample, y, K=3, B=60, seed=spawned).to_dict() == first.to_dict()
    assert spawned.n_children_spawned == 3


def test_streamed_bootstrap_matches_one_shot_reference():
    """Block-streamed replicates against one (B, n) draw and literal norms."""
    n, B, K, seed = 270, 1000, 2, 61
    assert B > 2 * (BOOTSTRAP_BLOCK // n)  # at least three blocks
    distinct = centered_bm_sample(40, num_points=31, seed=60)
    rng = np.random.default_rng(62)
    curves = distinct.data[rng.integers(0, 40, n)]  # tied curves
    sample = center(FunctionalSample(grid=distinct.grid, data=curves))
    basis, curve_scale, root_weighted = direction_inputs(sample)
    truth = basis.scores[:, 0]  # both nulls hold, so p-values are interior
    y = truth + 0.3 * rng.standard_normal(n)
    y_centered = y - y.mean()

    direction_child, multiplier_child = np.random.SeedSequence(seed).spawn(2)
    direction_rng = philox(direction_child)
    inputs = (curve_scale, root_weighted, basis, _Settings(), direction_rng)
    projections = [
        _draw_nondegenerate_direction(*inputs, draw) for draw in range(1, K + 1)
    ]
    assert all(np.unique(p).size < n for p in projections)
    multipliers = golden_multipliers(philox(multiplier_child), (B, n))

    rank = flm_gof(sample, y, K=K, B=B, seed=seed).settings["rank"]
    fit = estimate_rho(y_centered, basis, rank)
    nulls = (
        (flm_gof, {}, fit.residuals,
         _replay_residuals(fit, multipliers * fit.residuals)),
        (simple_gof, {"m0": truth}, y - truth, multipliers * (y - truth)),
    )
    for gof, extra, marks, replicates in nulls:
        reports = [
            gof(sample, y, K=K, B=B, kind=kind, seed=seed, **extra)
            for kind in STAT_KINDS
        ]
        for k, proj in enumerate(projections):
            observed = brute_process_norms(proj, marks)
            norms = np.array([brute_process_norms(proj, row) for row in replicates])
            for column, report in enumerate(reports):
                rec = report.per_projection[k]
                count = np.count_nonzero(norms[:, column] >= observed[column])
                assert rec.statistic == pytest.approx(observed[column], rel=1e-12)
                assert rec.pvalue == count / B
                assert 0 < count < B


# ------------------------------------------------------- split bootstrap

# At n=51 a bootstrap block of 51 * 90 values holds 90 replicates, so B=819
# draws ten blocks. Two shares then start at replicate 450, three at 270
# and 540: start * n is not a multiple of four there, so those shares start
# inside a Philox counter step.
SPLIT_N, SPLIT_B, SPLIT_BLOCK = 51, 819, 51 * 90


def split_cases():
    """(test, sample, response, extra arguments): both nulls, plain and tied."""
    plain = centered_bm_sample(SPLIT_N, num_points=31, seed=70)
    rng = philox(71)
    tied = center(
        FunctionalSample(grid=plain.grid, data=plain.data[rng.integers(0, 17, SPLIT_N)])
    )
    for sample in (plain, tied):
        y = sample.data[:, 10] + 0.5 * rng.standard_normal(SPLIT_N)
        yield flm_gof, sample, y, {}
        yield simple_gof, sample, y, {"m0": sample.data[:, 10]}


@pytest.fixture
def forks(monkeypatch):
    """Split every bootstrap of SPLIT_B replicates into ten blocks whatever
    its size; record the pid of every fork."""
    monkeypatch.setattr(rptest, "BOOTSTRAP_BLOCK", SPLIT_BLOCK)
    monkeypatch.setattr(rptest, "SPLIT_MIN_VALUES", 0)
    pids = []
    fork = os.fork

    def recording_fork():
        pid = fork()
        if pid:
            pids.append(pid)
        return pid

    monkeypatch.setattr(os, "fork", recording_fork)
    return pids


def split_reports(monkeypatch, forks, cases, cpus_list=(1, 2, 3)):
    """{cpus: [report JSON per case and kind]}, checking the forks per call."""
    reports = {}
    for cpus in cpus_list:
        monkeypatch.setattr(forking, "_usable_cpus", lambda: cpus)
        reports[cpus] = []
        for gof, sample, y, extra in cases:
            for kind in STAT_KINDS:
                forks.clear()
                report = gof(sample, y, K=3, B=SPLIT_B, kind=kind, seed=5, **extra)
                assert len(forks) == cpus - 1
                reports[cpus].append(json.dumps(report.to_dict()))
    return reports


def test_advanced_stream_lands_on_any_value():
    rng = philox(np.random.SeedSequence(9))
    state = rng.bit_generator.state
    draws = rng.random(700)
    for skip in (0, 1, 2, 3, 4, 5, 8, 13, 100, 411):
        rptest._seek(rng, state, skip)
        assert np.array_equal(rng.random(200), draws[skip : skip + 200])


def test_block_counts_add_up_in_any_order(monkeypatch):
    """The counts of a bootstrap's blocks, summed in shuffled order, are the
    counts its report holds."""
    monkeypatch.setattr(rptest, "BOOTSTRAP_BLOCK", SPLIT_BLOCK)
    block_exceedances = rptest._block_exceedances
    calls = []

    def recording(*args):
        calls.append(args)
        return block_exceedances(*args)

    monkeypatch.setattr(rptest, "_block_exceedances", recording)
    shuffle = philox(72)
    for gof, sample, y, extra in list(split_cases())[:2]:
        for kind in STAT_KINDS:
            calls.clear()
            report = gof(sample, y, K=3, B=SPLIT_B, kind=kind, seed=5, **extra)
            assert len(calls) == 10
            assert sum(width for *_, (start, width) in calls) == SPLIT_B
            counts = sum(
                block_exceedances(*calls[i]) for i in shuffle.permutation(len(calls))
            )
            pvalues = [rec.pvalue for rec in report.per_projection]
            assert pvalues == list(counts[0] / SPLIT_B)
            assert 0 < min(pvalues) and max(pvalues) < 1


def test_split_bootstrap_reports_equal_the_serial_ones(forks, monkeypatch):
    blocks = list(rptest._block_widths(_Settings(B=SPLIT_B), SPLIT_N, False))
    assert len(blocks) == 10
    for workers in (2, 3):
        cuts = [len(blocks) * j // workers for j in range(1, workers)]
        assert any(blocks[cut][0] * SPLIT_N % 4 for cut in cuts)
    get_num_threads = forking._openblas_function("get_num_threads")
    before = get_num_threads and get_num_threads()
    reports = split_reports(monkeypatch, forks, list(split_cases()))
    assert reports[2] == reports[1] and reports[3] == reports[1]
    pvalues = [rec["p"] for text in reports[1] for rec in json.loads(text)["per_projection"]]
    assert 0 < min(pvalues) and max(pvalues) < 1  # counts inside every share
    assert get_num_threads is None or get_num_threads() == before


def test_split_bootstrap_counts_only_from_the_threshold(forks, monkeypatch):
    gof, sample, y, _ = next(split_cases())
    monkeypatch.setattr(forking, "_usable_cpus", lambda: 2)
    monkeypatch.setattr(rptest, "SPLIT_MIN_VALUES", SPLIT_N * SPLIT_B + 1)
    below = gof(sample, y, K=3, B=SPLIT_B, seed=5)
    assert forks == []
    monkeypatch.setattr(rptest, "SPLIT_MIN_VALUES", SPLIT_N * SPLIT_B)
    assert gof(sample, y, K=3, B=SPLIT_B, seed=5).to_dict() == below.to_dict()
    assert len(forks) == 1


def test_study_trials_and_stopping_bootstraps_never_fork(forks, monkeypatch):
    _, sample, y, _ = next(split_cases())
    monkeypatch.setattr(forking, "_usable_cpus", lambda: 2)
    flm_reports(sample, [y], K=3, B=SPLIT_B, seed=5, stop_above=0.1)
    flm_reports(sample, [y], K=3, B=SPLIT_B, seed=5, stop_above=1.5)
    run_study([1], [0, 1], [SPLIT_N], M=2, K=3, B=SPLIT_B, seed=5)
    assert forks == []


def test_split_bootstrap_is_serial_where_the_platform_cannot_fork(forks, monkeypatch):
    cases = list(split_cases())[:2]
    serial = split_reports(monkeypatch, forks, cases, cpus_list=(1,))[1]
    monkeypatch.setattr(sys, "platform", "darwin")
    monkeypatch.setattr(forking, "_usable_cpus", lambda: 2)
    assert not forking.fork_supported()
    reports = [
        json.dumps(gof(sample, y, K=3, B=SPLIT_B, kind=kind, seed=5, **extra).to_dict())
        for gof, sample, y, extra in cases
        for kind in STAT_KINDS
    ]
    assert reports == serial and forks == []


def test_killed_child_share_reruns_here(forks, monkeypatch):
    cases = list(split_cases())[:2]
    serial = split_reports(monkeypatch, forks, cases, cpus_list=(1,))[1]
    caller, drawn, blocks_here, seeks_here = os.getpid(), [], [], []

    def dying(rng, size):
        # a child dies at its second block, after delivering its first
        if os.getpid() != caller:
            drawn.append(size)
            if len(drawn) == 2:
                os.kill(os.getpid(), signal.SIGKILL)
        else:
            blocks_here.append(size)
        return golden_multipliers(rng, size)

    seek = rptest._seek

    def recording_seek(rng, state, skip):
        if os.getpid() == caller:
            seeks_here.append(skip)
        return seek(rng, state, skip)

    monkeypatch.setattr(rptest, "golden_multipliers", dying)
    monkeypatch.setattr(rptest, "_seek", recording_seek)
    reports = split_reports(monkeypatch, forks, cases, cpus_list=(2, 3))
    assert reports[2] == serial and reports[3] == serial
    # of ten blocks, this process runs its own and each dead child's after the
    # one the child delivered: 5 + 4 at two workers, 4 + 2 + 2 at three
    calls = len(cases) * len(STAT_KINDS)
    assert len(blocks_here) == calls * (9 + 8) == 68 and drawn == []
    # it draws block 0 where the fresh stream stands and seeks its next
    # block, after a gap; from the dead child's block on it runs every
    # block in order, each where the last one left the stream: block 2 and
    # 3..9 at two workers, 3 and 4..9 at three (a block is SPLIT_BLOCK
    # values of the stream)
    assert seeks_here == [2 * SPLIT_BLOCK] * calls + [3 * SPLIT_BLOCK] * calls


# ------------------------------------------------------- several responses


def side_by_side_case(n, directions, tied, seed):
    """A (K, n) array of projections, every other direction tied if `tied`."""
    projections = philox(seed).standard_normal((directions, n))
    if tied:
        projections[::2] = np.round(projections[::2], 1)
    return projections


def norms_by_branch(record, columns, kind, monkeypatch):
    """{branch: `record`'s norms of `columns`} with each cumulation of the
    kernel forced, row adds and column cumsums, both on one group of every
    distinct row and on one-row groups, by moving SIDE_BY_SIDE_MIN_ROW and
    BOOTSTRAP_BLOCK to the borders of the rule."""
    per_row = record.n * columns[0].size  # gathered values of one row
    norms = {}
    with monkeypatch.context() as patch:
        for groups, rows in ("whole", len(record.order)), ("one_row", 1):
            patch.setattr(rptest, "BOOTSTRAP_BLOCK", rows * per_row)
            width = rows * columns[0].size
            patch.setattr(rptest, "SIDE_BY_SIDE_MIN_ROW", width)
            norms[f"{groups}_row_adds"] = record.norms(columns, kind)
            patch.setattr(rptest, "SIDE_BY_SIDE_MIN_ROW", width + 1)
            norms[f"{groups}_cumsum"] = record.norms(columns, kind)
    return norms


class KernelCalls:
    """Spies on the norm kernel: the shapes that `_scratch` hands out, the
    (sums shape, slice) of each `_reduce` call and the number of np.cumsum
    calls, which is the number of groups cumulated by column."""

    def __init__(self, monkeypatch):
        self.scratch, self.reduced, self.cumsums = [], [], 0
        scratch, reduce, cumsum = rptest._scratch, _SortedProjections._reduce, np.cumsum

        def scratch_spy(shape):
            self.scratch.append(shape)
            return scratch(shape)

        def reduce_spy(record, sums, directions, kind):
            self.reduced.append((sums.shape, directions))
            return reduce(record, sums, directions, kind)

        def cumsum_spy(*args, **kwargs):
            self.cumsums += 1
            return cumsum(*args, **kwargs)

        monkeypatch.setattr(rptest, "_scratch", scratch_spy)
        monkeypatch.setattr(_SortedProjections, "_reduce", reduce_spy)
        monkeypatch.setattr(np, "cumsum", cumsum_spy)

    def clear(self):
        self.scratch, self.reduced, self.cumsums = [], [], 0

    def assert_groups(self, n, shape, groups, cumsums):
        """One gather into `_scratch` and one `_reduce` per group of the
        consecutive sizes `groups`, each (n, size, *shape), and `cumsums`
        of the groups cumulated by column."""
        firsts = [sum(groups[:index]) for index in range(len(groups))]
        assert self.scratch == [(n, size, *shape) for size in groups]
        assert self.reduced == [((n, size, *shape), slice(first, first + size))
                                for first, size in zip(firsts, groups)]
        assert self.cumsums == cumsums


def assert_equals_single_records(projections, columns, monkeypatch):
    """A record of K directions gives, bit for bit and through either branch,
    the norms of K one-row records."""
    record = _SortedProjections(projections)
    singles = [_SortedProjections(vector[None]) for vector in projections]
    assert_block_ends(record, projections)
    for single, vector in zip(singles, projections):
        assert_block_ends(single, vector[None])
    for kind in STAT_KINDS:
        expected = np.concatenate([single.norms(columns, kind) for single in singles])
        norms = record.norms(columns, kind)
        assert norms.shape == (len(projections), *columns.shape[1:])
        assert np.array_equal(norms, expected)
        for branch in norms_by_branch(record, columns, kind, monkeypatch).values():
            assert np.array_equal(branch, expected)


@pytest.mark.parametrize("tied", [False, True])
@pytest.mark.parametrize("levels, width", [
    # K=5, n=50: rows of 310 and 320 values, either side of the row width,
    # and 131,000 and 132,000 gathered values, either side of the budget;
    # an odd width as an odd B leaves it
    (1, 62), (1, 64), (2, 262), (2, 264), (3, 37),
])
def test_side_by_side_kernel_equals_the_per_direction_kernel(tied, levels, width,
                                                             monkeypatch):
    n, K = 50, 5
    projections = side_by_side_case(n, K, tied, seed=levels * width)
    columns = philox(width).standard_normal((n, levels, width))
    # (n, L, b) blocks, the same values as one level of L * b columns, and
    # one vector
    for marks in (columns, columns.reshape(n, 1, -1), columns[:, :1, :1]):
        assert_equals_single_records(projections, marks, monkeypatch)
    assert any(block_ends(row).size < n for row in projections) == tied
    record = _SortedProjections(projections)
    for kind in STAT_KINDS:
        norms = record.norms(columns, kind)
        for level in range(levels):
            # each level's contiguous (n, 1, b) block, as a single response has it
            single = record.norms(np.ascontiguousarray(columns[:, [level]]), kind)[:, 0]
            assert np.array_equal(norms[:, level], single)


@pytest.mark.parametrize("tied", [False, True])
@pytest.mark.parametrize("n, K, shape", [
    # one vector per direction: rows of 319 and 320 values, and 130,880 and
    # 131,200 gathered values
    (50, 319, (1, 1)), (409, 320, (1, 1)), (410, 320, (1, 1)),
    # one replicate per level, as the odd last block of an odd B has it
    (50, 5, (3, 1)), (50, 5, (70, 1)), (50, 320, (2, 1)),
])
def test_records_of_many_directions_or_one_replicate(tied, n, K, shape, monkeypatch):
    projections = side_by_side_case(n, K, tied, seed=n + K)
    columns = philox(K).standard_normal((n, *shape))
    assert_equals_single_records(projections, columns, monkeypatch)
    record = _SortedProjections(projections)
    for kind in STAT_KINDS:
        norms = record.norms(columns, kind)
        for level in range(shape[0]):
            single = record.norms(np.ascontiguousarray(columns[:, [level]]), kind)[:, 0]
            assert np.array_equal(norms[:, level], single)


def test_block_routine_stacks_within_the_row_width_and_the_budget(monkeypatch):
    # the kernel gathers the d distinct rows of the K directions side by side
    # into this thread's scratch array, in groups of as many rows as fit in
    # BOOTSTRAP_BLOCK values (at least one), and cumulates a group with one
    # np.add per row exactly where its rows are SIDE_BY_SIDE_MIN_ROW wide or
    # more; cases are (levels, width, group sizes, groups by np.cumsum)
    calls = KernelCalls(monkeypatch)
    assert (rptest.SIDE_BY_SIDE_MIN_ROW, BOOTSTRAP_BLOCK) == (320, 2**17)
    cases = {
        # sampler "iii": K distinct rows. K=5, n=50: rows of 310 and 320
        # values; 131,000, 132,000, 96,000 and 183,000 gathered values
        (5, 50, "iii", 5): [((0,), 62, [5], 1), ((0,), 64, [5], 0),
                            ((0, 1), 262, [5], 0), ((0, 2), 264, [4, 1], 0),
                            ((0, 1, 2), 128, [5], 0), ((0, 1, 2), 244, [3, 2], 0)],
        # K=4, n=64: exactly 2**17 gathered values, and 512 more
        (4, 64, "iii", 4): [((0,), 512, [4], 0), ((0,), 514, [3, 1], 0)],
        # sampler "i" at j_n = 1: two distinct rows, one per sign. K=5,
        # n=50: rows of 316, 318 and 320 values; 130,800, 131,200, 130,800
        # and 131,400 gathered values
        (5, 50, "i", 2): [((0,), 158, [2], 1), ((0,), 159, [2], 1), ((0,), 160, [2], 0),
                          ((0, 1), 654, [2], 0), ((0, 2), 656, [1, 1], 0),
                          ((0, 1, 2), 436, [2], 0), ((0, 1, 2), 438, [1, 1], 0)],
        # K=4, n=64: exactly 2**17 gathered values, and 256 more
        (4, 64, "i", 2): [((0,), 1024, [2], 0), ((0,), 1026, [1, 1], 0)],
    }
    for (K, n, sampler, distinct), blocks in cases.items():
        prepared = rptest._prepare(centered_bm_sample(n, num_points=31, seed=2),
                                   _Settings(K=K, B=1000, sampler=sampler, seed=0))
        assert len(prepared.directions.order) == distinct
        marks = list(philox(3).standard_normal((3, n)))
        observed = np.zeros((3, K))
        for levels, width, groups, cumsums in blocks:
            calls.clear()
            counts = rptest._block_exceedances(prepared, marks, None, observed,
                                               list(levels), (0, width))
            assert counts.shape == (len(levels), K)
            calls.assert_groups(n, (len(levels), width), groups, cumsums)
    # the same rule for one vector and for one block of b columns, for a
    # one-row record and for five directions that share one row: 130,880
    # and 131,200 gathered values at 320 directions of one vector
    for projections, columns, groups, cumsums in [
        (side_by_side_case(409, 320, False, 0), np.zeros((409, 1, 1)), [320], 0),
        (side_by_side_case(410, 320, False, 0), np.zeros((410, 1, 1)), [319, 1], 2),
        (side_by_side_case(50, 319, False, 0), np.zeros((50, 1, 1)), [319], 1),
        (side_by_side_case(50, 5, False, 0), np.zeros((50, 1, 64)), [5], 0),
        (side_by_side_case(50, 5, False, 0), np.zeros((50, 1, 62)), [5], 1),
        (np.arange(50.0)[None], np.zeros((50, 1, 320)), [1], 0),
        (np.arange(50.0)[None], np.zeros((50, 1, 319)), [1], 1),
        (np.tile(np.arange(50.0), (5, 1)), np.zeros((50, 1, 64)), [1], 1),
        (np.tile(np.arange(50.0), (5, 1)), np.zeros((50, 1, 320)), [1], 0),
    ]:
        calls.clear()
        _SortedProjections(projections).norms(columns, "cvm")
        calls.assert_groups(len(columns), columns.shape[1:], groups, cumsums)


@pytest.mark.parametrize("tied", [False, True])
def test_repeated_rows_are_scored_once(tied, monkeypatch):
    # directions with equal (order, weights) rows share one row of the record:
    # rows a, b, c, a again, a scaled by 2 (the same order and ties, as c * phi_1
    # gives for every c > 0), b again and a reversed, which is a row of its own
    n, width = 40, 16
    a, b, c = side_by_side_case(n, 3, tied, seed=11)
    projections = np.array([a, b, c, a, 2.0 * a, b, -a])
    record = _SortedProjections(projections)
    assert record.inverse.tolist() == [0, 1, 2, 0, 0, 1, 3]
    assert record.order.shape == record.weights.shape == (4, n)
    assert np.array_equal(record.order[record.inverse],
                          np.argsort(projections, axis=1, kind="stable"))
    assert_block_ends(record, projections)
    singles = [_SortedProjections(vector[None]) for vector in projections]
    columns = philox(12).standard_normal((n, 2, width))
    calls = KernelCalls(monkeypatch)
    for kind in STAT_KINDS:
        expected = np.concatenate([single.norms(columns, kind) for single in singles])
        calls.clear()
        branches = norms_by_branch(record, columns, kind, monkeypatch)
        # each distinct row is gathered and cumulated once: as one
        # (n, 4, L, b) group by row adds and by cumsum, then in one-row
        # groups by row adds and by cumsum
        whole = [((n, 4, 2, width), slice(0, 4))]
        one_row = [((n, 1, 2, width), slice(k, k + 1)) for k in range(4)]
        assert calls.reduced == 2 * whole + 2 * one_row
        assert calls.cumsums == 1 + 4
        assert list(branches) == ["whole_row_adds", "whole_cumsum",
                                  "one_row_row_adds", "one_row_cumsum"]
        for norms in branches.values():
            assert norms.shape == (7, 2, width)
            assert np.array_equal(norms, expected)


@pytest.mark.parametrize("tied", [False, True])
@pytest.mark.parametrize("n, levels, width, groups, cumsums", [
    # two rows of 50 * 1,000 values per group of the 2**17 budget, every
    # group by row adds
    (50, 2, 500, [2, 2, 1], 0),
    # two rows of 256 * 200 values per group: groups of 400-value rows by
    # row adds, the last group's 200-value rows by cumsum
    (256, 1, 200, [2, 2, 1], 1),
    # one row's (n, L, b) block, 150,000 values, is over the budget on its own
    (50, 3, 1000, [1] * 5, 0),
])
def test_a_partial_last_group_equals_one_row_records(tied, n, levels, width, groups,
                                                    cumsums, monkeypatch):
    projections = side_by_side_case(n, 5, tied, seed=n + width)
    record = _SortedProjections(projections)
    assert len(record.order) == 5
    singles = [_SortedProjections(vector[None]) for vector in projections]
    columns = philox(width).standard_normal((n, levels, width))
    # a fresh thread-local buffer, so its growth past the budget shows
    monkeypatch.setattr(rptest, "_scratch_arrays", rptest.threading.local())
    calls = KernelCalls(monkeypatch)
    for kind in STAT_KINDS:
        expected = np.concatenate([single.norms(columns, kind) for single in singles])
        calls.clear()
        norms = record.norms(columns, kind)
        calls.assert_groups(n, (levels, width), groups, cumsums)
        assert np.array_equal(norms, expected)
    # the buffer holds BOOTSTRAP_BLOCK values, or one row past the budget
    assert rptest._scratch_arrays.gathered.size == max(BOOTSTRAP_BLOCK, n * levels * width)


def test_data_driven_directions_on_one_eigenfunction_share_rows():
    # at r = 0.95 on Brownian curves j_n = 1, so sampler "i" and "ii"
    # directions are c * phi_1, one sort order per sign of c; an
    # Ornstein-Uhlenbeck direction of sampler "iii" is drawn apart from the data
    sample = centered_bm_sample(100, num_points=51, seed=4)
    for sampler, rows in (("i", range(1, 5)), ("ii", range(1, 5)), ("iii", [5])):
        directions = rptest._prepare(sample, _Settings(K=5, sampler=sampler, seed=1)).directions
        assert len(directions.order) in rows and len(directions.inverse) == 5


@pytest.mark.parametrize("kind", STAT_KINDS)
def test_a_levels_norms_do_not_depend_on_the_levels_beside_it(kind, monkeypatch):
    n, K, width = 40, 4, 90
    record = _SortedProjections(side_by_side_case(n, K, tied=True, seed=8))
    columns = philox(9).standard_normal((n, 3, width))
    alone = [record.norms(np.ascontiguousarray(columns[:, [level]]), kind)[:, 0]
             for level in range(3)]
    for levels in ([0, 1, 2], [2, 0], [1, 2], [0, 0, 1]):
        together = np.ascontiguousarray(columns[:, levels])
        for norms in norms_by_branch(record, together, kind, monkeypatch).values():
            for column, level in enumerate(levels):
                assert np.array_equal(norms[:, column], alone[level])


def several_responses(n, levels, tied, seed):
    """A sample on 31 grid points and `levels` responses to it, from a
    linear null to a quadratic alternative; tied samples hold every curve
    twice."""
    grid = uniform_grid(31)
    rng = philox(seed)
    curves = gen_process("bm", (n + 1) // 2 if tied else n, grid, rng).data
    if tied:
        curves = np.vstack([curves, curves])[:n]
    X = FunctionalSample(grid=grid, data=curves)
    signal = X.data @ (grid.weights * np.sin(2.0 * np.pi * grid.points))
    noise = rng.standard_normal((levels, n))
    strength = np.arange(levels)[:, None]
    return X, signal + 0.3 * noise + strength * signal**2


@settings(max_examples=40, deadline=None)
@given(
    st.integers(0, 2**32 - 1),
    st.integers(8, 100),
    st.integers(1, 3),
    st.sampled_from(STAT_KINDS),
    st.booleans(),
    st.sampled_from(("i", "iii")),
    st.sampled_from((15, 99, 200)),
)
def test_several_responses_equal_single_response_calls(seed, n, levels, kind, tied,
                                                       sampler, B):
    # one bootstrap for every response gives each response's own report
    # byte for byte: with ties (KS block ends, CvM tie weights), with an odd
    # B's odd last block, on both sides of the row width (B=15 gives rows
    # of K * L * 15 <= 135 values) and of the budget (n * K * L * B
    # reaches 180,000 values)
    X, Y = several_responses(n, levels, tied, seed)
    options = dict(K=3, B=B, kind=kind, sampler=sampler, seed=seed)
    reports = flm_reports(X, Y, **options)
    assert isinstance(reports, list) and len(reports) == levels
    singles = [flm_gof(X, y, **options) for y in Y]
    assert [json.dumps(report.to_dict()) for report in reports] == [
        json.dumps(report.to_dict()) for report in singles
    ]


def test_kernel_path_responses_of_other_ranks_equal_single_calls(monkeypatch):
    # n > G, and the two levels choose SICc ranks 1 and 4: the shared basis
    # keeps 4 score columns and each level's own call 1 or 4, so each
    # column must have the same bits whatever the number kept, and each
    # level's fit the same layout
    grid = uniform_grid(31)
    X = gen_process("bm", 150, grid, philox(21))
    basis = compute_fpc(X)
    unit_scores = basis.scores / np.sqrt(basis.eigenvalues)
    noise = philox(22).standard_normal((2, X.n))
    Y = [unit_scores[:, 0] + 0.5 * noise[0], unit_scores[:, :4].sum(axis=1) + 0.1 * noise[1]]
    kept = []
    make_basis = rptest._leading

    def recording(*args):
        trimmed = make_basis(*args)
        kept.append(trimmed.m)
        return trimmed

    monkeypatch.setattr(rptest, "_leading", recording)
    for kind in STAT_KINDS:
        for sampler in ("i", "iii"):
            options = dict(K=3, B=200, kind=kind, sampler=sampler, seed=5)
            kept.clear()
            reports = flm_reports(X, Y, **options)
            singles = [flm_gof(X, y, **options) for y in Y]
            assert kept == [4, 1, 4]
            assert [report.settings["rank"] for report in reports] == [1, 4]
            assert [json.dumps(report.to_dict()) for report in reports] == [
                json.dumps(report.to_dict()) for report in singles
            ]


def test_responses_stop_after_their_own_blocks(monkeypatch):
    # with stop_above each response's bootstrap stops after its own block
    # (128, 256 or all 500 replicates), and every report equals the
    # single-response call's; the others go on without it
    replay = rptest._replay_residuals
    replayed = {}

    def counting(fit, perturbed):
        replayed.setdefault(id(fit), [fit, 0])[1] += len(perturbed)
        return replay(fit, perturbed)

    monkeypatch.setattr(rptest, "_replay_residuals", counting)
    spec = scenario(7)
    stops, mixed = set(), 0
    for trial in range(8):
        rng = philox((7, trial))
        X = gen_process(spec.process, 50, spec.grid, rng)
        Y = [gen_response(spec, X, d, rng) for d in (0, 1, 2, 0)]
        for kind in STAT_KINDS:
            options = dict(K=5, B=500, kind=kind, seed=trial, stop_above=0.1)
            replayed.clear()
            reports = flm_reports(X, Y, **options)
            per_level = [replicates for _, replicates in replayed.values()]
            assert len(per_level) == len(Y)
            stops.update(per_level)
            mixed += len(set(per_level)) > 1
            for report, y in zip(reports, Y):
                [single] = flm_reports(X, [y], **options)
                assert report.to_dict() == single.to_dict()
    assert stops == {128, 256, 500} and mixed > 0


def test_one_draw_serves_every_response_and_no_serial_block_seeks(monkeypatch):
    # every block draws its multipliers once for all responses, and a serial
    # bootstrap never seeks: its first block starts where the fresh stream
    # stands, and each other where the block before it left the stream
    drawn, seeks = [], []

    def recording(rng, size):
        drawn.append(size)
        return golden_multipliers(rng, size)

    seek = rptest._seek

    def recording_seek(rng, state, skip):
        seeks.append(skip)
        return seek(rng, state, skip)

    monkeypatch.setattr(rptest, "golden_multipliers", recording)
    monkeypatch.setattr(rptest, "_seek", recording_seek)
    X, Y = several_responses(200, 3, tied=False, seed=4)
    for gof, responses in ((flm_reports, Y), (flm_gof, Y[0]), (simple_gof, Y[0])):
        drawn.clear()
        seeks.clear()
        gof(X, responses, K=2, B=1000, seed=0)
        assert drawn == [(654, 200), (346, 200)] and seeks == []


def test_several_responses_are_checked_one_by_one():
    X, Y = several_responses(30, 2, tied=False, seed=6)
    assert len(flm_reports(X, Y[:1], K=2, B=20, seed=0)) == 1
    bad_rows = (np.empty((0, 30)), Y[:, :-1], np.r_[Y, [[np.nan] * 30]])
    for bad in bad_rows:
        with pytest.raises(ValueError):
            flm_reports(X, bad, K=2, B=20, seed=0)
    with pytest.raises(ValueError):
        simple_gof(X, Y, K=2, B=20, seed=0)  # one response only


def test_flm_takes_one_response_and_gives_one_report():
    # several responses share a bootstrap only through the private entry;
    # the public functions take no private keyword
    X, Y = several_responses(30, 2, tied=False, seed=6)
    assert isinstance(flm_gof(X, Y[0], K=2, B=20, seed=0), rptest.TestReport)
    with pytest.raises(ValueError):
        flm_gof(X, Y, K=2, B=20, seed=0)
    for name in flmgof.__all__:
        public = getattr(flmgof, name)
        if inspect.isfunction(public):
            assert not [p for p in inspect.signature(public).parameters if p.startswith("_")]


def test_flm_centers_the_sample_it_is_given():
    sample, y = noisy_case(seed=33)
    raw = FunctionalSample(
        grid=sample.grid, data=sample.data + 2.0 * np.cos(sample.grid.points)
    )
    for kind in STAT_KINDS:
        report = flm_gof(raw, y, K=3, B=200, kind=kind, seed=4)
        centered = flm_gof(center(raw), y, K=3, B=200, kind=kind, seed=4)
        assert report.p_fdr == centered.p_fdr
        assert report.settings == centered.settings
        for rec, ref in zip(report.per_projection, centered.per_projection):
            assert rec.pvalue == ref.pvalue
            assert rec.statistic == pytest.approx(ref.statistic, rel=1e-12)


def test_flm_zero_response_never_rejects():
    sample, _ = noisy_case(seed=32)
    report = flm_gof(sample, np.zeros(sample.n), K=3, B=80, seed=0)
    assert report.p_fdr == 1.0
    assert all(rec.pvalue == 1.0 for rec in report.per_projection)


def test_wild_bootstrap_determinism_and_correction():
    sample, y = noisy_case(seed=37)
    basis = compute_fpc(sample)
    truth = basis.scores[:, 0] - 0.5 * basis.scores[:, 1]
    B = 400
    for gof, extra in ((flm_gof, {}), (simple_gof, {"m0": truth})):
        for kind in ("cvm", "ks"):
            plain = gof(sample, y, K=4, B=B, kind=kind, seed=9, **extra)
            again = gof(sample, y, K=4, B=B, kind=kind, seed=9, **extra)
            assert again.to_dict() == plain.to_dict()
            assert any(0.0 < rec.pvalue < 1.0 for rec in plain.per_projection)
            corrected = gof(
                sample, y, K=4, B=B, kind=kind, seed=9, positive_correction=True,
                **extra,
            )
            assert corrected.settings["positive_correction"] is True
            for rec, rec_c in zip(plain.per_projection, corrected.per_projection):
                assert rec_c.statistic == rec.statistic
                assert rec_c.pvalue == pytest.approx(
                    (rec.pvalue * B + 1) / (B + 1), abs=1e-12
                )


def test_flm_rank_override():
    sample, y = noisy_case(seed=33)
    fixed = flm_gof(sample, y, K=3, B=100, rank=4, seed=2)
    assert fixed.settings["rank"] == 4
    repeat = flm_gof(sample, y, K=3, B=100, rank=np.int64(4), seed=2)
    assert repeat.to_dict() == fixed.to_dict()
    assert type(repeat.settings["rank"]) is int


@pytest.mark.parametrize("rank", [2.7, 4.0, np.float64(3.9), True, np.bool_(True), "4"])
def test_flm_rejects_a_rank_that_is_not_an_integer(rank):
    sample, y = noisy_case(seed=33)
    with pytest.raises(ValueError, match="rank must be an integer"):
        flm_gof(sample, y, K=3, B=100, rank=rank, seed=2)
    # the same values are refused as K and as B
    for name in ("K", "B"):
        with pytest.raises(ValueError, match=f"{name} must be a positive integer"):
            flm_gof(sample, y, **{"K": 3, "B": 100, name: rank}, seed=2)


@pytest.mark.parametrize("rank", [0, -3, np.int64(0)])
def test_flm_refuses_a_rank_below_one_at_its_entry(rank, monkeypatch):
    # before the FPC step, whose result a rank below 1 does not need
    def refuse(*args):
        raise AssertionError("the FPC step ran")

    monkeypatch.setattr(rptest, "compute_fpc", refuse)
    sample, y = noisy_case(seed=33)
    with pytest.raises(ValueError, match=r"rank must be an integer in \[1, ") as refused:
        flm_gof(sample, y, K=3, B=100, rank=rank, seed=2)
    assert str(refused.value).endswith(f"got {rank!r}")


def test_flm_refuses_a_rank_above_the_basis_before_any_direction_draw(monkeypatch):
    def refuse(*args):
        raise AssertionError("a direction was drawn")

    monkeypatch.setattr(rptest, "_draw_nondegenerate_direction", refuse)
    sample, y = noisy_case(seed=33)
    m = compute_fpc(sample).m
    with pytest.raises(ValueError, match=rf"rank must be an integer in \[1, {m}\]"):
        flm_gof(sample, y, K=3, B=100, rank=m + 1, seed=2)


def test_reports_with_numpy_settings_serialise_and_validate():
    schema = json.loads(
        importlib.resources.files("flmgof").joinpath("report_schema.json").read_text()
    )
    sample, y = noisy_case(seed=33)
    numpy_settings = dict(
        K=np.int64(3), B=np.int64(50), r=np.float32(0.9), positive_correction=np.True_
    )
    for gof in (flm_gof, simple_gof):
        report = gof(sample, y, **numpy_settings, seed=2)
        plain = gof(sample, y, K=3, B=50, r=float(np.float32(0.9)),
                    positive_correction=True, seed=2)
        assert report.to_dict() == plain.to_dict()
        record = json.loads(json.dumps(report.to_dict()))
        jsonschema.validate(record, schema)
        assert record["settings"]["r"] == float(np.float32(0.9))


@pytest.mark.parametrize("flag", ["no", 1, 0, None, np.float64(1.0)])
def test_positive_correction_must_be_a_bool(flag):
    sample, y = noisy_case(seed=33)
    for gof in (flm_gof, simple_gof):
        with pytest.raises(ValueError, match="positive_correction must be True or False"):
            gof(sample, y, K=3, B=50, seed=2, positive_correction=flag)
    with pytest.raises(ValueError, match="positive_correction must be True or False"):
        fdr_null_rejection_rate(5, 100, 0.05, positive_correction=flag)


def test_flm_rejects_quadratic_signal():
    sample = centered_bm_sample(80, num_points=51, seed=34)
    energy = np.sum(sample.data**2 * sample.grid.weights, axis=1)
    y = energy - energy.mean()
    report = flm_gof(sample, y, K=5, B=300, seed=3)
    assert report.p_fdr < 0.05


def test_flm_validation_errors():
    sample, y = noisy_case(seed=35)
    with pytest.raises(ValueError):
        flm_gof(sample.data, y)
    with pytest.raises(ValueError):
        flm_gof(sample, y[:-1])
    with pytest.raises(ValueError):
        flm_gof(sample, np.r_[y[:-1], np.nan])
    with pytest.raises(ValueError):
        flm_gof(sample, y, K=0)
    with pytest.raises(ValueError):
        flm_gof(sample, y, B=0)
    with pytest.raises(ValueError):
        flm_gof(sample, y, kind="wat")
    with pytest.raises(ValueError):
        flm_gof(sample, y, sampler="wat")
    with pytest.raises(ValueError):
        flm_gof(sample, y, rank=sample.n + 5)
    tiny = centered_bm_sample(2, num_points=11, seed=36)
    with pytest.raises(ValueError):
        flm_gof(tiny, np.zeros(2))


def test_simple_callable_and_vector_nulls_agree():
    sample, _ = noisy_case(seed=40)
    h = np.sin(np.pi * sample.grid.points)
    truth = (sample.data * sample.grid.weights) @ h
    rng = np.random.default_rng(41)
    y = truth + 0.2 * rng.standard_normal(sample.n)

    def m0(functional_sample):
        return (functional_sample.data * functional_sample.grid.weights) @ h

    via_callable = simple_gof(sample, y, m0=m0, K=3, B=120, seed=6)
    via_vector = simple_gof(sample, y, m0=truth, K=3, B=120, seed=6)
    assert via_callable.to_dict() == via_vector.to_dict()
    assert via_callable.settings["rank"] is None
    with pytest.raises(ValueError):
        simple_gof(sample, y, m0=truth[:-1], K=3, B=50, seed=0)
    # a callable's output gets the same shape check as a vector
    for bad in (lambda X: m0(X)[:, None], lambda X: 0.0):
        with pytest.raises(ValueError, match="m0 predictions"):
            simple_gof(sample, y, m0=bad, K=3, B=50, seed=0)


def test_marks_that_could_overflow_the_process_are_refused():
    # a tied direction's overflowed sum inside a tie block has weight 0, and
    # 0 * inf made its CvM norm NaN, which no replicate reaches: p_fdr read 0
    X, [y] = several_responses(40, 1, tied=True, seed=8)
    for gof in (flm_gof, simple_gof):
        for kind in STAT_KINDS:
            plain = gof(X, y, K=3, B=200, kind=kind, seed=0)
            # a power of two scales every step exactly, so within the bound
            # the p-values keep their bits
            scaled = gof(X, 2.0**500 * y, K=3, B=200, kind=kind, seed=0)
            assert [rec.pvalue for rec in scaled.per_projection] == [
                rec.pvalue for rec in plain.per_projection
            ]
            assert scaled.p_fdr == plain.p_fdr
            # the composite null's SICc refuses the response before any marks
            # exist; at a fixed rank its residuals reach the marks check
            refusal = "SICc is not finite" if gof is flm_gof else "marks must be finite"
            with pytest.raises(ValueError, match=refusal):
                gof(X, 1e200 * y, K=3, B=200, kind=kind, seed=0)
    for kind in STAT_KINDS:
        with pytest.raises(ValueError, match="marks must be finite"):
            flm_gof(X, 1e200 * y, K=3, B=200, kind=kind, rank=2, seed=0)
    with pytest.raises(ValueError, match="marks must be finite"):
        simple_gof(X, y, m0=np.full(X.n, np.nan), K=3, B=200, seed=0)


@pytest.mark.filterwarnings("error")
def test_curves_whose_squared_norms_overflow_are_refused():
    # at |X| ~ 1e160 the covariance product overflowed with two warnings, and
    # eigh then failed to converge on its inf and NaN entries. On 21 grid
    # points n = 15 takes the Gram path and n = 40 the kernel path
    grid = uniform_grid(21)
    for n in (15, 40):
        X = gen_process("bm", n, grid, philox(n))
        huge = FunctionalSample(grid=grid, data=1e160 * X.data)
        y = philox(n + 1).standard_normal(n)
        for call in (lambda: compute_fpc(huge), lambda: flm_gof(huge, y, K=2, B=20),
                     lambda: simple_gof(huge, y, K=2, B=20)):
            with pytest.raises(ValueError, match="the curves' squared norms overflow"):
                call()


def test_simple_detects_a_linear_signal():
    sample, _ = noisy_case(seed=42)
    basis = compute_fpc(sample)
    rng = np.random.default_rng(43)
    y = 3.0 * basis.scores[:, 0] + 0.1 * rng.standard_normal(sample.n)
    report = simple_gof(sample, y, K=5, B=200, seed=7)
    assert report.p_fdr < 0.05


def test_simple_null_calibration():
    grid = uniform_grid(51)
    alpha = 0.05
    trials = 400
    hits = 0
    for trial in range(trials):
        rng = np.random.Generator(np.random.Philox(np.random.SeedSequence((99, trial))))
        increments = rng.standard_normal((40, grid.size - 1)) * np.sqrt(
            np.diff(grid.points)
        )
        data = np.concatenate([np.zeros((40, 1)), np.cumsum(increments, axis=1)], axis=1)
        sample = FunctionalSample(grid=grid, data=data)
        y = rng.standard_normal(40)
        report = simple_gof(sample, y, K=5, B=200, seed=trial)
        hits += report.p_fdr <= alpha
    rate = hits / trials
    band = 3.3 * np.sqrt(alpha * (1 - alpha) / trials)
    assert rate <= alpha + band
    assert rate >= 0.005


# -------------------------------------------------------------- golden reports
# Exact values of small reports for an int and a SeedSequence seed. A change
# in the order or layout of the random draws moves these numbers.


def golden_case():
    sample = centered_bm_sample(40, num_points=51, seed=50)
    basis = compute_fpc(sample)
    truth = basis.scores[:, 0] + basis.scores[:, 0] ** 2
    y = truth + 0.3 * np.random.default_rng(51).standard_normal(40)
    return sample, y, truth


def golden_seeds():
    return 17, np.random.SeedSequence(17, spawn_key=(3,))


def check_golden(report, p_fdr, pvalues, statistics):
    assert report.p_fdr == p_fdr
    assert [rec.pvalue for rec in report.per_projection] == pvalues
    assert [rec.statistic for rec in report.per_projection] == pytest.approx(
        statistics, rel=1e-12
    )


def test_flm_golden_report():
    sample, y, _ = golden_case()
    expected = (
        (0.03, [0.02, 0.04, 0.01],
         [0.9177032712920808, 0.8424736282757931, 0.9385402930000656]),
        (0.06, [0.04, 0.1, 0.04],
         [0.9297465809897585, 0.7535311011524805, 0.8582308796735728]),
    )
    for seed, values in zip(golden_seeds(), expected):
        report = flm_gof(sample, y, K=3, B=100, r=0.999, kind="ks", seed=seed)
        assert report.settings["rank"] == 1
        check_golden(report, *values)


def test_simple_golden_report():
    sample, y, truth = golden_case()
    expected = (
        (0.75, [0.71, 0.59, 0.75],
         [0.013754958511352864, 0.019834326449496197, 0.011324556565607144]),
        (0.95, [0.72, 0.95, 0.32],
         [0.01636959812582293, 0.0052313383060525135, 0.054860674379594465]),
    )
    for seed, values in zip(golden_seeds(), expected):
        report = simple_gof(sample, y, m0=truth, K=3, B=100, r=0.999, seed=seed)
        check_golden(report, *values)


def test_nine_scenario_golden_digest():
    # sha256 of every sampler's reports on S1..S9 at d = 1, recorded when the
    # scores and projections came from X * sqrt(w) (every `test_flm`
    # statistic moved by at most 2.3e-13 relative, no p-value or rank moved);
    # the FPC step runs on one BLAS thread so the digest does not depend on
    # the host
    digest = hashlib.sha256()
    with _blas_on_one_thread():
        for index in range(1, 10):
            spec = scenario(index)
            rng = philox(index)
            X = gen_process(spec.process, 30, spec.grid, rng)
            y = gen_response(spec, X, 1, rng)
            m0 = X.data @ (spec.grid.weights * spec.rho)
            for sampler in ("i", "ii", "iii"):
                for kind in ("ks", "cvm"):
                    common = dict(K=3, B=60, kind=kind, sampler=sampler, seed=index)
                    for report in (
                        flm_gof(X, y, **common),
                        simple_gof(X, y, m0=m0, **common),
                    ):
                        text = json.dumps(report.to_dict(), sort_keys=True)
                        digest.update(text.encode())
    assert digest.hexdigest() == (
        "b910722b9beeca0774dc9b79f805fc3a2b4713d4efdfba3742c4a14f8b490da8"
    )
