"""Goodness-of-fit tests for the functional linear model with scalar response.

Residual-marked empirical processes indexed by random projections of the
functional covariate, wild-bootstrap calibration, false-discovery-rate
combination across projections, plus a Monte Carlo harness and closed-form
Gaussian oracles for validation.
"""

from .flm import FlmFit, estimate_rho, hat_apply, select_rank_sicc
from .fpc import FpcBasis, compute_fpc, reconstruct
from .funspace import (
    FunctionalSample,
    Grid,
    center,
    curve_norm,
    inner_product,
    make_grid,
    uniform_grid,
)
from .oracles import (
    GaussianFlmSpec,
    indicator_score_moments,
    k1_covariance,
    normal_cdf,
    normal_pdf,
    tnx_limit,
    tnx_sequence,
    tnx_truncation_bound,
)
from .rptest import (
    DegenerateProjectionError,
    Direction,
    TestReport,
    fdr_combine,
    golden_multipliers,
    process_statistic,
    project,
    sample_direction_datadriven,
    test_flm,
    test_simple,
)
from .simlab import (
    MonteCarloResult,
    ScenarioSpec,
    deviation,
    fdr_discretization_experiment,
    gen_process,
    gen_response,
    run_study,
    scenario,
)

__version__ = "0.1.0"

__all__ = [
    "FlmFit",
    "FpcBasis",
    "FunctionalSample",
    "Grid",
    "GaussianFlmSpec",
    "MonteCarloResult",
    "ScenarioSpec",
    "TestReport",
    "Direction",
    "DegenerateProjectionError",
    "center",
    "compute_fpc",
    "curve_norm",
    "deviation",
    "estimate_rho",
    "fdr_combine",
    "fdr_discretization_experiment",
    "gen_process",
    "gen_response",
    "golden_multipliers",
    "hat_apply",
    "indicator_score_moments",
    "inner_product",
    "k1_covariance",
    "normal_cdf",
    "normal_pdf",
    "make_grid",
    "process_statistic",
    "project",
    "reconstruct",
    "run_study",
    "sample_direction_datadriven",
    "scenario",
    "select_rank_sicc",
    "test_flm",
    "test_simple",
    "tnx_limit",
    "tnx_sequence",
    "tnx_truncation_bound",
    "uniform_grid",
]
