"""Goodness-of-fit tests for the functional linear model with scalar response.

Residual-marked empirical processes indexed by random projections of the
functional covariate, wild-bootstrap calibration, false-discovery-rate
combination across projections, plus a Monte Carlo harness for the
simulation study.
"""

from .flm import FlmFit, estimate_rho, select_rank_sicc
from .fpc import FpcBasis, compute_fpc
from .funspace import FunctionalSample, Grid, center, make_grid, uniform_grid
from .rptest import (
    DegenerateProjectionError,
    TestReport,
    fdr_combine,
    golden_multipliers,
    sample_direction_datadriven,
    test_flm,
    test_simple,
)
from .simlab import (
    MonteCarloResult,
    ScenarioSpec,
    deviation,
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
    "MonteCarloResult",
    "ScenarioSpec",
    "TestReport",
    "DegenerateProjectionError",
    "center",
    "compute_fpc",
    "deviation",
    "estimate_rho",
    "fdr_combine",
    "gen_process",
    "gen_response",
    "golden_multipliers",
    "make_grid",
    "run_study",
    "sample_direction_datadriven",
    "scenario",
    "select_rank_sicc",
    "test_flm",
    "test_simple",
    "uniform_grid",
]
