"""Null size on all nine scenarios, against the exact level of one projection.

Under the null, one projection's bootstrap count is uniform on {0..B}, so
p < alpha (p = count / B) has probability ceil(alpha B) / (B + 1) exactly,
whatever the dependence between projections. The gate runs the null trials
of a study, S1..S9 at d=0 with n=50, M=500, B=500 and study seed 1, each
trial keyed as `simlab._study_trial` keys it, with a K=5 test whose
bootstrap does not stop early; its decisions p_fdr < alpha are those of
`run_study`'s trials, whose early stop is exact.

- K=1: the rate of p < alpha of the first projection, which is the K=1
  test's p-value, is checked on both sides of the exact level.
- K=5: p_fdr equals every p-value where all K are equal, and is at most
  the one-projection level under positive dependence (Simes' rule) where
  they are not. So a group of trials is checked on both sides where every
  report in it has K equal p-values, counted per group, and on the upper
  side elsewhere.

Bands are BAND_SE binomial standard errors of the exact level, for each
scenario and pooled over the nine. Cells that read outside their band today
are marked strict xfail (KNOWN_EXCESS), so a fix of the excess must flip
them.
"""

import contextlib
import functools
import math

import numpy as np
import pytest

from flmgof import forking, rptest, simlab
from flmgof.rptest import STAT_KINDS
from flmgof.simlab import ALPHAS

SCENARIOS = tuple(range(1, 10))
N, M, B, K, SEED = 50, 500, 500, 5, 1
BAND_SE = 3.0
GROUPS = ("pooled", *(f"S{index}" for index in SCENARIOS))

# (statistic, rule, group, alpha) that reads above its band at seed 1: at
# n=50 the bootstrap's mean undershoots the observed statistic's by about
# (rank + 1) / n, most on S3, whose SICc rank is the highest
KNOWN_EXCESS = {
    *((kind, rule, group, 0.1) for kind in STAT_KINDS for rule in ("K1", "K5")
      for group in ("pooled", "S3")),
    *(("ks", rule, group, 0.05) for rule in ("K1", "K5") for group in ("pooled", "S3")),
}


def null_trial(payload):
    """The K p-values and p_fdr of one null trial's full K=5 bootstrap."""
    spec, kind, trial = payload
    key = (SEED, spec.index, N, trial)
    X, responses, test_seed = simlab._trial_data(key, spec, (0,), N)
    settings = rptest._Settings(K=K, B=B, kind=kind, seed=test_seed)
    [report] = rptest._flm_reports(X, responses, settings)
    return [outcome.pvalue for outcome in report.per_projection], report.p_fdr


@functools.cache
def null_study(kind):
    """(9, M, K) p-values and (9, M) p_fdr of every null trial, in two workers."""
    specs = [simlab.scenario(index) for index in SCENARIOS]
    for spec in specs:
        spec.sigma2  # cached before the fork, as run_study does
    payloads = [(spec, kind, trial) for spec in specs for trial in range(M)]
    workers = min(2, forking._usable_cpus())
    with contextlib.closing(forking.strided_map(null_trial, payloads, workers)) as trials:
        rows = list(trials)
    pvalues = np.array([pvalues for pvalues, _ in rows]).reshape(len(SCENARIOS), M, K)
    p_fdr = np.array([p_fdr for _, p_fdr in rows]).reshape(len(SCENARIOS), M)
    return pvalues, p_fdr


def exact_level(alpha):
    """P(count / B < alpha) for a count uniform on {0..B}, as the code rounds it."""
    return np.count_nonzero(np.arange(B + 1) / B < alpha) / (B + 1)


def test_exact_levels():
    assert [exact_level(alpha) for alpha in ALPHAS] == [5 / 501, 25 / 501, 50 / 501]


def gate_cases():
    for kind in STAT_KINDS:
        for rule in ("K1", "K5"):
            for group in GROUPS:
                for alpha in ALPHAS:
                    case = (kind, rule, group, alpha)
                    marks = ()
                    if case in KNOWN_EXCESS:
                        marks = pytest.mark.xfail(strict=True, reason="null size excess")
                    yield pytest.param(*case, marks=marks, id="-".join(map(str, case)))


@pytest.mark.parametrize("kind, rule, group, alpha", gate_cases())
def test_null_size_on_nine_scenarios(kind, rule, group, alpha):
    pvalues, p_fdr = null_study(kind)
    cells = slice(None) if group == "pooled" else [int(group[1:]) - 1]
    pvalues, p_fdr = pvalues[cells], p_fdr[cells]
    if rule == "K1":
        rejected, two_sided = pvalues[..., 0] < alpha, True
    else:
        rejected = p_fdr < alpha
        two_sided = bool(np.all(pvalues == pvalues[..., :1]))
    level, rate = exact_level(alpha), float(np.mean(rejected))
    se = math.sqrt(level * (1.0 - level) / rejected.size)
    detail = f"rate {rate:.4f}, level {level:.4f}, {(rate - level) / se:+.1f} SE"
    assert rate <= level + BAND_SE * se, detail
    if two_sided:
        assert rate >= level - BAND_SE * se, detail


def test_one_projection_is_the_first_of_five():
    # the K=1 test draws the K=5 test's first direction from the same
    # stream and bootstraps it with the same multipliers, so its p-value is
    # the first of the K=5 report's, bit for bit
    for index in SCENARIOS:
        spec = simlab.scenario(index)
        for trial in range(2):
            key = (SEED, index, N, trial)
            X, responses, test_seed = simlab._trial_data(key, spec, (0,), N)
            for kind in STAT_KINDS:
                reports = [
                    rptest._flm_reports(X, responses, rptest._Settings(
                        K=count, B=B, kind=kind, seed=test_seed))[0]
                    for count in (1, K)
                ]
                one, five = (report.per_projection for report in reports)
                assert one[0].pvalue == five[0].pvalue and one[0].statistic == five[0].statistic
