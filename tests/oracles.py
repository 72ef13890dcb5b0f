"""Closed forms for the jointly Gaussian functional linear model.

A finite spectral model: X = sum_j sqrt(lambda_j) xi_j e_j with xi_j i.i.d.
standard normal, slope rho = sum_j rho_j e_j, direction h = sum_j h_j e_j,
and independent Gaussian noise. Everything below is an explicit function of
(lambda, rho, h, sigma2_eps), which makes these values usable as ground truth
for the empirical-process machinery.

Normal cdf/pdf go through the C library's erfc, accurate to double precision,
so the oracle values are bit-stable for a given platform.

Two oracles for the null law of the FDR combination follow: the rejection
rate over every count vector, and a Monte Carlo sample of the combined
p-value. `flmgof.fdr_null_rejection_rate` is checked against both. The
module closes with the exact law of the wild bootstrap at small n, where
every multiplier vector can be enumerated.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from flmgof.funspace import _frozen
from flmgof.rptest import (
    GOLDEN_PROBS,
    GOLDEN_VALUES,
    _bootstrap_pvalues,
    _fdr_envelope,
    _replay_residuals,
    _Settings,
)

__all__ = [
    "GaussianFlmSpec",
    "normal_cdf",
    "normal_pdf",
    "k1_covariance",
    "indicator_score_moments",
    "tnx_sequence",
    "tnx_limit",
    "tnx_truncation_bound",
    "enumerated_fdr_rejection_rate",
    "simulated_fdr_combined",
    "exact_bootstrap_pvalues",
    "binomial_tails",
]

_SQRT2 = math.sqrt(2.0)
_INV_SQRT_2PI = 1.0 / math.sqrt(2.0 * math.pi)


def normal_cdf(x: float) -> float:
    """Standard normal distribution function."""
    return 0.5 * math.erfc(-float(x) / _SQRT2)


def normal_pdf(x: float) -> float:
    """Standard normal density."""
    x = float(x)
    return _INV_SQRT_2PI * math.exp(-0.5 * x * x)


@dataclass(frozen=True)
class GaussianFlmSpec:
    """Finite-spectrum Gaussian functional linear model.

    Fields
    ------
    eigenvalues : ndarray, shape (J,)
        Positive, non-increasing covariance eigenvalues.
    rho_coef : ndarray, shape (J,)
        Slope coordinates on the eigenbasis.
    h_coef : ndarray, shape (J,)
        Direction coordinates on the eigenbasis; the projected covariate
        X^h = sum_j h_j sqrt(lambda_j) xi_j must be non-degenerate.
    sigma2_eps : float
        Noise variance, non-negative.
    """

    eigenvalues: np.ndarray
    rho_coef: np.ndarray
    h_coef: np.ndarray
    sigma2_eps: float

    def __post_init__(self):
        lam = np.asarray(self.eigenvalues, dtype=float)
        rho = np.asarray(self.rho_coef, dtype=float)
        h = np.asarray(self.h_coef, dtype=float)
        if lam.ndim != 1 or lam.size == 0:
            raise ValueError("eigenvalues must be a non-empty vector")
        if np.any(lam <= 0):
            raise ValueError("eigenvalues must be positive")
        if np.any(np.diff(lam) > 0):
            raise ValueError("eigenvalues must be non-increasing")
        if rho.shape != lam.shape or h.shape != lam.shape:
            raise ValueError("rho_coef and h_coef must match eigenvalues in length")
        if self.sigma2_eps < 0:
            raise ValueError("sigma2_eps must be non-negative")
        if not np.any(h != 0):
            raise ValueError("h_coef must not be identically zero")
        object.__setattr__(self, "eigenvalues", _frozen(lam))
        object.__setattr__(self, "rho_coef", _frozen(rho))
        object.__setattr__(self, "h_coef", _frozen(h))

    @property
    def terms(self) -> int:
        return int(self.eigenvalues.size)

    @property
    def projection_variance(self) -> float:
        """Var X^h = sum_j h_j^2 lambda_j."""
        return float(np.sum(self.h_coef**2 * self.eigenvalues))

    @property
    def signal_variance(self) -> float:
        """Var <X, rho> = sum_j rho_j^2 lambda_j."""
        return float(np.sum(self.rho_coef**2 * self.eigenvalues))

    @property
    def cross_covariance(self) -> float:
        """Cov(X^h, <X, rho>) = sum_j h_j rho_j lambda_j."""
        return float(np.sum(self.h_coef * self.rho_coef * self.eigenvalues))


def k1_covariance(spec: GaussianFlmSpec, s: float, t: float) -> float:
    """Covariance of the limiting projected process at (s, t).

    K1(s, t) = [ (Var<X,rho> VarX^h - Cov^2) / VarX^h + sigma2_eps ]
               * Phi(min(s, t) / sd(X^h)).

    The bracket is the conditional variance of Y given X^h; when h is
    proportional to rho it collapses to sigma2_eps.
    """
    var_h = spec.projection_variance
    if var_h <= 0:
        raise ValueError("projected covariate is degenerate")
    bracket = (
        spec.signal_variance * var_h - spec.cross_covariance**2
    ) / var_h + spec.sigma2_eps
    return bracket * normal_cdf(min(float(s), float(t)) / math.sqrt(var_h))


def indicator_score_moments(spec: GaussianFlmSpec, x: float) -> np.ndarray:
    """E[1{X^h <= x} xi_j] for every spectral coordinate j.

    Jointly Gaussian (xi_j, X^h) with Cov = h_j sqrt(lambda_j) gives
    -h_j sqrt(lambda_j) phi(x / sd) / sd.
    """
    sd = math.sqrt(spec.projection_variance)
    density = normal_pdf(float(x) / sd)
    return -(spec.h_coef * np.sqrt(spec.eigenvalues)) * density / sd


def tnx_sequence(spec: GaussianFlmSpec, x: float, kn: int) -> float:
    """Norm of the indicator-score moment vector truncated at kn terms.

    t_{n,x} = sqrt( sum_{j<=kn} E[1{X^h <= x} xi_j]^2 ); kn beyond the
    spec's finite spectrum adds nothing. Bounded by sqrt(kn) and by the
    full-spectrum limit phi(x / sd(X^h)).
    """
    if kn < 1:
        raise ValueError("kn must be a positive integer")
    kn = min(int(kn), spec.terms)
    moments = indicator_score_moments(spec, x)[:kn]
    return float(np.sqrt(np.sum(moments**2)))


def tnx_limit(spec: GaussianFlmSpec, x: float) -> float:
    """Full-spectrum value phi(x / sd(X^h)) of the truncated norm."""
    return normal_pdf(float(x) / math.sqrt(spec.projection_variance))


def tnx_truncation_bound(spec: GaussianFlmSpec, x: float, kn: int) -> float:
    """Upper bound on |tnx_sequence(kn) - tnx_limit|.

    With R = tail mass sum_{j>kn} h_j^2 lambda_j / VarX^h in [0, 1],
    the gap is phi (1 - sqrt(1 - R)) <= phi * R.
    """
    if kn < 1:
        raise ValueError("kn must be a positive integer")
    kn = min(int(kn), spec.terms)
    weights = spec.h_coef**2 * spec.eigenvalues
    tail_ratio = float(np.sum(weights[kn:])) / spec.projection_variance
    return tnx_limit(spec, x) * tail_ratio


def enumerated_fdr_rejection_rate(K, B, alpha, positive_correction) -> float:
    """Null rejection rate of the FDR envelope over all (B + 1)^K count vectors.

    Under the null each of the K exceedance counts out of B replicates is
    uniform on {0, ..., B}, so every count vector has the same chance.
    """
    counts = np.array(list(itertools.product(range(B + 1), repeat=K)))
    settings = _Settings(B=B, positive_correction=positive_correction)
    combined = _fdr_envelope(_bootstrap_pvalues(counts, settings))
    return np.count_nonzero(combined < alpha) / (B + 1) ** K


def simulated_fdr_combined(K, B, M, rng, positive_correction) -> np.ndarray:
    """M Monte Carlo draws of the FDR-combined p-value of K i.i.d. null p-values.

    Each count is drawn uniform on {0, ..., B}. np.mean(draws < alpha)
    estimates the rejection rate at alpha with standard error
    sqrt(rate (1 - rate) / M).
    """
    counts = rng.integers(0, B + 1, size=(M, K))
    settings = _Settings(B=B, positive_correction=positive_correction)
    return _fdr_envelope(_bootstrap_pvalues(counts, settings))


def exact_bootstrap_pvalues(fit, directions, kind) -> np.ndarray:
    """B = infinity bootstrap p-values of a composite test, one per direction
    of the `_SortedProjections` record `directions`.

    The golden-ratio law has two points, so at small n all 2^n multiplier
    vectors can be enumerated. Each replicate V * residuals is replayed
    through `fit` with `_replay_residuals`, and a direction's p-value is the
    total chance of the vectors whose `kind` norm reaches the observed one.
    A report's exceedance count out of B is then Binomial(B, p).
    """
    choice = np.array(list(itertools.product((0, 1), repeat=fit.n)))
    chance = np.prod(np.asarray(GOLDEN_PROBS)[choice], axis=1)
    replicates = np.asarray(GOLDEN_VALUES)[choice] * fit.residuals
    columns = np.ascontiguousarray(_replay_residuals(fit, replicates).T)
    norms = directions.norms(columns[:, None], kind)[:, 0]
    observed = directions.norms(fit.residuals[:, None, None], kind)[:, 0, 0]
    return np.array([chance[row >= bound].sum() for row, bound in zip(norms, observed)])


def binomial_tails(count, B, p) -> tuple[float, float]:
    """(P(X <= count), P(X >= count)) for X ~ Binomial(B, p), 0 < p < 1."""
    k = np.arange(B + 1)
    # log C(B, k) as a running sum of log((B - i + 1) / i), i = 1..k
    log_choose = np.cumsum(np.log(np.r_[1.0, (B - k[1:] + 1.0) / k[1:]]))
    pmf = np.exp(log_choose + k * math.log(p) + (B - k) * math.log1p(-p))
    return float(pmf[: count + 1].sum()), float(pmf[count:].sum())
