"""Closed forms for the jointly Gaussian functional linear model.

A finite spectral model: X = sum_j sqrt(lambda_j) xi_j e_j with xi_j i.i.d.
standard normal, slope rho = sum_j rho_j e_j, direction h = sum_j h_j e_j,
and independent Gaussian noise. Everything below is an explicit function of
(lambda, rho, h, sigma2_eps), which makes these values usable as ground truth
for the empirical-process machinery.

Normal cdf/pdf go through the C library's erfc, accurate to double precision,
so the oracle values are bit-stable for a given platform.

The exact null rejection rate of the FDR combination for K independent
p-values follows (`fdr_null_rejection_rate`), with two oracles it is checked
against: the rejection rate over every count vector, and a Monte Carlo
sample of the combined p-value. Then come the KS and CvM norms of one
direction's marked process (`process_statistic`), the closed-form mean and
variance of one direction's bootstrap CvM norm (`bootstrap_cvm_law`), the
PCvM statistic, which is the CvM norm's mean over Gaussian directions
(`pcvm`), and the exact law of the wild bootstrap at small n, where every
multiplier vector can be enumerated.
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
    STAT_KINDS,
    _bootstrap_pvalues,
    _check_fraction,
    _fdr_envelope,
    _replay_residuals,
    _Settings,
    _SortedProjections,
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
    "fdr_null_rejection_rate",
    "enumerated_fdr_rejection_rate",
    "simulated_fdr_combined",
    "process_statistic",
    "bootstrap_cvm_law",
    "pcvm",
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


def fdr_null_rejection_rate(K, B, alpha, positive_correction=False) -> float:
    """Exact chance that `fdr_combine` of K i.i.d. null p-values is below alpha.

    Under the null each count out of B replicates is uniform on {0, ..., B}.
    With t_k the number of atoms a of `_bootstrap_pvalues` that have
    a * (K/k) < alpha, formed as in `_fdr_envelope`, the rule rejects iff at
    least k counts lie below t_k for some k. The t_k never decrease in k, so a
    recursion over them gives the rate (Noe, 1972): the exact null size of
    Simes' (Benjamini and Hochberg's) rule at a finite B. The rate assumes
    independent p-values; one test's K p-values share the multipliers, and
    on seven of the nine simulation scenarios they are equal.
    """
    settings = _Settings(K, B, positive_correction=positive_correction)
    _check_fraction("alpha", alpha)
    atoms = _bootstrap_pvalues(np.arange(B + 1), settings)
    # The top atom is 1, which no alpha <= 1 rejects, so every t_k <= B.
    thresholds = [np.count_nonzero(atoms * f < alpha) for f in K / np.arange(1.0, K + 1.0)]
    log_factorial = np.array([math.lgamma(i + 1.0) for i in range(K + 1)])
    j, s = np.arange(K)[:, None], np.arange(K + 1)

    # alive[j]: the chance that j counts lie below the last threshold and no
    # k so far rejected. Summing the mass each threshold rejects keeps the
    # relative accuracy of a small rate.
    alive = np.zeros(K)
    alive[0] = 1.0
    rate = 0.0
    for k, (lower, t) in enumerate(zip([0, *thresholds], thresholds), start=1):
        if t == lower:
            continue
        # Of j counts below `lower`, s lie below t: j plus a binomial draw
        # from the other K - j. Entries with s < j are masked.
        step = (t - lower) / (B + 1 - lower)
        log_pmf = (
            log_factorial[K - j] - log_factorial[s - j] - log_factorial[K - s]
            + (s - j) * math.log(step) + (K - s) * math.log1p(-step)
        )
        below = alive @ np.exp(np.where(s >= j, log_pmf, -np.inf))
        rate += below[k:].sum()  # k or more counts below t_k reject at k
        alive = np.where(s[:K] < k, below[:K], 0.0)
    return float(rate)


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


def process_statistic(projections, marks) -> tuple[float, float]:
    """KS and CvM norms of the marked process for one direction.

    Parameters
    ----------
    projections : array, shape (n,)
        Scalar projections <X_i, h>.
    marks : array, shape (n,)
        Marks attached to the observations (residuals, or Y - m0(X)).

    Returns
    -------
    (ks, cvm) : tuple of float
    """
    projections = np.asarray(projections, dtype=float)
    marks = np.asarray(marks, dtype=float)
    if projections.ndim != 1 or marks.shape != projections.shape:
        raise ValueError("projections and marks must be vectors of one length")
    layout = _SortedProjections(projections[None])
    if not np.all(np.isfinite(marks)):
        raise ValueError("marks contain non-finite values")
    return tuple(float(layout.norms(marks[:, None, None], kind)[0, 0, 0])
                 for kind in STAT_KINDS)


def bootstrap_cvm_law(directions, marks, design=None):
    """(M, mean, variance): the closed-form law of the bootstrap CvM norm of
    the one direction of the `_SortedProjections` record `directions`, for
    the marks e.

    With S the record's sort permutation, L the lower-triangular matrix of
    ones and W the diagonal of its `weights`, a mark vector m has the CvM
    norm m^T M m, M = S^T L^T W L S. A replicate is P (v * e), with
    P = I - Q Q^T for the fit's `design` Q (composite null) or P = I (simple
    null, `design` None), so its norm is v^T A v, A = D_e P M P D_e. The
    golden-ratio multipliers have E v = 0, E v^2 = 1 and E v^4 = 2, so the
    norm has mean tr A and variance 2 tr A^2 - sum_i A_ii^2.
    """
    [order], [weights] = directions.order, directions.weights
    n = len(order)
    cumulated = np.tril(np.ones((n, n))) @ np.eye(n)[order]  # L S
    M = cumulated.T @ (weights[:, None] * cumulated)
    P = np.eye(n) if design is None else np.eye(n) - design @ design.T
    A = marks[:, None] * (P @ M @ P) * marks
    return M, np.trace(A), 2.0 * np.sum(A * A) - np.sum(np.diag(A) ** 2)


def pcvm(scores, marks) -> float:
    """The PCvM statistic of Garcia-Portugues, Gonzalez-Manteiga and
    Febrero-Bande (2014) for the (n, p) scores S and the marks e:
    n^-2 sum_{i,j} e_i e_j sum_r A_ijr, where A_ijr = (pi - angle) / (2 pi)
    for the angle between S_i - S_r and S_j - S_r, 1/2 when one of the two
    vectors is zero and 1 when both are.

    For xi standard normal in R^p, A_ijr is the chance that <S_i - S_r, xi>
    and <S_j - S_r, xi> are both at most 0, so the statistic is the mean over
    xi of the CvM norm of the marked process projected on S xi. It costs
    O(n^3 p).
    """
    scores = np.asarray(scores, dtype=float)
    marks = np.asarray(marks, dtype=float)
    total = 0.0
    for anchor in scores:
        diffs = scores - anchor
        lengths = np.sqrt(np.einsum("ij,ij->i", diffs, diffs))
        zero = lengths == 0.0
        units = diffs / np.where(zero, 1.0, lengths)[:, None]
        cosines = np.clip(units @ units.T, -1.0, 1.0)
        A = (np.pi - np.arccos(cosines)) / (2.0 * np.pi)
        A[zero] = 0.5
        A[:, zero] = 0.5
        A[np.ix_(zero, zero)] = 1.0
        total += marks @ A @ marks
    return total / marks.size**2


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
