"""Asymptotic covariance of the estimates and confidence intervals.

The moment vector obeys a central limit theorem whose 4x4 limit covariance A
is the long-run covariance of the observable series (x, x^2, x^3, x y) over
consecutive observation pairs.  A is the model's own long-run covariance at
the estimates, :func:`dexpou.model.model_long_run_cov`: a closed form in
(theta, rho, xi, p, h) that costs O(1) and reads no path.  The Bartlett sum
:func:`long_run_cov` of :func:`observable_series`, taken literally lag by
lag, is the model-free reference that the tests check
``model_long_run_cov`` against.

The covariance of the parameter estimates follows by the delta method:
``Sigma = B A B^T`` with ``B = (grad_theta h)^{-1} (grad_mu h~)``, the
Jacobian of the estimates with respect to the moment vector, rows and
columns ordered (p, rho, xi, theta).  Jacobians are evaluated at the plug-in
point: the estimates and the sample moments they were solved from.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from statistics import NormalDist

import numpy as np

from .errors import SingularJacobian
from .estimate import EstimationResult
from .model import (
    PARAM_ORDER,
    jacobian_h,
    jacobian_tilde_h,
    model_long_run_cov,
)
from .simulate import SamplePath

__all__ = [
    "CovarianceEstimate",
    "ConfidenceIntervals",
    "observable_series",
    "long_run_cov",
    "sigma_matrix",
    "covariance_estimate",
    "confidence_intervals",
]

MAX_JACOBIAN_COND = 1e12


@dataclass(frozen=True)
class CovarianceEstimate:
    """Long-run covariance A of the moment averages and delta-method
    covariance Sigma of (p, rho, xi, theta), plus the number of averaged
    terms ``n`` and the condition number of the parameter Jacobian."""

    A: np.ndarray
    Sigma: np.ndarray
    n: int
    jacobian_condition: float = math.nan

    def min_eigenvalue_ratio(self) -> float:
        """min eigenvalue of Sigma over its trace (PSD check aid)."""
        eig = np.linalg.eigvalsh(self.Sigma)
        tr = float(np.trace(self.Sigma))
        return float(eig[0] / tr) if tr > 0 else 0.0


@dataclass(frozen=True)
class ConfidenceIntervals:
    """Per-parameter intervals at the given level.  ``intervals`` maps
    parameter name to (lower, upper); an unbounded upper endpoint is
    ``math.inf``.  Negative estimated variances are reported in
    ``warnings`` and produce no interval, never a NaN."""

    level: float
    intervals: dict
    warnings: tuple = ()


def observable_series(path: SamplePath) -> np.ndarray:
    """The four aligned series (X_j, X_j^2, X_j^3, X_j X_{j+1}), j = 1..n-1,
    as an array of shape (4, n-1), for :func:`long_run_cov`.  Their row
    means are the sample moments of
    :func:`dexpou.estimate.empirical_moments`, which sums the same products
    without forming this array."""
    x = path.values
    if len(x) < 2:
        raise ValueError(f"path must have >= 2 observations, got {len(x)}")
    head = x[:-1]
    # filled in place: no temporaries beside the (4, n-1) result
    series = np.empty((4, len(head)))
    series[0] = head
    np.square(head, out=series[1])
    np.multiply(series[1], head, out=series[2])
    np.multiply(head, x[1:], out=series[3])
    return series


def long_run_cov(series: np.ndarray, bandwidth: int) -> np.ndarray:
    """Bartlett-tapered long-run covariance matrix of the given series.

    ``series`` has shape (k, m) and ``bandwidth`` is the lag L >= 0, clipped
    to ``m - 1``.  The result is the literal lag sum

        A = C(0) + sum_{l=1..L} (1 - l/(L+1)) (C(l) + C(l)^T),
        C(l)[i, j] = (1/m) sum_t X[i, t] X[j, t + l],

    over the centred series X, symmetrized: one k x k product per lag.  Peak
    memory is the centred copy of the series.
    """
    X = np.atleast_2d(np.asarray(series, dtype=float))
    m = X.shape[1]
    L = int(bandwidth)
    if L < 0:
        raise ValueError(f"bandwidth must be >= 0, got {bandwidth!r}")
    L = min(L, m - 1)
    X = X - X.mean(axis=1, keepdims=True)
    A = X @ X.T
    for lag in range(1, L + 1):
        C = X[:, :-lag] @ X[:, lag:].T
        A += (1.0 - lag / (L + 1.0)) * (C + C.T)
    A /= m
    return 0.5 * (A + A.T)


def _delta_method(A: np.ndarray, mu, theta: float, rho: float, xi: float,
                  p: float, h: float) -> tuple:
    """``(Sigma, cond)``: the covariance of :func:`sigma_matrix` and the
    condition number of the parameter Jacobian it inverts."""
    A = np.asarray(A, dtype=float)
    if A.shape != (4, 4):
        raise ValueError(f"A must be 4x4, got shape {A.shape}")
    Jh = jacobian_h(theta, rho, xi, p, h)
    cond = float(np.linalg.cond(Jh))
    if not cond < MAX_JACOBIAN_COND:
        raise SingularJacobian(cond)
    B = np.linalg.solve(Jh, jacobian_tilde_h(mu))
    Sigma = B @ A @ B.T
    return 0.5 * (Sigma + Sigma.T), cond


def sigma_matrix(A: np.ndarray, mu, theta: float, rho: float, xi: float,
                 p: float, h: float) -> np.ndarray:
    """Delta-method covariance Sigma = B A B^T of (p, rho, xi, theta).

    B = (grad h)^{-1} grad h~ is the Jacobian of the estimates with respect
    to the moments; its rows are the gradients of the individual estimates,
    so the quadratic form must sandwich A as B A B^T.  ``mu`` is the moment
    vector (mu1, mu2, mu3, mu4) at which grad h~ is evaluated: the plug-in
    moments the estimates were solved from.
    """
    return _delta_method(A, mu, theta, rho, xi, p, h)[0]


def covariance_estimate(path: SamplePath,
                        result: EstimationResult) -> CovarianceEstimate:
    """Assemble A and Sigma for an estimated path: A is the model's
    long-run covariance at the estimates.

    Both are evaluated in standardised units: rho and xi are divided by
    2^k, with k the binary exponent of the larger, and mu1..mu4 by 2^k,
    2^2k, 2^3k and 2^2k.  The model's powers of rho and xi then neither
    overflow nor underflow, and ``jacobian_condition`` does not depend on
    the units of the path.  Scaling by powers of two is exact, so A and
    Sigma are scaled back without rounding (an entry of A beyond float64's
    range becomes inf)."""
    k = math.frexp(max(result.rho_hat, result.xi_hat))[1]
    point = (result.theta_hat, math.ldexp(result.rho_hat, -k),
             math.ldexp(result.xi_hat, -k), result.p_hat, path.h)
    degree = np.array([1, 2, 3, 2])         # of mu1..mu4 in the path
    A = model_long_run_cov(*point)
    Sigma, cond = _delta_method(
        A, np.ldexp(result.moments.to_array(), -k * degree), *point)
    rates = k * np.array([0, 1, 1, 0])       # rho and xi in PARAM_ORDER
    with np.errstate(over="ignore"):
        A = np.ldexp(A, k * (degree[:, None] + degree))
        Sigma = np.ldexp(Sigma, rates[:, None] + rates)
    return CovarianceEstimate(A=A, Sigma=Sigma, n=len(path.values) - 1,
                              jacobian_condition=cond)


def _reciprocal_interval(lo: float, hi: float) -> tuple:
    """Image of a positive-estimate interval under x -> 1/x.  A lower
    endpoint <= 0 maps to an unbounded upper endpoint."""
    upper = math.inf if lo <= 0 else 1.0 / lo
    return (1.0 / hi, upper)


def confidence_intervals(result: EstimationResult, cov: CovarianceEstimate,
                         level: float = 0.95) -> ConfidenceIntervals:
    """Normal-quantile intervals estimate +- z sqrt(Sigma_kk / n) for
    (p, rho, xi, theta); eta and phi intervals come from the reciprocal
    transform of the rho and xi intervals."""
    if not 0.0 < level < 1.0:
        raise ValueError(f"level must be in (0, 1), got {level!r}")
    z = NormalDist().inv_cdf(0.5 * (1.0 + level))
    estimates = result.estimates_dict()
    intervals = {}
    warnings = []
    for k, name in enumerate(PARAM_ORDER):
        var = cov.Sigma[k, k]
        if var < 0:
            warnings.append(
                f"Sigma[{name},{name}] = {var:.6e} < 0 (PSD violation); "
                f"no interval for {name}"
            )
            continue
        half = z * math.sqrt(var / cov.n)
        est = estimates[name]
        intervals[name] = (float(est - half), float(est + half))
    if "rho" in intervals:
        intervals["eta"] = _reciprocal_interval(*intervals["rho"])
    if "xi" in intervals:
        intervals["phi"] = _reciprocal_interval(*intervals["xi"])
    return ConfidenceIntervals(level=level, intervals=intervals,
                               warnings=tuple(warnings))
