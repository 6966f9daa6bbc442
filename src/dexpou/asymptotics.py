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

Both stages have a constant size, so their cost is per call, not per
observation.  A is summed on Python floats and becomes an array once.  The
delta method takes B from one LU solve (``np.linalg.solve``) and Sigma from
two 4x4 products.  ``grad_theta h`` must have a 2-norm condition number
below ``MAX_JACOBIAN_COND``; its Frobenius number, an upper bound at most
4 times as large, is formed from B on Python floats and proves that on
almost every fit, so the SVD is taken only when that number reaches an
eighth of the limit, or when ``CovarianceEstimate.jacobian_condition`` is
read.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from statistics import NormalDist
from typing import Optional

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
# The Frobenius number below which a Jacobian passes without its SVD.
_FROBENIUS_GATE = MAX_JACOBIAN_COND / 8
# Binary degrees in the path's units: of mu1..mu4, and of (p, rho, xi,
# theta); an entry of A or Sigma has the sum of its row's and column's.
_MOMENT_DEGREE = np.array([1, 2, 3, 2])
_A_DEGREE = _MOMENT_DEGREE[:, None] + _MOMENT_DEGREE
_PARAM_DEGREE = np.array([0, 1, 1, 0])
_SIGMA_DEGREE = _PARAM_DEGREE[:, None] + _PARAM_DEGREE


@dataclass(frozen=True)
class CovarianceEstimate:
    """Long-run covariance A of the moment averages and delta-method
    covariance Sigma of (p, rho, xi, theta), plus the number of averaged
    terms ``n`` and the parameter Jacobian ``grad_theta h`` that Sigma
    inverts, at the standardised point of :func:`covariance_estimate`."""

    A: np.ndarray
    Sigma: np.ndarray
    n: int
    jacobian: Optional[np.ndarray] = field(default=None, repr=False)

    @functools.cached_property
    def jacobian_condition(self) -> float:
        """The 2-norm condition number of ``jacobian``, or nan without
        one.  Its SVD is taken when this is first read, not by the fit."""
        return math.nan if self.jacobian is None else _condition(self.jacobian)

    def min_eigenvalue_ratio(self) -> float:
        """min eigenvalue of Sigma over its trace (PSD check aid)."""
        eig = np.linalg.eigvalsh(self.Sigma)
        tr = float(self.Sigma.trace())
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
    means equal, to rounding, the sample moments of
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


def _condition(Jh: np.ndarray) -> float:
    """The 2-norm condition number of Jh: the ratio of its extreme singular
    values, from the same SVD that ``np.linalg.cond`` makes, without that
    function's wrapper."""
    sv = np.linalg.svd(Jh, compute_uv=False).tolist()
    return sv[0] / sv[-1] if sv[-1] > 0 else math.inf


def _frobenius_number(Jh: np.ndarray, B: np.ndarray, mu1: float,
                      mu2: float) -> float:
    """``||Jh||_F ||Jh^-1||_F`` on Python floats, with ``Jh^-1 = B Jt^-1``
    for ``B = Jh^-1 Jt`` and the unit lower-triangular ``Jt`` of
    :func:`dexpou.model.jacobian_tilde_h` at ``(mu1, mu2)``, whose inverse
    is explicit: rows ``(1, 0, 0, 0)``, ``(2 mu1, 1, 0, 0)``,
    ``(3 mu2, 3 mu1, 1, 0)`` and ``(2 mu1, 0, 0, 1)``.  For a 4x4 matrix
    this lies between its 2-norm condition number and 4 times it (Golub &
    Van Loan, Matrix Computations, section 2.3).  An overflow gives inf
    and a non-finite B nan, never an exception."""
    two_mu1, three_mu1, three_mu2 = 2.0 * mu1, 3.0 * mu1, 3.0 * mu2
    inverse = 0.0
    for b0, b1, b2, b3 in B.tolist():
        c0 = b0 + two_mu1 * b1 + three_mu2 * b2 + two_mu1 * b3
        c1 = b1 + three_mu1 * b2
        inverse += c0 * c0 + c1 * c1 + b2 * b2 + b3 * b3
    norm = sum(v * v for row in Jh.tolist() for v in row)
    return math.sqrt(norm * inverse)


def _delta_method(A: np.ndarray, mu, theta: float, rho: float, xi: float,
                  p: float, h: float) -> tuple:
    """``(Sigma, Jh)``: the covariance of :func:`sigma_matrix` for a 4x4
    float array A, and the parameter Jacobian it inverts.  ``mu`` is read
    for mu1 and mu2, the moments ``grad_mu h~`` depends on.

    B comes from an LU solve.  Sigma is refused with
    :class:`SingularJacobian` when Jh's 2-norm condition number is
    ``MAX_JACOBIAN_COND`` or more, and that SVD is taken only when the
    Frobenius number of :func:`_frobenius_number`, an upper bound of it,
    reaches ``_FROBENIUS_GATE``: at the fits of the acceptance points it
    is far below, so they take no SVD.  The gate sits a factor 8 under the
    limit, so the rounding of B near it cannot decide the check, and the
    SVD makes the same decision as ever.  A zero pivot in the solve raises
    :class:`SingularJacobian` too."""
    mu1, mu2 = float(mu[0]), float(mu[1])
    Jh = jacobian_h(theta, rho, xi, p, h)
    try:
        B = np.linalg.solve(Jh, jacobian_tilde_h((mu1, mu2)))
    except np.linalg.LinAlgError:
        raise SingularJacobian(_condition(Jh)) from None
    if not _frobenius_number(Jh, B, mu1, mu2) < _FROBENIUS_GATE:
        cond = _condition(Jh)
        if not cond < MAX_JACOBIAN_COND:
            raise SingularJacobian(cond)
    Sigma = B @ A @ B.T
    return 0.5 * (Sigma + Sigma.T), Jh


def sigma_matrix(A: np.ndarray, mu, theta: float, rho: float, xi: float,
                 p: float, h: float) -> np.ndarray:
    """Delta-method covariance Sigma = B A B^T of (p, rho, xi, theta).

    B = (grad h)^{-1} grad h~ is the Jacobian of the estimates with respect
    to the moments; its rows are the gradients of the individual estimates,
    so the quadratic form must sandwich A as B A B^T.  ``mu`` is the moment
    vector (mu1, mu2, mu3, mu4) at which grad h~ is evaluated: the plug-in
    moments the estimates were solved from.
    """
    A = np.asarray(A, dtype=float)
    if A.shape != (4, 4):
        raise ValueError(f"A must be 4x4, got shape {A.shape}")
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
    A = model_long_run_cov(*point)
    moments = result.moments
    Sigma, Jh = _delta_method(
        A, (math.ldexp(moments.mu1, -k), math.ldexp(moments.mu2, -2 * k)),
        *point)
    with np.errstate(over="ignore"):
        A = np.ldexp(A, k * _A_DEGREE)
        Sigma = np.ldexp(Sigma, k * _SIGMA_DEGREE)
    return CovarianceEstimate(A=A, Sigma=Sigma, n=len(path.values) - 1,
                              jacobian=Jh)


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
    for name, var in zip(PARAM_ORDER, cov.Sigma.diagonal().tolist()):
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
