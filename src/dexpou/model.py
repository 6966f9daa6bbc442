"""Model parameters, characteristic functions, and stationary moments.

The process is ``dX = -theta X dt + dZ``, with the jump scale absorbed in
eta and phi; the fit assumes lam = 1.  Z is compound Poisson of rate lam,
and its jumps follow the two-sided exponential density

    f(y) = p * eta * exp(-eta * y)   for y >= 0
         + q * phi * exp( phi * y)   for y <  0,      q = 1 - p.

Everything in this module is a closed form: the characteristic function of
the stationary law, the joint characteristic function over one observation
lag, the first stationary moments and cumulants, the two parameter maps
(``h_map`` / ``tilde_h_map``) whose equality defines the moment calibration,
and the lagged and long-run covariances of the four observables the moments
average.  These are the ground-truth oracles the rest of the package is
tested against.  :class:`Moments` holds the four moments of the
calibration, exact here and sampled in :mod:`dexpou.estimate`.

All complex powers use the principal logarithm.  Every base that appears has
real part 1 for real arguments, so no branch cut is ever crossed and the
characteristic functions are continuous in their arguments.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

__all__ = [
    "ModelParams",
    "Moments",
    "stationary_char_fn",
    "joint_char_fn",
    "analytic_moments",
    "stationary_cumulants",
    "observable_autocov",
    "model_long_run_cov",
    "h_map",
    "tilde_h_map",
    "jacobian_h",
    "jacobian_tilde_h",
    "PARAM_ORDER",
]

# Column / row ordering shared by jacobian_h and the asymptotic covariance.
PARAM_ORDER = ("p", "rho", "xi", "theta")


@dataclass(frozen=True)
class ModelParams:
    """The parameters of ``dX = -theta X dt + dZ``, with the jump scale
    absorbed in eta and phi; the fit assumes lam = 1.  The simulator and
    the oracles read all five."""

    theta: float   # mean-reversion rate, > 0
    eta: float     # up-jump rate, > 0
    phi: float     # down-jump rate, > 0
    p: float       # up-jump probability, in (0, 1)
    lam: float = 1.0  # jump rate of Z, > 0

    def __post_init__(self):
        for name in ("theta", "eta", "phi", "lam"):
            if not getattr(self, name) > 0:
                raise ValueError(f"{name} must be > 0, got {getattr(self, name)!r}")
        if not 0.0 < self.p < 1.0:
            raise ValueError(f"p must be in (0, 1), got {self.p!r}")

    @property
    def q(self) -> float:
        """Down-jump probability, always computed as 1 - p."""
        return 1.0 - self.p

    @property
    def rho(self) -> float:
        """1 / eta, the mean up-jump size."""
        return 1.0 / self.eta

    @property
    def xi(self) -> float:
        """1 / phi, the mean down-jump magnitude."""
        return 1.0 / self.phi


@dataclass(frozen=True)
class Moments:
    """The four moments of the calibration at observation lag ``h``:
    mu1 = E[X], mu2 = E[X^2], mu3 = E[X^3] and mu4 = E[X_0 X_h].  Exact
    stationary moments (:func:`analytic_moments`) have ``n_used = 0``;
    sample moments (:func:`dexpou.estimate.empirical_moments`) are averages
    over ``n_used`` terms."""

    mu1: float
    mu2: float
    mu3: float
    mu4: float
    h: float
    n_used: int = 0

    def to_array(self) -> np.ndarray:
        return np.array([self.mu1, self.mu2, self.mu3, self.mu4])


def stationary_char_fn(params: ModelParams, u):
    """Characteristic function of the stationary law.

    ``(1 / (1 - i u rho))**(p lam / theta) * (1 / (1 + i u xi))**(q lam / theta)``
    evaluated with principal logs.  Accepts scalar or array ``u``.
    """
    u = np.asarray(u, dtype=float)
    plr = params.p * params.lam / params.theta
    qlr = params.q * params.lam / params.theta
    val = np.exp(
        -plr * np.log(1.0 - 1j * u * params.rho)
        - qlr * np.log(1.0 + 1j * u * params.xi)
    )
    return complex(val) if val.ndim == 0 else val


def joint_char_fn(params: ModelParams, u, v, h: float):
    """Joint characteristic function E[exp(i u X_0 + i v X_h)] of the
    stationary pair one observation lag apart.

    Four-factor product: the stationary factor at the combined argument
    ``u + v e^{-theta h}`` times the transition factor in ``v``.  Reduces to
    :func:`stationary_char_fn` at ``v = 0`` and, by stationarity, also at
    ``u = 0``.
    """
    if not h > 0:
        raise ValueError(f"h must be > 0, got {h!r}")
    u = np.asarray(u, dtype=float)
    v = np.asarray(v, dtype=float)
    plr = params.p * params.lam / params.theta
    qlr = params.q * params.lam / params.theta
    rho, xi = params.rho, params.xi
    decay = math.exp(-params.theta * h)
    w = u + v * decay
    log_val = (
        -plr * np.log(1.0 - 1j * rho * w)
        - qlr * np.log(1.0 + 1j * xi * w)
        + plr * (np.log(1.0 - 1j * rho * decay * v) - np.log(1.0 - 1j * rho * v))
        + qlr * (np.log(1.0 + 1j * xi * decay * v) - np.log(1.0 + 1j * xi * v))
    )
    val = np.exp(log_val)
    return complex(val) if val.ndim == 0 else val


def analytic_moments(params: ModelParams, h: float) -> Moments:
    """Closed-form stationary moments (first three plus the lag-h product).

    Derived from the cumulants of the stationary law, ``lam`` times those of
    :func:`stationary_cumulants`: mu1..mu3 follow from kappa_1..kappa_3 by
    the moment-cumulant recursion, and ``mu4 = e^{-theta h} kappa_2 + mu1^2``.
    """
    if not h > 0:
        raise ValueError(f"h must be > 0, got {h!r}")
    kappa = (params.lam * stationary_cumulants(params.theta, params.rho,
                                               params.xi, params.p)[:3]).tolist()
    _, mu1, mu2, mu3 = _moments_from_cumulants(kappa)
    mu4 = math.exp(-params.theta * h) * kappa[1] + mu1**2
    return Moments(mu1=mu1, mu2=mu2, mu3=mu3, mu4=mu4, h=h)


def _validate_point(theta: float, rho: float, xi: float, p: float) -> None:
    if not theta > 0:
        raise ValueError(f"theta must be > 0, got {theta!r}")
    if not (rho > 0 and xi > 0):
        raise ValueError("rho and xi must be > 0")
    if not 0.0 < p < 1.0:
        raise ValueError(f"p must be in (0, 1), got {p!r}")


def stationary_cumulants(theta: float, rho: float, xi: float,
                         p: float) -> np.ndarray:
    """Cumulants kappa_1..kappa_6 of the stationary law at lam = 1, the
    fit's assumption (the jump scale is absorbed in eta and phi),

        kappa_r = (r-1)! (p rho^r + (-1)^r q xi^r) / theta,

    the r-th jump-size moment divided by r theta.  The first three give
    :func:`h_map` and the moments of :func:`analytic_moments`; the long-run
    covariance of the moment averages needs all six."""
    _validate_point(theta, rho, xi, p)
    q = 1.0 - p
    return np.array([(p * rho - q * xi) / theta,
                     (p * rho**2 + q * xi**2) / theta,
                     2 * (p * rho**3 - q * xi**3) / theta,
                     6 * (p * rho**4 + q * xi**4) / theta,
                     24 * (p * rho**5 - q * xi**5) / theta,
                     120 * (p * rho**6 + q * xi**6) / theta])


def _moments_from_cumulants(kappa) -> list:
    """``E[Z^n]``, n = 0..R, of a law with cumulants kappa_1..kappa_R,
    R <= 6, by the recursion ``m_n = sum_k C(n-1, k-1) kappa_k m_{n-k}``,
    written out term by term in the order of that sum."""
    k1, k2, k3, k4, k5, k6 = list(kappa) + [0.0] * (6 - len(kappa))
    m1 = k1
    m2 = k1 * m1 + k2
    m3 = k1 * m2 + 2 * k2 * m1 + k3
    m4 = k1 * m3 + 3 * k2 * m2 + 3 * k3 * m1 + k4
    m5 = k1 * m4 + 4 * k2 * m3 + 6 * k3 * m2 + 4 * k4 * m1 + k5
    m6 = k1 * m5 + 5 * k2 * m4 + 10 * k3 * m3 + 10 * k4 * m2 + 5 * k5 * m1 + k6
    return [1.0, m1, m2, m3, m4, m5, m6][:len(kappa) + 1]


def _lag_operator(mu1: float, mu2: float, w1: float, w2: float,
                  weights) -> tuple:
    """``(Q11, Q21, Q22, Q31, Q32, Q33)``, the lower triangle of

        Q(W)[m][d] = sum_{s=d..m} C(m, s) C(s, d) mu_{m-s} w_{s-d} W_s,

    1 <= d <= m <= 3, for ``weights = (W_1, W_2, W_3)``; ``mu_n`` and
    ``w_n`` are as in :func:`_autocov_terms`, with ``mu_0 = w_0 = 1``."""
    W1, W2, W3 = weights
    return (W1,
            2 * mu1 * W1 + 2 * w1 * W2, W2,
            3 * mu2 * W1 + 6 * mu1 * w1 * W2 + 3 * w2 * W3,
            3 * mu1 * W2 + 3 * w1 * W3, W3)


def _autocov_terms(theta: float, rho: float, xi: float, p: float, h: float,
                   lag: Optional[int] = None) -> tuple:
    """Lag-0 covariance and the lagged covariance, or the sum of all lagged
    covariances, of the observables ``Y_t = (X_t, X_t^2, X_t^3, X_t X_{t+1})``,
    as rows of Python floats.

    ``X_k = b X_0 + E`` with ``b = e^{-theta h k}`` and E independent of
    X_0, so ``E[e^{tE}] = M(t) / M(bt)`` for the stationary moment
    generating function M.  Expanding ``(b x + E)^m`` gives
    ``E[X_k^m | X_0 = x] = sum_d x^d sum_s C(m, s) C(s, d) mu_{m-s} w_{s-d} b^s``,
    where ``mu_n = E[X^n]`` and ``w_j = j! [t^j] 1/M(t)``, the moments of the
    cumulants ``-kappa_r``.  Column j of ``Gamma(k)[i, j] = Cov(Y_i(0), Y_j(k))``
    enters through ``E[Y_j(k) | X_k = x]``, a cubic in x (``E[X_k X_{k+1} |
    X_k] = a X_k^2 + kappa_1 (1 - a) X_k``, ``a = e^{-theta h}``), carried back
    to the row's time.  Row 3 is conditioned at time 1, the end of its
    pair, so for k >= 1 its entries are polynomials in ``a^(k-1)`` where rows
    0-2 have ``a^k``, each with no constant term.  Any linear combination of
    the ``Gamma(k)`` therefore needs only the weights ``W_s`` that replace
    ``b^s``, s = 1..3 (:func:`_lag_operator`): ``u`` on rows 0-2 and ``v``
    on row 3.  The powers ``(a^k)^s`` and ``(a^(k-1))^s`` give ``Gamma(k)``;
    their sums over k >= 1, ``a^s / (1 - a^s)`` and ``1 / (1 - a^s)``, give
    ``sum_k Gamma(k)``.  Those are taken from ``exp`` and ``expm1`` of
    ``-s theta h``, so they stay accurate as ``theta h`` goes to 0 and never
    overflow.

    The lag-0 and one-step terms need ``E[X_0^i X_1^n] =
    sum_t C(n, t) a^t mu_{i+t} nu_{n-t}``, with ``nu`` the moments of the
    one-step innovation, whose cumulants are ``kappa_r (1 - a^r)``.

    Returns ``(gamma0, S)``, 4x4 as sequences of rows: ``Gamma(0)``, and
    ``Gamma(lag)`` for ``lag >= 1`` or ``sum_{k>=1} Gamma(k)`` for
    ``lag=None``.  The point is validated before any exponential is taken.
    """
    kappa = stationary_cumulants(theta, rho, xi, p).tolist()
    if not h > 0:
        raise ValueError(f"h must be > 0, got {h!r}")
    x = theta * h
    a = math.exp(-x)
    if lag is None:
        d = [-math.expm1(-s * x) for s in (1, 2, 3)]          # 1 - a^s
        u = [math.exp(-s * x) / ds for s, ds in zip((1, 2, 3), d)]
        v = [1.0 / ds for ds in d]
    else:
        b, b1 = a**lag, a ** max(lag - 1, 0)
        u, v = (b, b * b, b**3), (b1, b1 * b1, b1**3)
    a2, a3, a4 = a * a, a**3, a**4
    mu = _moments_from_cumulants(kappa)           # E[X^n], n <= 6
    _, mu1, mu2, mu3, mu4, mu5, _ = mu
    # w1, w2: the moments of the cumulants -kappa_1, -kappa_2
    w1, w2 = -kappa[0], kappa[0] * kappa[0] - kappa[1]
    _, nu1, nu2, nu3, nu4 = _moments_from_cumulants(
        (kappa[0] * (1.0 - a), kappa[1] * (1.0 - a2),
         kappa[2] * (1.0 - a3), kappa[3] * (1.0 - a4)))
    # E[X_0 X_1^n], n = 1..4, and E[X_0^2 X_1^2]
    m4 = mu1 * nu1 + a * mu2
    e2 = mu1 * nu2 + 2 * a * mu2 * nu1 + a2 * mu3
    e3 = mu1 * nu3 + 3 * a * mu2 * nu2 + 3 * a2 * mu3 * nu1 + a3 * mu4
    e4 = (mu1 * nu4 + 4 * a * mu2 * nu3 + 6 * a2 * mu3 * nu2
          + 4 * a3 * mu4 * nu1 + a4 * mu5)
    e22 = mu2 * nu2 + 2 * a * mu3 * nu1 + a2 * mu4
    # R[i] = Cov(Y_i(0), (X, X^2, X^3)), X at time 0 (rows 0-2) or 1 (row 3)
    R = [(mu[i + 1] - mu[i] * mu1, mu[i + 2] - mu[i] * mu2,
          mu[i + 3] - mu[i] * mu3) for i in (1, 2, 3)]
    R.append((e2 - m4 * mu1, e3 - m4 * mu2, e4 - m4 * mu3))
    c1 = kappa[0] * (1.0 - a)
    qu = _lag_operator(mu1, mu2, w1, w2, u)
    qv = _lag_operator(mu1, mu2, w1, w2, v)
    S = []
    for (r1, r2, r3), (q11, q21, q22, q31, q32, q33) in zip(R, (qu, qu, qu, qv)):
        s1 = r1 * q11
        s2 = r1 * q21 + r2 * q22
        S.append((s1, s2, r1 * q31 + r2 * q32 + r3 * q33, c1 * s1 + a * s2))
    gamma0 = [(r1, r2, r3, c1 * r1 + a * r2) for r1, r2, r3 in R[:3]]
    gamma0.append((gamma0[0][3], gamma0[1][3], gamma0[2][3], e22 - m4 * m4))
    return gamma0, S


def observable_autocov(theta: float, rho: float, xi: float, p: float,
                       h: float, lag: int) -> np.ndarray:
    """Lagged covariance ``Gamma(lag)[i, j] = Cov(Y_i(0), Y_j(lag))`` of the
    observables ``Y_t = (X_t, X_t^2, X_t^3, X_t X_{t+1})`` of the stationary
    chain sampled at spacing h, at lam = 1 (the fit's assumption; the jump
    scale is absorbed in eta and phi), for ``lag >= 0``; by
    stationarity ``Gamma(-k) = Gamma(k)^T``."""
    lag = int(lag)
    if lag < 0:
        raise ValueError(f"lag must be >= 0, got {lag!r}")
    gamma0, S = _autocov_terms(theta, rho, xi, p, h, lag)
    return np.array(gamma0 if lag == 0 else S)


def model_long_run_cov(theta: float, rho: float, xi: float, p: float,
                       h: float) -> np.ndarray:
    """Long-run covariance ``A = Gamma(0) + sum_{k>=1} (Gamma(k) + Gamma(k)^T)``
    of the observables of :func:`observable_autocov`, the limit covariance
    of ``sqrt(n)`` times the moment averages.

    Each lagged entry is a polynomial in ``a^k`` with no constant term, so
    the lag sum is geometric:

        A = Gamma(0) + sum_{s=1..3} (C_s + C_s^T) a^s / (1 - a^s),

    with ``a = e^{-theta h}`` (the ``X X_{+1}`` row, a polynomial in
    ``a^(k-1)``, has weights ``1 / (1 - a^s)``).  The weights are taken from
    ``exp`` and ``expm1`` of ``-s theta h``, so they stay accurate as
    ``theta h`` goes to 0 and never overflow.  O(1): no path and no
    bandwidth.  ``S = sum_{k>=1} Gamma(k)`` is evaluated in closed form by
    ``_autocov_terms`` on Python floats, in about 300 operations; numpy is
    called once, for the result.  ``A = Gamma(0) + (S + S^T)`` is exactly
    symmetric.
    """
    gamma0, S = _autocov_terms(theta, rho, xi, p, h)
    return np.array([[g + (s + t) for g, s, t in zip(*rows)]
                     for rows in zip(gamma0, S, zip(*S))])


def h_map(theta: float, rho: float, xi: float, p: float, h: float) -> np.ndarray:
    """Parameter-side map (h1, h2, h3, h4) of the moment system: the
    cumulants ``(kappa_1, kappa_2, kappa_3, e^{-theta h} kappa_2)`` of
    :func:`stationary_cumulants`.

    h3 = kappa_3 carries the factor 2 so that
    ``h_map(params) == tilde_h_map(moments)`` holds as an identity for the
    moments of :func:`analytic_moments` (with lam = 1); the factor-free
    variant would break that consistency.
    """
    kappa = stationary_cumulants(theta, rho, xi, p)
    return np.array([kappa[0], kappa[1], kappa[2],
                     math.exp(-theta * h) * kappa[1]])


def tilde_h_map(mu) -> np.ndarray:
    """Moment-side map (mu1, mu2 - mu1^2, mu3 - mu2 mu1 - 2 mu1 (mu2 - mu1^2),
    mu4 - mu1^2).  ``mu`` is any length-4 sequence (mu1, mu2, mu3, mu4);
    the observation lag does not enter.  Evaluated on Python floats, so a
    ``mu1^2`` beyond float64's range raises ``OverflowError``."""
    mu1, mu2, mu3, mu4 = (float(m) for m in mu)
    var = mu2 - mu1**2
    return np.array([
        mu1,
        var,
        mu3 - mu2 * mu1 - 2.0 * mu1 * var,
        mu4 - mu1**2,
    ])


def jacobian_h(theta: float, rho: float, xi: float, p: float, h: float) -> np.ndarray:
    """Jacobian of :func:`h_map`; rows h1..h4, columns (p, rho, xi, theta).

    Entries are symbolically derived closed forms, locked in by the
    finite-difference tests.
    """
    _validate_point(theta, rho, xi, p)
    q = 1.0 - p
    decay = math.exp(-theta * h)
    s2 = p * rho**2 + q * xi**2
    return np.array([
        [(rho + xi) / theta, p / theta, -q / theta,
         -(p * rho - q * xi) / theta**2],
        [(rho**2 - xi**2) / theta, 2.0 * p * rho / theta, 2.0 * q * xi / theta,
         -s2 / theta**2],
        [2.0 * (rho**3 + xi**3) / theta, 6.0 * p * rho**2 / theta,
         -6.0 * q * xi**2 / theta, -2.0 * (p * rho**3 - q * xi**3) / theta**2],
        [decay * (rho**2 - xi**2) / theta, decay * 2.0 * p * rho / theta,
         decay * 2.0 * q * xi / theta, -decay * s2 * (h + 1.0 / theta) / theta],
    ])


def jacobian_tilde_h(mu) -> np.ndarray:
    """Jacobian of :func:`tilde_h_map`; rows h~1..h~4, columns mu1..mu4."""
    mu1, mu2 = float(mu[0]), float(mu[1])
    return np.array([
        [1.0, 0.0, 0.0, 0.0],
        [-2.0 * mu1, 1.0, 0.0, 0.0],
        [6.0 * mu1**2 - 3.0 * mu2, -3.0 * mu1, 1.0, 0.0],
        [-2.0 * mu1, 0.0, 0.0, 1.0],
    ])
