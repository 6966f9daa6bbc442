"""Model parameters, characteristic functions, and stationary moments.

The process is a mean-reverting Ornstein-Uhlenbeck equation
``dX_t = -theta X_t dt + sigma dZ_t`` driven by a compound Poisson process
whose jumps follow the two-sided exponential density

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
    """The six model parameters.

    ``lam`` (Poisson intensity) and ``sigma`` (jump scale) exist for the
    simulator's generality; the calibration assumes the ``lam = sigma = 1``
    convention and rejects anything else via :meth:`require_unit_scale`.
    """

    theta: float   # mean-reversion rate, > 0
    eta: float     # up-jump rate, > 0
    phi: float     # down-jump rate, > 0
    p: float       # up-jump probability, in (0, 1)
    lam: float = 1.0
    sigma: float = 1.0

    def __post_init__(self):
        for name in ("theta", "eta", "phi", "lam", "sigma"):
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
        """sigma / eta, the mean up-jump size."""
        return self.sigma / self.eta

    @property
    def xi(self) -> float:
        """sigma / phi, the mean down-jump magnitude."""
        return self.sigma / self.phi

    def require_unit_scale(self) -> None:
        """Reject parameters outside the lam = sigma = 1 calibration mode."""
        if self.lam != 1.0 or self.sigma != 1.0:
            raise ValueError(
                f"calibration assumes lam = sigma = 1, got lam={self.lam}, "
                f"sigma={self.sigma}"
            )


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
    _, mu1, mu2, mu3 = _moments_from_cumulants(kappa).tolist()
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
    """Cumulants kappa_1..kappa_6 of the stationary law (lam = sigma = 1),

        kappa_r = (r-1)! (p rho^r + (-1)^r q xi^r) / theta,

    the r-th jump-size moment divided by r theta.  The first three give
    :func:`h_map` and the moments of :func:`analytic_moments`; the long-run
    covariance of the moment averages needs all six."""
    _validate_point(theta, rho, xi, p)
    q = 1.0 - p
    return np.array([
        math.factorial(r - 1) * (p * rho**r + (-1) ** r * q * xi**r) / theta
        for r in range(1, 7)
    ])


def _moments_from_cumulants(cumulants) -> np.ndarray:
    """``E[Z^n]``, n = 0..R, of a law with cumulants kappa_1..kappa_R, by the
    recursion ``m_n = sum_k C(n-1, k-1) kappa_k m_{n-k}``."""
    kappa = [float(c) for c in cumulants]
    m = [1.0]
    for n in range(1, len(kappa) + 1):
        m.append(sum(math.comb(n - 1, k - 1) * kappa[k - 1] * m[n - k]
                     for k in range(1, n + 1)))
    return np.array(m)


def _expansion_table():
    """Coefficients and moment indices of :func:`_transition_table`."""
    m, d, s = np.ogrid[:5, :5, :5]
    i, j = np.maximum(m - s, 0), np.maximum(s - d, 0)
    fact = np.array([math.factorial(n) for n in range(5)], dtype=float)
    coef = np.where((d <= s) & (s <= m),
                    fact[m] / (fact[d] * fact[j] * fact[i]), 0.0)
    return coef, i, j


_EXPANSION = _expansion_table()


def _transition_table(mu: np.ndarray, w: np.ndarray) -> np.ndarray:
    """``T[m, d, s]``, m <= 4: the coefficient of ``x^d b^s`` in
    ``E[X_k^m | X_0 = x]``, with ``b = e^{-theta h k}``.

    ``X_k = b X_0 + E`` with E independent of X_0, so
    ``E[e^{tE}] = M(t) / M(bt)`` for the stationary moment generating
    function M, and ``E[E^n] = sum_j C(n, j) mu_{n-j} w_j b^j``.  Here
    ``mu_n = E[X^n]`` and ``w_j = j! [t^j] 1/M(t)``, the moments of the
    cumulants ``-kappa_r``.  Expanding ``(b x + E)^m`` gives

        T[m, d, s] = m! / (d! (s-d)! (m-s)!) mu_{m-s} w_{s-d},  d <= s <= m.
    """
    coef, i, j = _EXPANSION
    return coef * mu[i] * w[j]


def _autocov_terms(theta: float, rho: float, xi: float, p: float,
                   h: float) -> tuple:
    """Lag-0 covariance and the lag coefficients of the observables
    ``Y_t = (X_t, X_t^2, X_t^3, X_t X_{t+1})``.

    Returns ``(gamma0, D, a)`` with ``a = e^{-theta h}``: for k >= 1,

        Gamma(k)[i, j] = Cov(Y_i(0), Y_j(k)) = sum_s D[i, j, s] beta_i^s,

    with ``beta_i = a^k`` on rows 0-2 and ``a^(k-1)`` on row 3, s = 0..3 and
    ``D[..., 0] = 0``.  Column j enters through ``E[Y_j(k) | X_k = x]``, a cubic
    in x (``E[X_k X_{k+1} | X_k] = a X_k^2 + kappa_1 (1 - a) X_k``), carried
    back to the row's time by ``X_{t+k} = b X_t + E``.  Row 3 is conditioned
    at time 1, the end of its pair.
    """
    kappa = stationary_cumulants(theta, rho, xi, p)
    if not h > 0:
        raise ValueError(f"h must be > 0, got {h!r}")
    a = math.exp(-theta * h)
    mu = _moments_from_cumulants(kappa)         # stationary E[X^n], n <= 6
    T = _transition_table(mu, _moments_from_cumulants(-kappa[:4]))
    T1 = T @ a ** np.arange(5)                  # one step: b = a
    # P[j, m]: E[Y_j(k) | X_k = x] as a polynomial in x
    P = np.zeros((4, 4))
    P[0, 1] = P[1, 2] = P[2, 3] = 1.0
    P[3, 1], P[3, 2] = kappa[0] * (1.0 - a), a
    m4 = T1[1, :2] @ mu[1:3]                    # E[X_0 X_1]
    # R[i, d]: Cov(Y_i(0), X^d), X taken at time 0 (rows 0-2) or 1 (row 3)
    d = np.arange(4)
    i = np.arange(1, 4)[:, None]
    R = np.empty((4, 4))
    R[:3] = mu[i + d] - mu[i] * mu[d]
    R[3] = T1[1:] @ mu[1:6] - m4 * mu[d]        # E[X_0 X_1^(d+1)] - m4 mu_d
    G = (P @ T[:4, :4, :4].reshape(4, 16)).reshape(4, 4, 4)  # [j, d, s]
    D = np.einsum("id,jds->ijs", R, G)
    gamma0 = np.empty((4, 4))
    gamma0[:3] = R[:3] @ P.T
    gamma0[3, :3] = gamma0[:3, 3]
    gamma0[3, 3] = T1[2, :3] @ mu[2:5] - m4**2  # E[X_0^2 X_1^2] - m4^2
    return gamma0, D, a


def observable_autocov(theta: float, rho: float, xi: float, p: float,
                       h: float, lag: int) -> np.ndarray:
    """Lagged covariance ``Gamma(lag)[i, j] = Cov(Y_i(0), Y_j(lag))`` of the
    observables ``Y_t = (X_t, X_t^2, X_t^3, X_t X_{t+1})`` of the stationary
    chain sampled at spacing h (lam = sigma = 1), for ``lag >= 0``; by
    stationarity ``Gamma(-k) = Gamma(k)^T``."""
    lag = int(lag)
    if lag < 0:
        raise ValueError(f"lag must be >= 0, got {lag!r}")
    gamma0, D, a = _autocov_terms(theta, rho, xi, p, h)
    if lag == 0:
        return gamma0
    beta = np.array([a**lag] * 3 + [a ** (lag - 1)])
    return np.einsum("ijs,is->ij", D, beta[:, None] ** np.arange(D.shape[2]))


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
    ``expm1``, so they stay accurate as ``theta h`` goes to 0.  O(1): no path
    and no bandwidth.
    """
    gamma0, D, _ = _autocov_terms(theta, rho, xi, p, h)
    s = np.arange(1, D.shape[2])
    w = np.empty((4, len(s)))
    w[:3] = 1.0 / np.expm1(s * theta * h)       # a^s / (1 - a^s)
    w[3] = -1.0 / np.expm1(-s * theta * h)      # 1 / (1 - a^s)
    S = np.einsum("ijs,is->ij", D[:, :, 1:], w)
    return gamma0 + (S + S.T)


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
