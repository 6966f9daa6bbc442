"""Model parameters, characteristic functions, and stationary moments.

The process is a mean-reverting Ornstein-Uhlenbeck equation
``dX_t = -theta X_t dt + sigma dZ_t`` driven by a compound Poisson process
whose jumps follow the two-sided exponential density

    f(y) = p * eta * exp(-eta * y)   for y >= 0
         + q * phi * exp( phi * y)   for y <  0,      q = 1 - p.

Everything in this module is a closed form: the characteristic function of
the stationary law, the joint characteristic function over one observation
lag, the first stationary moments, and the two parameter maps (``h_map`` /
``tilde_h_map``) whose equality defines the moment calibration.  These are
the ground-truth oracles the rest of the package is tested against.

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
    "StationaryMoments",
    "stationary_char_fn",
    "joint_char_fn",
    "analytic_moments",
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

    def as_dict(self) -> dict:
        return {
            "theta": self.theta,
            "eta": self.eta,
            "phi": self.phi,
            "p": self.p,
            "lam": self.lam,
            "sigma": self.sigma,
        }


@dataclass(frozen=True)
class StationaryMoments:
    """First stationary moments: m1 = E[X], m2 = E[X^2], m3 = E[X^3],
    m4 = E[X_0 X_h] at observation lag ``h``."""

    m1: float
    m2: float
    m3: float
    m4: float
    h: float

    def to_array(self) -> np.ndarray:
        return np.array([self.m1, self.m2, self.m3, self.m4])


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


def analytic_moments(params: ModelParams, h: float) -> StationaryMoments:
    """Closed-form stationary moments (first three plus the lag-h product).

    Derived from the cumulants of the stationary law: with r = lam/theta,

        m1 = r (p rho - q xi)
        m2 = r (p rho^2 + q xi^2) + m1^2
        m3 = 2 r (p rho^3 - q xi^3) + m2 m1 + 2 m1 (m2 - m1^2)
        m4 = e^{-theta h} r (p rho^2 + q xi^2) + m1^2
    """
    if not h > 0:
        raise ValueError(f"h must be > 0, got {h!r}")
    p, q = params.p, params.q
    rho, xi = params.rho, params.xi
    r = params.lam / params.theta
    m1 = r * (p * rho - q * xi)
    var = r * (p * rho**2 + q * xi**2)
    m2 = var + m1**2
    m3 = 2.0 * r * (p * rho**3 - q * xi**3) + m2 * m1 + 2.0 * m1 * var
    m4 = math.exp(-params.theta * h) * var + m1**2
    return StationaryMoments(m1=m1, m2=m2, m3=m3, m4=m4, h=h)


def _validate_point(theta: float, rho: float, xi: float, p: float) -> None:
    if not theta > 0:
        raise ValueError(f"theta must be > 0, got {theta!r}")
    if not (rho > 0 and xi > 0):
        raise ValueError("rho and xi must be > 0")
    if not 0.0 < p < 1.0:
        raise ValueError(f"p must be in (0, 1), got {p!r}")


def h_map(theta: float, rho: float, xi: float, p: float, h: float) -> np.ndarray:
    """Parameter-side map (h1, h2, h3, h4) of the moment system.

    h3 carries the factor 2 so that ``h_map(params) == tilde_h_map(moments)``
    holds as an identity for the moments of :func:`analytic_moments` (with
    lam = 1); the factor-free variant would break that consistency.
    """
    _validate_point(theta, rho, xi, p)
    q = 1.0 - p
    decay = math.exp(-theta * h)
    h2 = (p * rho**2 + q * xi**2) / theta
    return np.array([
        (p * rho - q * xi) / theta,
        h2,
        2.0 * (p * rho**3 - q * xi**3) / theta,
        decay * h2,
    ])


def tilde_h_map(mu) -> np.ndarray:
    """Moment-side map (mu1, mu2 - mu1^2, mu3 - mu2 mu1 - 2 mu1 (mu2 - mu1^2),
    mu4 - mu1^2).  ``mu`` is any length-4 sequence (mu1, mu2, mu3, mu4);
    the observation lag does not enter."""
    mu1, mu2, mu3, mu4 = np.asarray(mu, dtype=float)
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
