"""Moment calibration: from an observed path to (theta, eta, phi, p).

Pipeline: sample moments -> closed-form theta -> reduced statistics
(f1, f2, f3) -> the root p of g(p) = 0 on (0, 1) -> back-substitution for
rho, xi -> eta = 1/rho, phi = 1/xi.  The process is
``dX = -theta X dt + dZ``, with the jump scale absorbed in eta and phi; the
fit assumes lam = 1.

All four sample moments are averaged over the same index set j = 1..n-1 (the
lag product needs pairs), which preserves the exact algebraic identities the
solver relies on.  They are summed in chunks of ``MOMENT_CHUNK`` rows, so
the moment pass of a fit needs memory of order the chunk, not the path.
Every precondition failure raises a typed error from :mod:`dexpou.errors`;
nothing is clamped or silently repaired.  ``(f1, f2, f3)`` are the first
three raw moments of a two-point law (rho with probability p, -xi with
q), whose skewness falls strictly in p: g has exactly one root, and
:func:`solve_p` evaluates it in closed form.  An :class:`FVector` checks
its discriminant f2 - f1^2 when it is made, so every later stage can
trust it.  The g-curve itself, :func:`scan_g`, is kept for inspection
(``dexpou gcurve``) and as the tests' oracle for that root.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import (
    DiscriminantNonpositive,
    DiscriminantOverflow,
    MomentOverflow,
    NonPositiveAutocov,
    NonPositiveRate,
    NonPositiveTheta,
    NonPositiveVariance,
    NoRoot,
)
from .model import Moments, tilde_h_map
from .simulate import SamplePath

__all__ = [
    "FVector",
    "EstimationResult",
    "GScan",
    "empirical_moments",
    "estimate_theta",
    "compute_f",
    "g_values",
    "scan_g",
    "solve_p",
    "recover_rho_xi",
    "estimate_from_moments",
    "estimate_all",
]

GRID_EPS = 1e-6           # the domain of p is [GRID_EPS, 1 - GRID_EPS]
DEFAULT_GRID_SIZE = 2001  # points of the g-curve of scan_g
MOMENT_CHUNK = 1 << 16    # rows per block of the moment sums


@dataclass(frozen=True)
class FVector:
    """Reduced statistics f1 = theta mu1, f2 = theta (mu2 - mu1^2),
    f3 = (theta/2)(mu3 - mu2 mu1 - 2 mu1 (mu2 - mu1^2)).

    Made only from finite statistics with a positive ``discriminant``
    f2 - f1^2, the variance of the two-point law of :func:`solve_p`: raises
    :class:`DiscriminantOverflow` when a statistic is not finite or f1^2
    overflows, and :class:`DiscriminantNonpositive` unless f2 - f1^2 > 0."""

    f1: float
    f2: float
    f3: float

    def __post_init__(self):
        for name in ("f1", "f2", "f3"):
            if not math.isfinite(getattr(self, name)):
                raise DiscriminantOverflow(
                    f"{name} = {getattr(self, name)!r} is not finite")
        try:
            d = self.f2 - self.f1**2
        except OverflowError:  # a float's ** raises where numpy gives inf
            raise DiscriminantOverflow(
                f"f1^2 overflows float64: f1 = {self.f1:.6e}") from None
        if not d > 0:
            raise DiscriminantNonpositive(f"f2 - f1^2 = {d:.6e} <= 0")
        # not a field, so dataclasses.asdict gives f1, f2, f3 alone
        object.__setattr__(self, "discriminant", d)


@dataclass(frozen=True)
class GScan:
    """g sampled on the search grid, and one ``(lo, hi)`` bracket per sign
    change: neighbouring grid points where g strictly changes sign, or
    ``(p, p)`` at a grid point where g is exactly zero."""

    grid: np.ndarray
    g: np.ndarray
    brackets: tuple


@dataclass(frozen=True)
class EstimationResult:
    """Point estimates, with the moments and reduced statistics they were
    solved from."""

    theta_hat: float
    p_hat: float
    rho_hat: float
    xi_hat: float
    eta_hat: float
    phi_hat: float
    moments: Optional[Moments] = None
    f: Optional[FVector] = None

    def estimates_dict(self) -> dict:
        return {
            "theta": self.theta_hat,
            "p": self.p_hat,
            "rho": self.rho_hat,
            "xi": self.xi_hat,
            "eta": self.eta_hat,
            "phi": self.phi_hat,
        }


def empirical_moments(path: SamplePath) -> Moments:
    """Sample moments of the path, all averaged over j = 1..n-1.

    The sums of (X_j, X_j^2, X_j^3, X_j X_{j+1}) are taken block by block
    with the products of :func:`dexpou.asymptotics.observable_series`, so
    the series is never formed; a path of at most ``MOMENT_CHUNK + 1``
    points gives exactly its row means."""
    x = path.values
    if len(x) < 2:
        raise ValueError(f"path must have >= 2 observations, got {len(x)}")
    m = len(x) - 1
    sq = np.empty(min(m, MOMENT_CHUNK))
    prod = np.empty_like(sq)
    sums = [0.0, 0.0, 0.0, 0.0]
    for start in range(0, m, MOMENT_CHUNK):
        head = x[start:min(start + MOMENT_CHUNK, m)]
        b = len(head)
        np.square(head, out=sq[:b])
        sums[0] += head.sum()
        sums[1] += sq[:b].sum()
        sq[:b] *= head                          # the cubes, in place
        sums[2] += sq[:b].sum()
        sums[3] += np.multiply(head, x[start + 1:start + 1 + b],
                               out=prod[:b]).sum()
    mu1, mu2, mu3, mu4 = (float(s) / m for s in sums)
    return Moments(mu1=mu1, mu2=mu2, mu3=mu3, mu4=mu4, h=path.h, n_used=m)


def estimate_theta(moments: Moments) -> float:
    """theta = ln((mu2 - mu1^2) / (mu4 - mu1^2)) / h, from the second and
    fourth components of :func:`dexpou.model.tilde_h_map`.

    Raises :class:`MomentOverflow` naming the first of mu1..mu4 that is not
    finite, or when mu1^2 exceeds float64's range, and the typed error
    naming the failed inequality when the variance, the lag autocovariance,
    or the resulting theta is not positive.
    """
    for name in ("mu1", "mu2", "mu3", "mu4"):
        value = getattr(moments, name)
        if not math.isfinite(value):
            raise MomentOverflow(f"{name} = {value!r} is not finite")
    try:
        _, var, _, autocov = tilde_h_map(moments.to_array()).tolist()
    except OverflowError:
        raise MomentOverflow(
            f"mu1^2 overflows float64: mu1 = {moments.mu1:.6e}") from None
    if not var > 0:
        raise NonPositiveVariance(f"mu2 - mu1^2 = {var:.6e} <= 0")
    if not autocov > 0:
        raise NonPositiveAutocov(f"mu4 - mu1^2 = {autocov:.6e} <= 0")
    if not var > autocov:
        raise NonPositiveTheta(
            f"(mu2 - mu1^2)/(mu4 - mu1^2) = {var / autocov:.6f} <= 1"
        )
    return math.log(var / autocov) / moments.h


def compute_f(moments: Moments, theta_hat: float) -> FVector:
    """Reduced statistics of the three remaining moment equations: theta_hat
    times the first three components of :func:`dexpou.model.tilde_h_map`,
    the third halved."""
    if not theta_hat > 0:
        raise ValueError(f"theta_hat must be > 0, got {theta_hat!r}")
    mu1, var, reduced, _ = tilde_h_map(moments.to_array()).tolist()
    return FVector(f1=theta_hat * mu1, f2=theta_hat * var,
                   f3=0.5 * theta_hat * reduced)


def g_values(p, f: FVector) -> np.ndarray:
    """Vectorized g over an array of p values in (0, 1).  Cubes are
    products because ``x**3`` of a negative numpy base leaves numpy's fast
    power loop."""
    p = np.asarray(p, dtype=float)
    if np.any(p <= 0.0) or np.any(p >= 1.0):
        raise ValueError("p must lie strictly inside (0, 1)")
    q = 1.0 - p
    s = np.sqrt(p * q * f.discriminant)
    a = f.f1 * p + s
    b = f.f1 * q - s
    return (q * q * (a * a * a) + p * p * (b * b * b)
            - f.f3 * (p * p) * (q * q))


def scan_g(f: FVector, grid_size: int = DEFAULT_GRID_SIZE) -> GScan:
    """Sample g on a uniform grid over [GRID_EPS, 1 - GRID_EPS] and locate
    its strict sign changes and exact zeros."""
    if grid_size < 3:
        raise ValueError(f"grid_size must be >= 3, got {grid_size!r}")
    grid = np.linspace(GRID_EPS, 1.0 - GRID_EPS, grid_size)
    gv = g_values(grid, f)
    signs = np.sign(gv)
    crossings = np.flatnonzero(signs[:-1] * signs[1:] < 0)
    brackets = ([(grid[i], grid[i + 1]) for i in crossings]
                + [(grid[i], grid[i]) for i in np.flatnonzero(signs == 0)])
    return GScan(grid=grid, g=gv, brackets=tuple(brackets))


def solve_p(f: FVector) -> tuple:
    """The root of g(p) = 0, in closed form, as ``(p_hat, q_hat)``.

    ``(f1, f2, f3)`` are the first three raw moments of the two-point law
    that puts mass p on rho and q on -xi.  Its variance is d = f2 - f1^2,
    its third central moment c3 = f3 - 3 f1 f2 + 2 f1^3, and its skewness
    gamma = c3 / (d sqrt(d)) = (q - p) / sqrt(p q) falls strictly in p, so
    g has exactly one root in (0, 1):

        p = (1 - gamma / r) / 2,   q = (1 + gamma / r) / 2,

    with r = sqrt(gamma^2 + 4).  The smaller of the two is taken as
    ``2 / (r (r + |gamma|))``, so neither loses digits to cancellation;
    ``q_hat`` keeps the digits that ``1 - p_hat`` loses where p is near 1.
    ``d sqrt(d)`` scales exactly where ``d**1.5`` need not, so p keeps its
    bits when the path is scaled by a power of two.  A root outside
    ``[GRID_EPS, 1 - GRID_EPS]``, the estimator's domain and the span of
    :func:`scan_g`, raises :class:`NoRoot`, as does a ``d sqrt(d)`` that
    underflows to 0.
    """
    d = f.discriminant
    d3 = d * math.sqrt(d)
    if d3 == 0.0:
        raise NoRoot(f"f2 - f1^2 = {d:.6e}: its 3/2 power underflows, so "
                     f"the skewness that fixes p cannot be formed")
    f1 = f.f1
    gamma = (f.f3 - 3.0 * f1 * f.f2 + 2.0 * f1 * f1 * f1) / d3
    r = math.hypot(gamma, 2.0)
    large = 0.5 * (r + abs(gamma)) / r
    small = 2.0 / (r * (r + abs(gamma)))
    p, q = (small, large) if gamma > 0 else (large, small)
    if not GRID_EPS <= p <= 1.0 - GRID_EPS:
        raise NoRoot(f"the root p = {p!r} of g lies outside "
                     f"[{GRID_EPS}, 1 - {GRID_EPS}]")
    return p, q


def recover_rho_xi(p_hat: float, q_hat: float, f: FVector) -> tuple:
    """The two atoms of the law of :func:`solve_p`,

        rho = f1 + sqrt(d q / p),   xi = sqrt(d p / q) - f1,

    with d = f2 - f1^2 and ``(p, q)`` the root ``(p_hat, q_hat)``.
    The product of the atoms, -rho xi, is (f1 f3 - f2^2) / d, so at the
    root both rates are positive exactly when f1 f3 < f2^2; otherwise
    :class:`NonPositiveRate` is raised."""
    if not (0.0 < p_hat < 1.0 and 0.0 < q_hat < 1.0):
        raise ValueError(f"p_hat and q_hat must be in (0, 1), got "
                         f"{(p_hat, q_hat)!r}")
    d = f.discriminant
    rho_hat = f.f1 + math.sqrt(d * q_hat / p_hat)
    xi_hat = math.sqrt(d * p_hat / q_hat) - f.f1
    if not (rho_hat > 0 and xi_hat > 0):
        raise NonPositiveRate(
            f"recovered rho = {rho_hat:.6e}, xi = {xi_hat:.6e}; at the root "
            f"both are > 0 only when f1 f3 < f2^2, and f1 f3 = "
            f"{f.f1 * f.f3:.6e}, f2^2 = {f.f2 * f.f2:.6e}"
        )
    return rho_hat, xi_hat


def estimate_from_moments(moments: Moments) -> EstimationResult:
    """Run the calibration pipeline on a moment vector (empirical or exact)."""
    theta_hat = estimate_theta(moments)
    f = compute_f(moments, theta_hat)
    p_hat, q_hat = solve_p(f)
    rho_hat, xi_hat = recover_rho_xi(p_hat, q_hat, f)
    return EstimationResult(theta_hat=theta_hat, p_hat=p_hat,
                            rho_hat=rho_hat, xi_hat=xi_hat,
                            eta_hat=1.0 / rho_hat, phi_hat=1.0 / xi_hat,
                            moments=moments, f=f)


def estimate_all(path: SamplePath) -> EstimationResult:
    """Full pipeline from a sample path to parameter estimates."""
    return estimate_from_moments(empirical_moments(path))
