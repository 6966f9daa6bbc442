"""Moment calibration: from an observed path to (theta, eta, phi, p).

Pipeline: sample moments -> closed-form theta -> reduced statistics
(f1, f2, f3) -> scalar root problem g(p) = 0 on (0, 1) -> back-substitution
for rho, xi -> eta = 1/rho, phi = 1/xi.  Assumes the lam = sigma = 1
calibration convention throughout.

All four sample moments are averaged over the same index set j = 1..n-1 (the
lag product needs pairs), which preserves the exact algebraic identities the
solver relies on.  They are summed in chunks of ``MOMENT_CHUNK`` rows, so
the moment pass of a fit needs memory of order the chunk, not the path.
Every precondition failure raises a typed error from :mod:`dexpou.errors`;
nothing is clamped or silently repaired.  Root uniqueness is diagnosed
(sign-change count over a grid), never assumed: with multiple sign changes
the solver refuses and reports all roots.  Each bracket is refined by an
in-package port of Brent's method (the algorithm of ``scipy.optimize.brentq``)
on Python floats, through the same multiply-only g kernel that the grid scan
evaluates on arrays, so the estimate path needs numpy alone.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import (
    DiscriminantNonpositive,
    DiscriminantOverflow,
    MomentOverflow,
    MultipleRoots,
    NonPositiveAutocov,
    NonPositiveRate,
    NonPositiveTheta,
    NonPositiveVariance,
    NoRoot,
)
from .model import StationaryMoments
from .simulate import SamplePath

__all__ = [
    "EmpiricalMoments",
    "FVector",
    "RootScan",
    "EstimationResult",
    "GScan",
    "empirical_moments",
    "empirical_char_fn",
    "empirical_joint_char_fn",
    "estimate_theta",
    "compute_f",
    "g_values",
    "scan_g",
    "solve_p",
    "recover_rho_xi",
    "estimate_from_moments",
    "estimate_all",
]

GRID_EPS = 1e-6          # root search domain is [GRID_EPS, 1 - GRID_EPS]
DEFAULT_GRID_SIZE = 2001
ROOT_G_TOL = 1e-12       # |g| tolerance at the refined root
ROOT_WIDTH_TOL = 1e-14   # bracket width tolerance of the refiner
ROOT_RTOL = 4 * sys.float_info.epsilon  # relative tolerance of the refiner
ROOT_MAXITER = 100       # refiner iterations before NoRoot
MOMENT_CHUNK = 1 << 16   # rows per block of the moment sums


@dataclass(frozen=True)
class EmpiricalMoments:
    """Sample moments mu1..mu4 over a common index set of ``n_used`` terms."""

    mu1: float
    mu2: float
    mu3: float
    mu4: float
    n_used: int
    h: float

    def to_array(self) -> np.ndarray:
        return np.array([self.mu1, self.mu2, self.mu3, self.mu4])

    @classmethod
    def from_stationary(cls, moments: StationaryMoments,
                        n_used: int = 0) -> "EmpiricalMoments":
        """Wrap exact analytic moments, e.g. to drive the pipeline without a
        path (the exact-inversion oracle)."""
        return cls(mu1=moments.m1, mu2=moments.m2, mu3=moments.m3,
                   mu4=moments.m4, n_used=n_used, h=moments.h)


@dataclass(frozen=True)
class FVector:
    """Reduced statistics f1 = theta mu1, f2 = theta (mu2 - mu1^2),
    f3 = (theta/2)(mu3 - mu2 mu1 - 2 mu1 (mu2 - mu1^2))."""

    f1: float
    f2: float
    f3: float
    theta_hat: float

    @property
    def discriminant(self) -> float:
        """f2 - f1^2; must be > 0 for the root problem to be solvable."""
        try:
            return self.f2 - self.f1**2
        except OverflowError:  # a float's ** raises where numpy gives inf
            raise DiscriminantOverflow(
                f"f1^2 overflows float64: f1 = {self.f1:.6e}") from None


@dataclass(frozen=True)
class GScan:
    """g sampled on the search grid, and one ``(lo, hi)`` bracket per sign
    change: neighbouring grid points where g strictly changes sign, or
    ``(p, p)`` at a grid point where g is exactly zero."""

    grid: np.ndarray
    g: np.ndarray
    brackets: tuple


@dataclass(frozen=True)
class RootScan:
    """Outcome of the g(p) = 0 scan-and-refine search."""

    p_hat: float
    bracket: tuple
    sign_change_count: int
    g_prime_sign_constant: bool


@dataclass(frozen=True)
class EstimationResult:
    """Point estimates plus ``root``, the search that found ``p_hat``."""

    theta_hat: float
    p_hat: float
    rho_hat: float
    xi_hat: float
    eta_hat: float
    phi_hat: float
    root: RootScan
    moments: Optional[EmpiricalMoments] = None
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


def empirical_moments(path: SamplePath) -> EmpiricalMoments:
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
        np.multiply(head, head, out=sq[:b])
        sums[0] += head.sum()
        sums[1] += sq[:b].sum()
        sums[2] += np.multiply(sq[:b], head, out=prod[:b]).sum()
        sums[3] += np.multiply(head, x[start + 1:start + 1 + b],
                               out=prod[:b]).sum()
    mu1, mu2, mu3, mu4 = (float(s) / m for s in sums)
    return EmpiricalMoments(mu1=mu1, mu2=mu2, mu3=mu3, mu4=mu4,
                            n_used=m, h=path.h)


def empirical_char_fn(path: SamplePath, u):
    """Empirical characteristic function (1/n) sum exp(i u X_j).
    Diagnostic only; compares against the analytic stationary CF."""
    x = path.values
    if len(x) == 0:
        raise ValueError("path is empty")
    u = np.asarray(u, dtype=float)
    val = np.mean(np.exp(1j * np.multiply.outer(u, x)), axis=-1)
    return complex(val) if val.ndim == 0 else val


def empirical_joint_char_fn(path: SamplePath, u, v):
    """Empirical joint CF (1/(n-1)) sum exp(i u X_j + i v X_{j+1})."""
    x = path.values
    if len(x) < 2:
        raise ValueError(f"path must have >= 2 observations, got {len(x)}")
    u = np.asarray(u, dtype=float)
    v = np.asarray(v, dtype=float)
    val = np.mean(
        np.exp(1j * (np.multiply.outer(u, x[:-1]) + np.multiply.outer(v, x[1:]))),
        axis=-1,
    )
    return complex(val) if val.ndim == 0 else val


def estimate_theta(moments: EmpiricalMoments) -> float:
    """theta = ln((mu2 - mu1^2) / (mu4 - mu1^2)) / h.

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
        var = moments.mu2 - moments.mu1**2
        autocov = moments.mu4 - moments.mu1**2
    except OverflowError:  # a float's ** raises where numpy gives inf
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


def compute_f(moments: EmpiricalMoments, theta_hat: float) -> FVector:
    """Reduced statistics of the three remaining moment equations."""
    if not theta_hat > 0:
        raise ValueError(f"theta_hat must be > 0, got {theta_hat!r}")
    mu1, mu2, mu3 = moments.mu1, moments.mu2, moments.mu3
    var = mu2 - mu1**2
    f = FVector(
        f1=theta_hat * mu1,
        f2=theta_hat * var,
        f3=0.5 * theta_hat * (mu3 - mu2 * mu1 - 2.0 * mu1 * var),
        theta_hat=theta_hat,
    )
    if f.discriminant <= 0:
        raise DiscriminantNonpositive(
            f"f2 - f1^2 = {f.discriminant:.6e} <= 0"
        )
    return f


def _g(p, f1, d, f3, sqrt):
    """g(p) from ``+ - * /`` and one ``sqrt``: correctly rounded IEEE
    operations only, so numpy arrays with ``np.sqrt`` and Python floats
    with ``math.sqrt`` give the same bits.  Cubes are products because
    ``x**3`` of a negative numpy base leaves numpy's fast power loop."""
    q = 1.0 - p
    s = sqrt(p * q * d)
    a = f1 * p + s
    b = f1 * q - s
    return q * q * (a * a * a) + p * p * (b * b * b) - f3 * (p * p) * (q * q)


def g_values(p, f: FVector) -> np.ndarray:
    """Vectorized g over an array of p values in (0, 1)."""
    p = np.asarray(p, dtype=float)
    d = f.discriminant
    if d < 0:
        raise ValueError(f"f2 - f1^2 = {d:.6e} < 0")
    if np.any(p <= 0.0) or np.any(p >= 1.0):
        raise ValueError("p must lie strictly inside (0, 1)")
    return _g(p, f.f1, d, f.f3, np.sqrt)


def _brent(fun, a: float, b: float, xtol: float = ROOT_WIDTH_TOL,
           rtol: float = ROOT_RTOL, maxiter: int = ROOT_MAXITER) -> float:
    """Root of ``fun`` on the sign-changing bracket ``[a, b]`` by Brent's
    method: inverse quadratic interpolation, secant steps and bisection.

    A line-for-line port of the C ``brentq`` behind ``scipy.optimize.brentq``
    (same steps, same step-acceptance test, same stopping rule), so it
    returns the same bits for the same ``fun``, also where C divides by a
    denominator that underflowed to zero.  An exact zero at an end point is
    returned as is.  Raises :class:`NoRoot` when ``maxiter`` iterations do
    not shrink the bracket below ``xtol + rtol |x|``.
    """
    xpre, xcur = float(a), float(b)
    xblk = fblk = spre = scur = 0.0
    fpre, fcur = fun(xpre), fun(xcur)
    if fpre == 0:
        return xpre
    if fcur == 0:
        return xcur
    if math.copysign(1.0, fpre) == math.copysign(1.0, fcur):
        raise ValueError(f"g has the same sign at both ends of "
                         f"[{a!r}, {b!r}]")
    for _ in range(maxiter):
        if (fpre != 0 and fcur != 0
                and math.copysign(1.0, fpre) != math.copysign(1.0, fcur)):
            xblk, fblk = xpre, fpre
            spre = scur = xcur - xpre
        if abs(fblk) < abs(fcur):
            xpre, xcur, xblk = xcur, xblk, xcur
            fpre, fcur, fblk = fcur, fblk, fcur

        delta = (xtol + rtol * abs(xcur)) / 2
        sbis = (xblk - xcur) / 2
        if fcur == 0 or abs(sbis) < delta:
            return xcur

        if abs(spre) > delta and abs(fcur) < abs(fpre):
            if xpre == xblk:
                # interpolate
                stry = -fcur * (xcur - xpre) / (fcur - fpre)
            else:
                # extrapolate
                dpre = (fpre - fcur) / (xpre - xcur)
                dblk = (fblk - fcur) / (xblk - xcur)
                denom = dblk * dpre * (fblk - fpre)
                # where this underflows to 0, C's division gives inf or NaN,
                # which fails the step test below and bisects; Python would
                # raise ZeroDivisionError
                stry = (-fcur * (fblk * dblk - fpre * dpre) / denom
                        if denom != 0 else math.inf)
            if 2 * abs(stry) < min(abs(spre), 3 * abs(sbis) - delta):
                # good short step
                spre, scur = scur, stry
            else:
                spre = scur = sbis
        else:
            spre = scur = sbis

        xpre, fpre = xcur, fcur
        if abs(scur) > delta:
            xcur += scur
        else:
            xcur += delta if sbis > 0 else -delta
        fcur = fun(xcur)
    raise NoRoot(f"Brent refine of the bracket [{a!r}, {b!r}] did not "
                 f"converge in {maxiter} iterations")


def scan_g(f: FVector, grid_size: int = DEFAULT_GRID_SIZE) -> GScan:
    """Sample g on a uniform grid over [GRID_EPS, 1 - GRID_EPS] and locate
    its strict sign changes and exact zeros."""
    if grid_size < 3:
        raise ValueError(f"grid_size must be >= 3, got {grid_size!r}")
    if f.discriminant <= 0:
        raise DiscriminantNonpositive(
            f"f2 - f1^2 = {f.discriminant:.6e} <= 0"
        )
    grid = np.linspace(GRID_EPS, 1.0 - GRID_EPS, grid_size)
    gv = g_values(grid, f)
    signs = np.sign(gv)
    crossings = np.flatnonzero(signs[:-1] * signs[1:] < 0)
    brackets = ([(grid[i], grid[i + 1]) for i in crossings]
                + [(grid[i], grid[i]) for i in np.flatnonzero(signs == 0)])
    return GScan(grid=grid, g=gv, brackets=tuple(brackets))


def solve_p(f: FVector, grid_size: int = DEFAULT_GRID_SIZE) -> RootScan:
    """Scan g with :func:`scan_g`, count its sign changes, and refine the
    bracketing interval with the in-package Brent refine :func:`_brent`
    (absolute tolerance ``ROOT_WIDTH_TOL``, relative ``ROOT_RTOL``), which
    evaluates g on Python floats and returns the bits
    ``scipy.optimize.brentq`` would.

    Exactly one sign change is required; zero raises :class:`NoRoot` and
    more than one raises :class:`MultipleRoots` carrying every refined root.
    A refine that does not converge in ``ROOT_MAXITER`` iterations raises
    :class:`NoRoot`.
    The numerical-derivative sign-constancy of g over the grid is reported
    as a diagnostic (a constant-sign derivative certifies uniqueness).
    """
    scan = scan_g(f, grid_size)
    dg = np.diff(scan.g)
    g_prime_constant = bool(np.all(dg >= 0.0) or np.all(dg <= 0.0))

    f1, d, f3 = f.f1, f.discriminant, f.f3

    def g(p):
        return _g(p, f1, d, f3, math.sqrt)

    roots = [lo if lo == hi else _brent(g, float(lo), float(hi))
             for lo, hi in scan.brackets]
    if not roots:
        raise NoRoot("g(p) has no sign change on (0, 1)")
    if len(roots) > 1:
        raise MultipleRoots(roots)

    lo, hi = scan.brackets[0]
    return RootScan(p_hat=float(roots[0]),
                    bracket=(float(lo), float(hi)),
                    sign_change_count=len(roots),
                    g_prime_sign_constant=g_prime_constant)


def recover_rho_xi(p_hat: float, f: FVector) -> tuple:
    """Back-substitute: rho from the positive branch of the quadratic, then
    xi from the first moment equation.  rho > f1 holds on this branch, which
    is what makes xi positive for consistent inputs."""
    if not 0.0 < p_hat < 1.0:
        raise ValueError(f"p_hat must be in (0, 1), got {p_hat!r}")
    d = f.discriminant
    if d <= 0:
        raise DiscriminantNonpositive(f"f2 - f1^2 = {d:.6e} <= 0")
    q_hat = 1.0 - p_hat
    rho_hat = (f.f1 * p_hat + math.sqrt(p_hat * q_hat * d)) / p_hat
    xi_hat = (p_hat * rho_hat - f.f1) / q_hat
    if rho_hat <= 0 or xi_hat <= 0:
        raise NonPositiveRate(
            f"recovered rho = {rho_hat:.6e}, xi = {xi_hat:.6e}; both must be > 0"
        )
    return rho_hat, xi_hat


def estimate_from_moments(moments: EmpiricalMoments,
                          grid_size: int = DEFAULT_GRID_SIZE) -> EstimationResult:
    """Run the calibration pipeline on a moment vector (empirical or exact)."""
    theta_hat = estimate_theta(moments)
    f = compute_f(moments, theta_hat)
    scan = solve_p(f, grid_size=grid_size)
    rho_hat, xi_hat = recover_rho_xi(scan.p_hat, f)
    return EstimationResult(theta_hat=theta_hat, p_hat=scan.p_hat,
                            rho_hat=rho_hat, xi_hat=xi_hat,
                            eta_hat=1.0 / rho_hat, phi_hat=1.0 / xi_hat,
                            root=scan, moments=moments, f=f)


def estimate_all(path: SamplePath,
                 grid_size: int = DEFAULT_GRID_SIZE) -> EstimationResult:
    """Full pipeline from a sample path to parameter estimates."""
    return estimate_from_moments(empirical_moments(path), grid_size=grid_size)
