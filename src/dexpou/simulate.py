"""Exact path simulation via the one-step decomposition.

One observation step of the process satisfies, in distribution,

    X_{t+h} = X_t e^{-theta h} + sum_{k=1}^{N} S_k,

where N ~ Poisson(lam * h) and each S_k is an independent two-sided
exponential draw whose rates are scaled by exp(theta * h * U_k) with its own
U_k ~ Uniform[0, 1].  No discretization error: iterating this recursion gives
the exact transition law at the observation times.

Randomness comes from a numpy PCG64 generator keyed by (seed, replication)
through ``SeedSequence`` spawn keys, so each replication owns an independent
stream and identical inputs reproduce paths bit for bit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .model import ModelParams

__all__ = [
    "SamplePath",
    "make_rng",
    "default_burn_in",
    "draw_double_exp",
    "draw_transition_jump_sum",
    "simulate_path",
]


@dataclass(frozen=True)
class SamplePath:
    """Equally spaced observations X_{t_1}, ..., X_{t_n} at t_j = j * h.

    ``seed``/``replication``/``burn_in``/``x0`` are provenance; paths read
    from a CSV leave the unknown ones as None.
    """

    h: float
    values: np.ndarray
    x0: Optional[float] = None
    seed: Optional[int] = None
    replication: int = 0
    burn_in: int = 0

    def __post_init__(self):
        if not self.h > 0:
            raise ValueError(f"h must be > 0, got {self.h!r}")
        object.__setattr__(self, "values", np.asarray(self.values, dtype=float))

    def __len__(self) -> int:
        return len(self.values)

    @property
    def times(self) -> np.ndarray:
        """Observation times t_j = j * h, j = 1..n."""
        return self.h * np.arange(1, len(self.values) + 1)


def make_rng(seed: int, replication: int = 0) -> np.random.Generator:
    """Deterministic PCG64 stream keyed by (seed, replication)."""
    ss = np.random.SeedSequence(entropy=seed, spawn_key=(replication,))
    return np.random.Generator(np.random.PCG64(ss))


def default_burn_in(theta: float, h: float) -> int:
    """ceil(10 / (theta h)) steps, i.e. at least ten mean-reversion times."""
    return math.ceil(10.0 / (theta * h))


def draw_double_exp(p: float, eta, phi, rng: np.random.Generator, size=None):
    """Draw from the two-sided exponential density
    ``p eta exp(-eta y) [y >= 0] + (1-p) phi exp(phi y) [y < 0]``.

    ``eta``/``phi`` may be arrays broadcastable against ``size`` (used by the
    scale-mixture transition sampler).  Scalar draw when ``size`` is None.
    """
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"p must be in [0, 1], got {p!r}")
    eta = np.asarray(eta, dtype=float)
    phi = np.asarray(phi, dtype=float)
    if np.any(eta <= 0) or np.any(phi <= 0):
        raise ValueError("eta and phi must be > 0")
    n = 1 if size is None else int(size)
    side = rng.random(n)
    mag = rng.standard_exponential(n)
    out = np.where(side < p, mag / eta, -mag / phi)
    return float(out[0]) if size is None else out


def draw_transition_jump_sum(params: ModelParams, h: float,
                             rng: np.random.Generator, size=None):
    """Draw the jump contribution of one observation step (vectorized over
    ``size`` independent steps).

    Per step: N ~ Poisson(lam h); each of the N jumps draws its own
    U ~ Uniform[0,1] and then a two-sided exponential with rates
    (eta, phi) * exp(theta h U).  Returns the per-step sums (0 when N = 0).
    """
    if not h > 0:
        raise ValueError(f"h must be > 0, got {h!r}")
    n = 1 if size is None else int(size)
    counts = rng.poisson(params.lam * h, n)
    total = int(counts.sum())
    scale = np.exp(params.theta * h * rng.random(total))
    jumps = draw_double_exp(params.p, params.eta * scale, params.phi * scale,
                            rng, size=total)
    sums = np.bincount(np.repeat(np.arange(n), counts), weights=jumps,
                       minlength=n)
    return float(sums[0]) if size is None else sums


def simulate_path(params: ModelParams, x0: float, h: float, n: int, seed: int,
                  burn_in: Optional[int] = None,
                  replication: int = 0) -> SamplePath:
    """Simulate ``n`` retained observations of the process.

    Starts at ``x0`` and discards ``burn_in`` initial steps (default
    ``ceil(10/(theta h))``) so the retained samples approximate the
    stationary regime; retained observations are re-indexed to t_j = j h.
    Deterministic given (seed, replication).
    """
    if n < 2:
        raise ValueError(f"n must be >= 2, got {n!r}")
    if not h > 0:
        raise ValueError(f"h must be > 0, got {h!r}")
    if burn_in is None:
        burn_in = default_burn_in(params.theta, h)
    elif burn_in < 0:
        raise ValueError(f"burn_in must be >= 0, got {burn_in!r}")
    # imported here: scipy.signal is slow to import, and only simulation
    # needs it
    from scipy.signal import lfilter

    rng = make_rng(seed, replication)
    jump_sums = draw_transition_jump_sum(params, h, rng, size=burn_in + n)
    decay = math.exp(-params.theta * h)
    # X_j = decay * X_{j-1} + J_j is an AR(1) filter with X_0 = x0.
    x = lfilter([1.0], [1.0, -decay], jump_sums, zi=np.array([decay * x0]))[0]
    return SamplePath(h=h, values=x[burn_in:], x0=x0, seed=seed,
                      replication=replication, burn_in=burn_in)
