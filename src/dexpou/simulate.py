"""Exact path simulation via the one-step decomposition.

One observation step of the process satisfies, in distribution,

    X_{t+h} = X_t e^{-theta h} + sum_{k=1}^{N} S_k,

where N ~ Poisson(lam * h) and each S_k is an independent two-sided
exponential draw whose rates are scaled by exp(theta * h * U_k) with its own
U_k ~ Uniform[0, 1].  No discretization error: iterating this recursion gives
the exact transition law at the observation times.

Randomness comes from a numpy PCG64 generator keyed by (seed, replication)
through ``SeedSequence`` spawn keys, so each replication owns an independent
stream and identical inputs reproduce paths bit for bit.  The counts N are
those of ``rng.poisson(lam h, steps)``, and the stream after them is
unchanged.  For ``lam h`` below ``_REPLAY_MAX_RATE`` they are replayed
from one bulk ``rng.random(steps)``: numpy draws a count below 10 by
multiplying uniforms until the product falls to ``e^{-lam h}``, and a
uniform at or below ``e^{-lam h}`` ends its step wherever it falls, so only
the few runs of adjacent uniforms above it need a walk in Python.  At
``lam h = 0.02`` that takes about half the time of ``rng.poisson``.

The path itself is the AR(1) recursion ``X_j = a X_{j-1} + J_j`` with
``a = e^{-theta h}``, run in place on the jump sums with numpy alone (no
``scipy.signal``).  The steps are cut into blocks of ``B`` steps with
``theta h B <= _SPAN``.  Inside a block the recursion is a scaled
cumulative sum,
``X_{s+k} = e^{-theta h k} (a X_{s-1} + sum_{i<=k} e^{theta h i} J_{s+i})``,
so the factors stay within ``e^{+-_SPAN}`` and cannot overflow; the block
start values ``X_{s-1}`` come from a scan over the blocks' end values.  The
result differs from the sequential loop ``x = a * x + J`` over the same
jump sums only by rounding: by under 1e-15 of ``max|X|`` at
``theta h = 0.04`` (n up to 1e6).  At small ``theta h`` the loop is the less
exact of the two: its powers of the rounded ``a`` drift by about half an
ulp per step (5e-15 of ``max|X|`` at ``theta h = 0.002``), while the block
factors are within a few ulp of ``e^{-+theta h k}``.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .model import ModelParams

# Largest theta * h * B of one block: the block factors e^{+-theta h k}
# stay within e^{+-64}, so a scaled value overflows only if |X| > 1e280.
_SPAN = 64.0
# Largest block: bounds the factor arrays when theta * h is tiny, and keeps
# k < 2^13 in _block_factors.
_MAX_BLOCK = 1 << 12
# The Poisson counts at a rate below _REPLAY_MAX_RATE are replayed from one
# bulk uniform draw (_jump_steps).  Above it numpy's rng.poisson is faster:
# more uniforms fall in runs as the rate grows.  numpy draws counts of rate
# 10 and up by another method, so the bound must stay at or below 10.
_REPLAY_MAX_RATE = 0.15

__all__ = [
    "SamplePath",
    "make_rng",
    "default_burn_in",
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


def _jump_steps(rate: float, rng: np.random.Generator,
                size: int) -> tuple[np.ndarray, np.ndarray]:
    """The step of each jump, in order, for ``size`` steps of
    ``N ~ Poisson(rate)`` jumps: ``np.repeat(np.arange(size), counts)`` of
    ``counts = rng.poisson(rate, size)``, bit for bit, leaving ``rng``
    where ``rng.poisson`` leaves it.  Returned with the path-sized array
    the steps were read from, the counts or the bulk uniforms, for the
    caller to free when the sums can take its memory.

    At rates in ``(0, _REPLAY_MAX_RATE)`` the counts are replayed from one
    bulk ``rng.random(size)``.  numpy draws a count below 10 by
    multiplication: a step multiplies uniforms (the doubles of
    ``rng.random``) into ``prod``, counting a jump while
    ``prod > e^{-rate}``, so a step of N jumps takes N + 1 uniforms.  A
    uniform ``U <= e^{-rate}`` always ends its step.  A candidate
    ``U > e^{-rate}`` that starts a step is a jump, and the first of a run
    of adjacent candidates starts one; inside a run, a step ends where its
    running product, walked on Python floats as numpy forms it, falls to
    ``e^{-rate}``.  Each step takes at least one uniform, so the bulk draw
    never reads past the ``size`` steps.  The steps left unended, about
    ``size * rate`` of them, are drawn after it: a step cut by the end of
    the bulk draw by continuing its product, the rest by ``rng.poisson``.
    """
    if not 0.0 < rate < _REPLAY_MAX_RATE:
        counts = rng.poisson(rate, size)
        return np.repeat(np.arange(size), counts), counts
    limit = math.exp(-rate)  # numpy's exp(-lam): the same libm call
    u = rng.random(size)
    cand = (u > limit).nonzero()[0]
    # cand[k] and cand[k + 1] adjacent: a step may end at the second
    pairs = (cand[1:] - cand[:-1] == 1).nonzero()[0]
    ends, prod, last = [], 1.0, -1
    at = cand[pairs]
    for k, first, value in zip(pairs.tolist(), u[at].tolist(),
                               u[at + 1].tolist()):
        if k != last:  # cand[k] starts a run, and so its step
            prod = first
        prod *= value
        last = k + 1
        if not prod > limit:
            ends.append(last)
            prod = 1.0
    jumps = cand
    if ends:  # drop the candidates that end their step; np.delete costs more
        keep = np.ones(len(cand), dtype=bool)
        keep[ends] = False
        jumps = cand[keep]
    kept = len(jumps)
    steps = [jumps - np.arange(kept)]  # a jump's step: uniforms before it
    done = size - kept  # steps ended within the bulk draw
    if kept and jumps[-1] == size - 1:
        # the bulk draw ends inside step `done`: continue its product
        if last != len(cand) - 1:
            prod = float(u[-1])  # an isolated last candidate
        extra = 0
        while True:
            prod *= rng.random()
            if not prod > limit:
                break
            extra += 1
        steps.append(np.full(extra, done))
        done += 1
    steps.append(np.repeat(np.arange(done, size),
                           rng.poisson(rate, size - done)))
    return np.concatenate(steps), u


def draw_transition_jump_sum(params: ModelParams, h: float,
                             rng: np.random.Generator,
                             size: int) -> np.ndarray:
    """Draw the jump contributions of ``size`` independent observation
    steps.

    Per step: N ~ Poisson(lam h); each of the N jumps draws its own
    U ~ Uniform[0,1] and then a two-sided exponential with rates
    (eta, phi) * exp(theta h U).  Returns the per-step sums (0 when N = 0).

    The counts are those of ``rng.poisson(lam h, size)``, bit for bit, and
    the stream after them is where ``rng.poisson`` leaves it.  For small
    ``lam h`` they are replayed from one bulk uniform draw (see
    ``_jump_steps``), which takes about half the time at ``lam h = 0.02``.
    """
    if not h > 0:
        raise ValueError(f"h must be > 0, got {h!r}")
    step_of_jump, drawn = _jump_steps(params.lam * h, rng, size)
    total = len(step_of_jump)
    scale = np.exp(params.theta * h * rng.random(total))
    # two-sided exponential draws at rates (eta, phi) * scale, up with
    # probability p: mag / (-phi * scale) is -mag / (phi * scale) bit for bit
    side = rng.random(total)
    mag = rng.standard_exponential(total)
    scale *= np.where(side < params.p, params.eta, -params.phi)
    jumps = mag / scale
    # freed after the jump draws, so that the sums reuse its memory: one
    # path-sized array at a time
    del drawn
    # float64 even when no jump lands: bincount of no weights is int64
    return np.bincount(step_of_jump, weights=jumps,
                       minlength=size).astype(np.float64, copy=False)


@functools.lru_cache(maxsize=16)
def _block_factors(rate: float) -> tuple[np.ndarray, np.ndarray]:
    """Read-only ``(e^{rate k}, e^{-rate k})`` for ``k < B``, the longest
    block: ``B = min(_MAX_BLOCK, _SPAN // rate)``, at least 1.

    Cached: a Monte Carlo run simulates every replication at one rate, and
    at n = 1e4 the factors cost about a sixth of the recursion.
    """
    steps = int(min(_MAX_BLOCK, max(1.0, _SPAN // rate)))
    # rate = hi + lo with hi of 40 significant bits: hi * k is exact for
    # k < 2^13, and e^{-lo k} = 1 - lo k within (lo k)^2 / 2 < 1e-20, so
    # each factor is within a few ulp of e^{-+rate k}
    mant, exp2 = math.frexp(rate)
    hi = math.ldexp(math.floor(math.ldexp(mant, 40)), exp2 - 40)
    k = np.arange(steps, dtype=float)
    shrink = np.exp(-hi * k)
    shrink -= shrink * ((rate - hi) * k)
    grow = 1.0 / shrink
    grow.flags.writeable = shrink.flags.writeable = False
    return grow, shrink


def _ar1_in_place(y: np.ndarray, rate: float, x0: float) -> np.ndarray:
    """Overwrite ``y`` with ``X_j = a X_{j-1} + y_j``, ``a = e^{-rate}``,
    ``X_{-1} = x0``, and return it.

    Blocks of ``B`` steps (``rate * B <= _SPAN``, ``B <= _MAX_BLOCK``) are
    the rows of a 2-D view; the last ``len(y) % B`` steps are a shorter
    block.  Each row is scaled by ``e^{rate k}``, and its sum gives the
    block's end value from a zero start.  The end values from the true
    starts follow from ``E_b = a^B E_{b-1} + e_b``, a scan over the blocks
    in log-many vector passes.  Each block's start ``a E_{b-1}`` then
    enters its first element before the cumulative sum along the row and
    the rescale by ``e^{-rate k}``.
    """
    n = len(y)
    grow, shrink = _block_factors(rate)
    steps = min(n, len(grow))
    grow, shrink = grow[:steps], shrink[:steps]
    a = math.exp(-rate)
    full = n - n % steps
    rows, tail = y[:full].reshape(-1, steps), y[full:]

    rows *= grow
    ends = np.add.reduce(rows, axis=1)
    ends *= shrink[-1]
    # with f = a^B: after the pass with shift s, ends[b] is
    # sum_{i < 2s} f^i e_{b-i}, x0 entering as f x0 in e_0; the passes end
    # once they span all blocks or f^s underflows to zero
    factor = a * float(shrink[-1])
    ends[0] += factor * x0
    shift = 1
    while shift < len(ends) and factor > 0.0:
        ends[shift:] += factor * ends[:-shift]
        shift, factor = 2 * shift, factor * factor
    rows[0, 0] += a * x0
    rows[1:, 0] += a * ends[:-1]
    np.add.accumulate(rows, axis=1, out=rows)
    rows *= shrink

    if len(tail):
        tail *= grow[:len(tail)]
        tail[0] += a * ends[-1]
        np.add.accumulate(tail, out=tail)
        tail *= shrink[:len(tail)]
    return y


def simulate_path(params: ModelParams, x0: float, h: float, n: int, seed: int,
                  burn_in: Optional[int] = None,
                  replication: int = 0) -> SamplePath:
    """Simulate ``n`` retained observations of the process.

    Starts at ``x0`` and discards ``burn_in`` initial steps (default
    ``ceil(10/(theta h))``) so the retained samples approximate the
    stationary regime; retained observations are re-indexed to t_j = j h.
    Deterministic given (seed, replication).

    The jump sums of all ``burn_in + n`` steps are drawn at once and the
    recursion ``X_j = e^{-theta h} X_{j-1} + J_j`` overwrites them in
    place, block by block (see the module docstring); the bulk uniforms or
    Poisson counts are freed before the sums are made, so at
    ``lam h = 0.02`` memory peaks at about 1.15 times the path's bytes.
    ``X`` is within rounding (below 1e-15 of ``max|X|`` at
    ``theta h = 0.04``) of the sequential loop over the same draws.
    """
    if n < 2:
        raise ValueError(f"n must be >= 2, got {n!r}")
    if not h > 0:
        raise ValueError(f"h must be > 0, got {h!r}")
    if burn_in is None:
        burn_in = default_burn_in(params.theta, h)
    elif burn_in < 0:
        raise ValueError(f"burn_in must be >= 0, got {burn_in!r}")

    rng = make_rng(seed, replication)
    jump_sums = draw_transition_jump_sum(params, h, rng, size=burn_in + n)
    x = _ar1_in_place(jump_sums, params.theta * h, x0)
    return SamplePath(h=h, values=x[burn_in:], x0=x0, seed=seed,
                      replication=replication, burn_in=burn_in)
