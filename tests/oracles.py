"""Test-side oracles that the package itself does not use: the empirical
characteristic functions of a path, and the two-sided exponential draw that
the transition sampler's jump sums are built from."""

import numpy as np


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


def empirical_char_fn(path, u):
    """Empirical characteristic function (1/n) sum exp(i u X_j).
    Diagnostic only; compares against the analytic stationary CF."""
    x = path.values
    if len(x) == 0:
        raise ValueError("path is empty")
    u = np.asarray(u, dtype=float)
    val = np.mean(np.exp(1j * np.multiply.outer(u, x)), axis=-1)
    return complex(val) if val.ndim == 0 else val


def empirical_joint_char_fn(path, u, v):
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
