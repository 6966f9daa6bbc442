#!/usr/bin/env python3
"""Differential fuzz of the delta method's condition gate against the SVD.

Draws ``--points`` random standardised points ``(theta, rho, xi, p, h)``
from ``--seed``: the larger of rho and xi in [0.5, 1), as
``covariance_estimate`` scales them, the smaller log-uniform down to 1e-3
of it, theta log-uniform on [1e-2, 1e2], p uniform on (1e-6, 1 - 1e-6)
and h log-uniform on [1e-14, 10], so that near-singular Jacobians are
common.  The moments are the model's at the point.  For each point the
2-norm condition number ``cond`` of ``jacobian_h`` is taken from
``np.linalg.cond``, and three things are checked:

- ``sigma_matrix`` raises ``SingularJacobian`` exactly when ``cond`` is
  1e12 or more, and never another error;
- below the limit, the Frobenius number lies within [cond, 4 cond], up
  to a rounding of 1e-3 of either bound, and no point that the gate
  passes without an SVD has a ``cond`` of 1e12/4 or more;
- ``CovarianceEstimate.jacobian_condition`` equals ``cond`` bit for bit.

Exits 1 naming the first point that fails a check, 0 when none does.

    PYTHONPATH=src python scripts/cond_fuzz.py --points 20000 --seed 1
"""

import argparse
import math
import sys

import numpy as np

from dexpou import (CovarianceEstimate, jacobian_h, jacobian_tilde_h,
                    sigma_matrix, stationary_cumulants)
from dexpou import asymptotics
from dexpou.errors import SingularJacobian

LIMIT = asymptotics.MAX_JACOBIAN_COND
# The rounding allowed to the Frobenius number's bounds below the limit,
# where the solve for B loses at most about cond * 1e-16 of its digits.
BOUND_RTOL = 1e-3


def _points(rng, count):
    """``count`` random ``(theta, rho, xi, p, h)``, standardised."""
    for _ in range(count):
        large = float(rng.uniform(0.5, 1.0))
        small = large * 10.0 ** float(rng.uniform(-3, 0))
        rho, xi = (large, small) if rng.random() < 0.5 else (small, large)
        yield (10.0 ** float(rng.uniform(-2, 2)), rho, xi,
               float(rng.uniform(1e-6, 1 - 1e-6)),
               10.0 ** float(rng.uniform(-14, 1)))


def _check(theta, rho, xi, p, h):
    """``(problem, outcome)``: the check the point fails, or None, and
    whether the fit raised, passed the gate without an SVD or took one."""
    k1, k2 = stationary_cumulants(theta, rho, xi, p)[:2].tolist()
    mu = (k1, k2 + k1 * k1)
    Jh = jacobian_h(theta, rho, xi, p, h)
    with np.errstate(divide="ignore"):
        cond = float(np.linalg.cond(Jh))
    got = CovarianceEstimate(A=np.eye(4), Sigma=np.eye(4), n=1,
                             jacobian=Jh).jacobian_condition
    if got != cond:
        return f"jacobian_condition {got!r} is not cond = {cond!r}", None
    try:
        sigma_matrix(np.eye(4), mu + (0.0, 0.0), theta, rho, xi, p, h)
    except SingularJacobian:
        if cond < LIMIT:
            return f"SingularJacobian raised at cond = {cond!r}", None
        return None, "raised"
    if not cond < LIMIT:
        return f"SingularJacobian not raised at cond = {cond!r}", None
    B = np.linalg.solve(Jh, jacobian_tilde_h(mu))
    frobenius = asymptotics._frobenius_number(Jh, B, *mu)
    if not cond * (1 - BOUND_RTOL) <= frobenius <= 4 * cond * (1 + BOUND_RTOL):
        return f"the Frobenius number {frobenius!r} is not in [cond, " \
               f"4 cond] for cond = {cond!r}", None
    if frobenius < asymptotics._FROBENIUS_GATE:
        if not cond < LIMIT / 4:
            return f"the gate passed cond = {cond!r} without an SVD", None
        return None, "gated"
    return None, "near" if cond >= LIMIT / 4 else "svd"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--points", type=int, default=20_000)
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args(argv)
    if args.points < 0:
        parser.error("--points must be >= 0")

    outcomes = dict.fromkeys(("gated", "svd", "near", "raised"), 0)
    for point in _points(np.random.default_rng(args.seed), args.points):
        problem, outcome = _check(*point)
        if problem:
            print(f"{problem}: (theta, rho, xi, p, h) = {point!r}",
                  file=sys.stderr)
            return 1
        outcomes[outcome] += 1
    print(f"{args.points} points match the SVD at cond {LIMIT:g} (seed "
          f"{args.seed}): {outcomes['gated']} passed the Frobenius gate "
          f"without an SVD, {outcomes['svd'] + outcomes['near']} passed "
          f"after it ({outcomes['near']} with cond in [{LIMIT / 4:g}, "
          f"{LIMIT:g})), {outcomes['raised']} raised SingularJacobian")
    return 0


if __name__ == "__main__":
    sys.exit(main())
