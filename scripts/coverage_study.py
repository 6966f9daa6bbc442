#!/usr/bin/env python3
"""Monte Carlo coverage study for the delta-method intervals.

Simulates many independent paths at the reference parameters, runs the full
calibration plus covariance pipeline on each, and reports how often the
nominal-level interval of each of p, rho, xi and theta covers the truth,
together with the normality diagnostics of the standardized first-moment
statistic.  A parameter whose estimated variance is negative gets no
interval; such a replication counts as not covering and is also counted in
``no_interval``.  The intervals use the model's long-run covariance at the
estimates.
"""

import argparse
import json

import numpy as np
from scipy.stats import normaltest

from dexpou import (
    ModelParams,
    analytic_moments,
    confidence_intervals,
    covariance_estimate,
    estimate_all,
    simulate_path,
)
from dexpou.errors import EstimationError
from dexpou.model import PARAM_ORDER


def run(reps: int, n: int, seed: int, level: float) -> dict:
    params = ModelParams(theta=2.0, eta=1.2, phi=1.6, p=0.6)
    truth = analytic_moments(params, 0.02)
    truth_params = {name: getattr(params, name) for name in PARAM_ORDER}
    covered = dict.fromkeys(PARAM_ORDER, 0)
    no_interval = dict.fromkeys(PARAM_ORDER, 0)
    failed = 0
    standardized = []
    for rep in range(reps):
        path = simulate_path(params, x0=0.0, h=0.02, n=n, seed=seed,
                             replication=rep)
        try:
            result = estimate_all(path)
            cov = covariance_estimate(path, result)
            ci = confidence_intervals(result, cov, level=level)
        except EstimationError:
            failed += 1
            continue
        for name, value in truth_params.items():
            if name not in ci.intervals:
                no_interval[name] += 1
                continue
            lo, hi = ci.intervals[name]
            covered[name] += lo <= value <= hi
        mu1 = result.moments.mu1
        standardized.append(
            np.sqrt(cov.n) * (mu1 - truth.mu1) / np.sqrt(cov.A[0, 0])
        )
    ok = reps - failed
    stat = np.asarray(standardized)
    return {
        "reps": reps,
        "n": n,
        "level": level,
        "failed": failed,
        "coverage": {name: covered[name] / ok if ok else None
                     for name in PARAM_ORDER},
        "no_interval": no_interval,
        "normaltest_pvalue": float(normaltest(stat).pvalue) if ok > 20 else None,
        "standardized_std": float(stat.std()) if ok else None,
    }


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--reps", type=int, default=500)
    ap.add_argument("--n", type=int, default=10_000)
    ap.add_argument("--seed", type=int, default=777)
    ap.add_argument("--level", type=float, default=0.95)
    args = ap.parse_args()
    summary = run(args.reps, args.n, args.seed, args.level)
    print(json.dumps(summary, indent=2))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
