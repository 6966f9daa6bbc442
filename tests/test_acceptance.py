"""Acceptance gate: every release criterion at its stated tolerance.

Each test prints one PASS/FAIL line (run pytest with -s to see them on
success; they also appear in captured output on failure).
"""

import json
import math
import time

import numpy as np
from scipy.stats import normaltest

from dexpou import (
    ModelParams,
    analytic_moments,
    confidence_intervals,
    covariance_estimate,
    estimate_all,
    estimate_from_moments,
    h_map,
    jacobian_h,
    jacobian_tilde_h,
    joint_char_fn,
    make_rng,
    simulate_path,
    solve_p,
    stationary_char_fn,
    tilde_h_map,
)
from dexpou.cli import main as cli_main
from dexpou.errors import EstimationError, NoRoot
from dexpou.estimate import scan_g
from dexpou.model import PARAM_ORDER

from conftest import H_REF, random_valid_params
from oracles import empirical_char_fn, empirical_joint_char_fn
from test_estimate import exact_f, no_root_f
from test_model import _fd_jacobian


def report(number: int, name: str, ok: bool, detail: str) -> None:
    print(f"ACCEPTANCE {number} ({name}): {'PASS' if ok else 'FAIL'} - {detail}")


def test_criterion_1_exact_inversion():
    rng = np.random.default_rng(4242)
    t0 = time.time()
    worst = 0.0
    for _ in range(200):
        params = random_valid_params(rng)
        h = rng.uniform(0.005, 0.5) / params.theta
        r = estimate_from_moments(analytic_moments(params, h))
        worst = max(worst,
                    abs(r.theta_hat - params.theta), abs(r.p_hat - params.p),
                    abs(r.eta_hat - params.eta), abs(r.phi_hat - params.phi))
    elapsed = time.time() - t0
    ok = worst <= 1e-8 and elapsed < 10.0
    report(1, "exact inversion", ok,
           f"worst abs error {worst:.2e} (tol 1e-8), {elapsed:.1f}s (< 10s)")
    assert ok


def test_criterion_2_simulator_law(ref_params, ref_moments):
    from dexpou import draw_transition_jump_sum
    t0 = time.time()
    n = 1_000_000
    rng = make_rng(20240601)
    draws = draw_transition_jump_sum(ref_params, H_REF, rng, size=n)
    decay = math.exp(-2.0 * H_REF)
    mean_expect = ref_moments.mu1 * (1.0 - decay)
    var_expect = (ref_moments.mu2 - ref_moments.mu1**2) * (1.0 - decay**2)
    se_mean = draws.std() / math.sqrt(n)
    mean_dev = abs(draws.mean() - mean_expect)
    centered = (draws - draws.mean()) ** 2
    se_var = centered.std() / math.sqrt(n)
    var_dev = abs(draws.var() - var_expect)
    elapsed = time.time() - t0
    ok = mean_dev < 4 * se_mean and var_dev < 4 * se_var and elapsed < 30.0
    report(2, "one-step transition law", ok,
           f"mean dev {mean_dev / se_mean:.2f} SE, var dev {var_dev / se_var:.2f} SE "
           f"(both < 4), {elapsed:.1f}s (< 30s)")
    assert ok


def test_criterion_3_ergodic_cf(ref_params):
    t0 = time.time()
    path = simulate_path(ref_params, 0.0, H_REF, 100_000, seed=1)
    devs = {
        f"u={u}": abs(empirical_char_fn(path, u) - stationary_char_fn(ref_params, u))
        for u in (0.5, 1.0, 2.0)
    }
    devs["joint(1,1)"] = abs(empirical_joint_char_fn(path, 1.0, 1.0)
                             - joint_char_fn(ref_params, 1.0, 1.0, H_REF))
    elapsed = time.time() - t0
    worst = max(devs.values())
    ok = worst < 0.02 and elapsed < 10.0
    report(3, "ergodic CF convergence", ok,
           f"max deviation {worst:.4f} (< 0.02), {elapsed:.1f}s (< 10s)")
    assert ok


def test_criterion_4_table_reproduction(ref_params):
    t0 = time.time()
    estimates = []
    for rep in range(20):
        path = simulate_path(ref_params, 0.0, H_REF, 3000, seed=20260810,
                             replication=rep)
        r = estimate_all(path)
        estimates.append((r.p_hat, r.eta_hat, r.phi_hat, r.theta_hat))
    med = np.median(np.array(estimates), axis=0)
    bands = [(0.55, 0.65), (1.1, 1.3), (1.45, 1.75), (1.9, 2.1)]
    elapsed = time.time() - t0
    ok = all(lo < v < hi for v, (lo, hi) in zip(med, bands)) and elapsed < 120.0
    report(4, "reference-table medians", ok,
           f"medians (p,eta,phi,theta) = ({med[0]:.4f}, {med[1]:.4f}, "
           f"{med[2]:.4f}, {med[3]:.4f}) in bands "
           f"(0.55,0.65)x(1.1,1.3)x(1.45,1.75)x(1.9,2.1), {elapsed:.1f}s (< 2min)")
    assert ok


def test_criterion_5_jacobians():
    rng = np.random.default_rng(20240503)
    worst = 0.0
    for _ in range(20):
        params = random_valid_params(rng)
        h = rng.uniform(0.005, 0.5) / params.theta
        point = np.array([params.p, params.rho, params.xi, params.theta])
        J = jacobian_h(params.theta, params.rho, params.xi, params.p, h)
        J_fd = _fd_jacobian(lambda v: h_map(v[3], v[1], v[2], v[0], h), point)
        worst = max(worst, float(np.max(np.abs(J - J_fd) / (np.abs(J_fd) + 1e-9))))
        mu = rng.uniform(-1.0, 1.0, size=4)
        Jt = jacobian_tilde_h(mu)
        Jt_fd = _fd_jacobian(tilde_h_map, mu)
        worst = max(worst, float(np.max(np.abs(Jt - Jt_fd) / (np.abs(Jt_fd) + 1e-9))))
    ok = worst <= 1e-6
    report(5, "Jacobians vs finite differences", ok,
           f"worst relative error {worst:.2e} (tol 1e-6)")
    assert ok


def _coverage(params, h, n, reps, seed):
    """Interval coverage of (p, rho, xi, theta) over independent paths, the
    count of runs that failed or got no theta interval, and the
    standardized first-moment statistics."""
    truth = {name: getattr(params, name) for name in PARAM_ORDER}
    m1 = analytic_moments(params, h).mu1
    covered = dict.fromkeys(PARAM_ORDER, 0)
    failed = 0
    standardized = []
    for rep in range(reps):
        path = simulate_path(params, 0.0, h, n, seed=seed, replication=rep)
        try:
            result = estimate_all(path)
            cov = covariance_estimate(path, result)
            ci = confidence_intervals(result, cov, level=0.95)
        except EstimationError:
            ci = None
        if ci is None or "theta" not in ci.intervals:
            failed += 1
            continue
        for name, value in truth.items():
            # a missing interval (negative variance) does not cover
            lo, hi = ci.intervals.get(name, (math.nan, math.nan))
            covered[name] += lo <= value <= hi
        standardized.append(
            math.sqrt(cov.n) * (result.moments.mu1 - m1) / math.sqrt(cov.A[0, 0])
        )
    coverage = {name: c / (reps - failed) for name, c in covered.items()}
    return coverage, failed, standardized


def test_criterion_6_clt_coverage(ref_params):
    t0 = time.time()
    coverage, failed, standardized = _coverage(ref_params, H_REF, 10_000,
                                               500, seed=777)
    pvalue = normaltest(np.array(standardized)).pvalue
    # a second point, reported but not gated: slower reversion, p < 1/2
    second, second_failed, _ = _coverage(
        ModelParams(theta=0.5, eta=2.5, phi=0.8, p=0.3), 0.1, 10_000, 300,
        seed=777)
    elapsed = time.time() - t0
    ok = (all(0.91 <= c <= 0.99 for c in coverage.values())
          and pvalue > 0.01 and elapsed < 600.0)
    shown = lambda cov: ", ".join(f"{k} {v:.3f}" for k, v in cov.items())
    report(6, "CLT and interval coverage", ok,
           f"coverage {shown(coverage)} (each in [0.91, 0.99]), normality "
           f"p = {pvalue:.3f} (> 0.01), {failed} failed runs, "
           f"{elapsed:.1f}s (< 10min); second point (not gated) "
           f"{shown(second)}, {second_failed} failed runs")
    assert ok


def test_criterion_7_root_solver(ref_params):
    f = exact_f(ref_params)
    p_hat, _ = solve_p(f)
    sign_changes = len(scan_g(f).brackets)
    unique = sign_changes == 1
    close = abs(p_hat - 0.6) <= 1e-8
    no_root_ok = False
    try:
        solve_p(no_root_f(ref_params))
    except NoRoot:
        no_root_ok = True
    except EstimationError:
        no_root_ok = False
    ok = unique and close and no_root_ok
    report(7, "root-solver guarantees", ok,
           f"sign changes {sign_changes} (= 1), |p - 0.6| = "
           f"{abs(p_hat - 0.6):.2e} (tol 1e-8), NoRoot raised: {no_root_ok}")
    assert ok


def test_criterion_8_determinism(tmp_path):
    csv_out = tmp_path / "path.csv"
    args = ["simulate", "--n", "1000", "--seed", "123", "--out", str(csv_out)]
    assert cli_main(args) == 0
    first_csv = csv_out.read_bytes()
    first_meta = (tmp_path / "path.meta.json").read_bytes()
    assert cli_main(args) == 0
    same_sim = (csv_out.read_bytes() == first_csv
                and (tmp_path / "path.meta.json").read_bytes() == first_meta)

    res = tmp_path / "res.json"
    est_args = ["estimate", str(csv_out), "--out", str(res)]
    assert cli_main(est_args) == 0
    first_json = res.read_bytes()
    assert cli_main(est_args) == 0
    same_est = res.read_bytes() == first_json

    table = tmp_path / "tab.csv"
    exp_args = ["experiment", "--n-values", "200,400", "--seeds", "2",
                "--out", str(table)]
    assert cli_main(exp_args) == 0
    first_table = table.read_bytes()
    assert cli_main(exp_args) == 0
    same_exp = table.read_bytes() == first_table

    ok = same_sim and same_est and same_exp
    report(8, "byte determinism", ok,
           f"simulate {same_sim}, estimate {same_est}, experiment {same_exp}")
    assert ok
    assert json.loads(first_json)["estimates"]["theta"] > 0
