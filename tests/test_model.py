"""Analytic oracles: characteristic functions, moments, parameter maps."""

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from dexpou import (
    ModelParams,
    analytic_moments,
    h_map,
    jacobian_h,
    jacobian_tilde_h,
    joint_char_fn,
    model_long_run_cov,
    observable_autocov,
    simulate_path,
    stationary_char_fn,
    stationary_cumulants,
    tilde_h_map,
)

from conftest import H_REF, random_valid_params
from test_estimate import CRITERION_6_POINTS, criterion_6_fits

# Exact reference moments at (theta=2, p=0.6, eta=1.2, phi=1.6, lam=1):
# m1 = (1/2)(0.6/1.2 - 0.4/1.6), m2 - m1^2 = (1/2)(0.6/1.2^2 + 0.4/1.6^2).
M1_EXACT = 0.125
VAR_EXACT = 55.0 / 192.0
M2_EXACT = VAR_EXACT + M1_EXACT**2          # = 29/96
M4_EXACT = math.exp(-2.0 * H_REF) * VAR_EXACT + M1_EXACT**2

valid_params = st.builds(
    ModelParams,
    theta=st.floats(0.5, 5.0),
    eta=st.floats(0.5, 5.0),
    phi=st.floats(0.5, 5.0),
    p=st.floats(0.1, 0.9),
)


class TestModelParams:
    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError, match="theta"):
            ModelParams(theta=0.0, eta=1.0, phi=1.0, p=0.5)
        with pytest.raises(ValueError, match="p"):
            ModelParams(theta=1.0, eta=1.0, phi=1.0, p=1.0)

    def test_q_and_derived(self, ref_params):
        assert ref_params.q == pytest.approx(0.4)
        assert ref_params.rho == pytest.approx(1.0 / 1.2)
        assert ref_params.xi == pytest.approx(1.0 / 1.6)

    @pytest.mark.parametrize("name",
                             [f.name for f in dataclasses.fields(ModelParams)])
    def test_every_field_moves_simulator_and_oracle(self, ref_params, name):
        # a field that one side ignores makes the two describe different
        # processes under the same parameters
        changed = dataclasses.replace(
            ref_params, **{name: 0.75 * getattr(ref_params, name)})

        def values(params):
            return simulate_path(params, x0=0.0, h=H_REF, n=2000, seed=1,
                                 burn_in=50).values

        def moments(params):
            return analytic_moments(params, H_REF).to_array()

        assert not np.array_equal(values(changed), values(ref_params))
        assert not np.array_equal(moments(changed), moments(ref_params))


class TestStationaryCharFn:
    def test_value_one_at_zero(self, ref_params):
        assert stationary_char_fn(ref_params, 0.0) == 1.0 + 0.0j

    def test_bounded_by_one(self, ref_params):
        u = np.linspace(-20.0, 20.0, 401)
        assert np.all(np.abs(stationary_char_fn(ref_params, u)) <= 1.0 + 1e-12)

    @given(params=valid_params, u=st.floats(-10.0, 10.0))
    @settings(max_examples=60, deadline=None)
    def test_conjugate_symmetry(self, params, u):
        lhs = stationary_char_fn(params, -u)
        rhs = np.conj(stationary_char_fn(params, u))
        assert abs(lhs - rhs) < 1e-14

    def test_first_derivative_matches_mean(self, ref_params):
        # central finite difference of the CF at 0, divided by i
        eps = 1e-3
        d1 = (stationary_char_fn(ref_params, eps)
              - stationary_char_fn(ref_params, -eps)) / (2.0 * eps)
        assert (d1 / 1j).real == pytest.approx(M1_EXACT, abs=1e-6)


class TestJointCharFn:
    def test_v_zero_reduces_to_stationary(self, ref_params):
        u = np.linspace(-5.0, 5.0, 41)
        joint = joint_char_fn(ref_params, u, 0.0, H_REF)
        stat = stationary_char_fn(ref_params, u)
        assert np.max(np.abs(joint - stat)) < 1e-12

    def test_both_zero_is_one(self, ref_params):
        assert joint_char_fn(ref_params, 0.0, 0.0, H_REF) == pytest.approx(1.0)

    def test_u_zero_reduces_by_stationarity(self, ref_params):
        # E[exp(i w X_h)] = E[exp(i w X_0)]: the product collapses
        for w in (0.3, 1.0, -2.5):
            joint = joint_char_fn(ref_params, 0.0, w, H_REF)
            stat = stationary_char_fn(ref_params, w)
            assert abs(joint - stat) < 1e-14


class TestAnalyticMoments:
    def test_reference_values(self, ref_moments):
        assert ref_moments.mu1 == pytest.approx(M1_EXACT, abs=1e-15)
        assert ref_moments.mu2 == pytest.approx(M2_EXACT, abs=1e-15)
        assert ref_moments.mu4 == pytest.approx(M4_EXACT, abs=1e-15)

    def test_against_cf_derivatives(self, ref_params, ref_moments):
        # independent oracle: numerical differentiation of the CFs at 0
        eps = 1e-3
        cf = lambda u: stationary_char_fn(ref_params, u)
        d2 = (cf(eps) - 2.0 * cf(0.0) + cf(-eps)) / eps**2
        d3 = (cf(2 * eps) - 2 * cf(eps) + 2 * cf(-eps) - cf(-2 * eps)) / (2 * eps**3)
        jf = lambda u, v: joint_char_fn(ref_params, u, v, H_REF)
        d11 = (jf(eps, eps) - jf(eps, -eps) - jf(-eps, eps)
               + jf(-eps, -eps)) / (4.0 * eps**2)
        assert (-d2).real == pytest.approx(ref_moments.mu2, abs=1e-6)
        assert (1j * d3).real == pytest.approx(ref_moments.mu3, abs=1e-5)
        assert (-d11).real == pytest.approx(ref_moments.mu4, abs=1e-6)

    def test_symmetric_case_odd_moments_vanish(self):
        params = ModelParams(theta=1.7, eta=2.5, phi=2.5, p=0.5)
        m = analytic_moments(params, 0.1)
        assert m.mu1 == pytest.approx(0.0, abs=1e-15)
        assert m.mu3 == pytest.approx(0.0, abs=1e-15)

    @given(params=valid_params, h=st.floats(0.005, 0.5))
    @settings(max_examples=60, deadline=None)
    def test_autocovariance_decay_identity(self, params, h):
        m = analytic_moments(params, h)
        lhs = m.mu4 - m.mu1**2
        rhs = math.exp(-params.theta * h) * (m.mu2 - m.mu1**2)
        assert lhs == pytest.approx(rhs, rel=1e-12)

    @given(params=valid_params)
    @settings(max_examples=60, deadline=None)
    def test_variance_positive(self, params):
        m = analytic_moments(params, 0.05)
        assert m.mu2 - m.mu1**2 > 0


class TestStationaryCumulants:
    @given(params=valid_params)
    @settings(max_examples=60, deadline=None)
    def test_first_three_match_analytic_moments(self, params):
        m = analytic_moments(params, 0.05)
        k = stationary_cumulants(params.theta, params.rho, params.xi, params.p)
        assert k[0] == pytest.approx(m.mu1, rel=1e-12, abs=1e-14)
        assert k[1] == pytest.approx(m.mu2 - m.mu1**2, rel=1e-12)
        assert k[2] == pytest.approx(m.mu3 - 3 * m.mu1 * m.mu2 + 2 * m.mu1**3,
                                     rel=1e-9, abs=1e-12)

    def test_match_series_of_log_char_fn(self):
        # exact oracle up to order 6: kappa_r = r! [u^r] log CF(u) / i^r
        sp = pytest.importorskip("sympy")
        u = sp.Symbol("u")
        theta, rho, xi, p = (sp.Rational(2), sp.Rational(5, 6),
                             sp.Rational(5, 8), sp.Rational(3, 5))
        log_cf = (-(p / theta) * sp.log(1 - sp.I * u * rho)
                  - ((1 - p) / theta) * sp.log(1 + sp.I * u * xi))
        series = sp.series(log_cf, u, 0, 7).removeO()
        exact = [sp.factorial(r) * series.coeff(u, r) / sp.I**r
                 for r in range(1, 7)]
        got = stationary_cumulants(2.0, 5 / 6, 5 / 8, 0.6)
        assert np.allclose(got, [float(sp.re(e)) for e in exact],
                           rtol=1e-14, atol=0)


def _moments_from_cumulants(kappa):
    mu = [1.0]
    for n in range(1, len(kappa) + 1):
        mu.append(sum(math.comb(n - 1, k - 1) * kappa[k - 1] * mu[n - k]
                      for k in range(1, n + 1)))
    return np.array(mu)


def _step(f, kappa, b):
    """Coefficients of x -> E[f(b x + E)], E independent with cumulants
    kappa_r (1 - b^r): the transition after b = e^{-theta h k}."""
    nu = _moments_from_cumulants([kr * (1 - b ** (r + 1))
                                  for r, kr in enumerate(kappa)])
    g = np.zeros(len(f))
    for m, fm in enumerate(f):
        for d in range(m + 1):
            g[d] += fm * math.comb(m, d) * b**d * nu[m - d]
    return g


def _mul(f, g):
    return np.convolve(f, g)[:len(f)]


def autocov_direct(theta, rho, xi, p, h, lag):
    """Reference Gamma(lag) of (X, X^2, X^3, X X_{+1}) from nested
    conditional expectations, one lag at a time, with functions of x held
    as polynomial coefficients of degree <= 6."""
    q, a = 1.0 - p, math.exp(-theta * h)
    kappa = [math.factorial(r - 1) * (p * rho**r + (-1) ** r * q * xi**r)
             / theta for r in range(1, 7)]
    mu = _moments_from_cumulants(kappa)
    mean = lambda f: f @ mu
    step = lambda f, b: _step(f, kappa, b)
    x = list(np.eye(7))                          # x[n] is x**n
    # E[Y_j(t) | X_t = x]; the lag product conditions on its first point
    cond = x[1:4] + [_mul(x[1], step(x[1], a))]
    gamma = np.empty((4, 4))
    for j in range(4):
        later = step(cond[j], a**lag)            # E[Y_j(lag) | X_0 = x]
        for i in range(3):
            gamma[i, j] = mean(_mul(x[i + 1], later))
        if lag > 0:                              # X_0 E[X_1 E[Y_j | X_1] | X_0]
            inner = _mul(x[1], step(cond[j], a ** (lag - 1)))
            gamma[3, j] = mean(_mul(x[1], step(inner, a)))
        elif j < 3:                              # E[X_0^(j+2) X_1]
            gamma[3, j] = mean(_mul(x[j + 2], step(x[1], a)))
        else:                                    # E[X_0^2 X_1^2]
            gamma[3, j] = mean(_mul(x[2], step(x[2], a)))
    means = np.array([mean(c) for c in cond])
    return gamma - np.outer(means, means)


class TestModelLongRunCov:
    POINTS = [(2.0, 1 / 1.2, 1 / 1.6, 0.6, H_REF),
              (0.5, 0.4, 1.25, 0.3, 0.1),
              (3.0, 2.0, 0.3, 0.85, 0.05)]

    @pytest.mark.parametrize("lag", [0, 1, 2, 7, 60])
    def test_autocov_matches_direct(self, lag):
        for point in self.POINTS:
            got = observable_autocov(*point, lag)
            expect = autocov_direct(*point, lag)
            assert np.allclose(got, expect, rtol=1e-11,
                               atol=1e-13 * np.abs(expect).max())

    def test_geometric_sum_matches_brute_force(self):
        for point in self.POINTS:
            theta, h = point[0], point[4]
            lags = max(1000, math.ceil(40.0 / (theta * h)))
            brute = autocov_direct(*point, 0)
            for k in range(1, lags + 1):
                g = autocov_direct(*point, k)
                brute += g + g.T
            A = model_long_run_cov(*point)
            assert np.allclose(A, brute, rtol=1e-12, atol=0)

    def test_power_block_matches_joint_char_fn(self):
        # exact oracle for Cov(X_0^i, X_k^j), i, j <= 3: the Taylor series
        # of the joint MGF of (X_0, X_k), the real form of joint_char_fn,
        # with e^{-theta h k} = 1/3 and exact rational parameters
        sp = pytest.importorskip("sympy")
        u, v, t = sp.symbols("u v t")
        theta, rho, xi, p = (sp.Integer(2), sp.Rational(5, 6),
                             sp.Rational(5, 8), sp.Rational(3, 5))
        decay = sp.Rational(1, 3)
        plr, qlr = p / theta, (1 - p) / theta
        w = t * (u + v * decay)
        log_mgf = (-plr * sp.log(1 - rho * w) - qlr * sp.log(1 + xi * w)
                   + plr * (sp.log(1 - rho * decay * t * v)
                            - sp.log(1 - rho * t * v))
                   + qlr * (sp.log(1 + xi * decay * t * v)
                            - sp.log(1 + xi * t * v)))
        series = sp.series(log_mgf, t, 0, 7).removeO()
        mgf, term = sp.Integer(1), sp.Integer(1)
        for n in range(1, 7):   # exp of a series with no constant term
            term = sp.expand(term * series / n)
            term = sum(term.coeff(t, k) * t**k for k in range(7))
            mgf += term
        mgf = sp.expand(mgf)

        def moment(i, j):
            c = sp.Poly(mgf.coeff(t, i + j), u, v).coeff_monomial(u**i * v**j)
            return sp.factorial(i) * sp.factorial(j) * c

        exact = np.array([[float(moment(i, j) - moment(i, 0) * moment(0, j))
                           for j in range(1, 4)] for i in range(1, 4)])
        for lag in (1, 4):
            h = math.log(3.0) / (2.0 * lag)
            got = observable_autocov(2.0, 5 / 6, 5 / 8, 0.6, h, lag)[:3, :3]
            assert np.allclose(got, exact, rtol=1e-13, atol=0)

    def test_symmetric_psd(self):
        for point in self.POINTS:
            A = model_long_run_cov(*point)
            assert np.array_equal(A, A.T)
            eig = np.linalg.eigvalsh(A)
            assert eig[0] > 0

    def test_exactly_symmetric_at_criterion_6_and_fitted_points(self):
        # A = Gamma(0) + (S + S^T) with Gamma(0) built symmetric, so the
        # closed form keeps exact symmetry away from POINTS too
        points = [(params.theta, params.rho, params.xi, params.p, h)
                  for params, h in CRITERION_6_POINTS]
        fits = criterion_6_fits(3000, 20)
        assert len({path.h for path, _ in fits}) == 2   # both points
        points += [(r.theta_hat, r.rho_hat, r.xi_hat, r.p_hat, path.h)
                   for path, r in fits]
        for point in points:
            A = model_long_run_cov(*point)
            assert np.array_equal(A, A.T), point

    @pytest.mark.parametrize("point", [
        (0.0, 0.5, 0.5, 0.5, 1.0),          # theta = 0: theta h = 0
        (-1.0, 0.5, 0.5, 0.5, 300.0),       # e^{-theta h} would overflow
        (1.0, 0.5, 0.5, 0.5, 0.0),
        (1.0, 0.5, 0.5, 0.5, -300.0),
        (1.0, 0.5, 0.5, 0.5, -1000.0),
        (1.0, 0.5, 0.5, 0.5, math.nan),
    ])
    def test_invalid_point_raises_value_error(self, point):
        # the point is checked before any exponential or weight is taken
        with pytest.raises(ValueError):
            model_long_run_cov(*point)
        for lag in (0, 1, 5):
            with pytest.raises(ValueError):
                observable_autocov(*point, lag)

    def test_lag_zero_and_one_against_sample_covariances(self, ref_params):
        # batch means over 40 blocks of 25000 steps (1000 correlation
        # lengths each) give the standard error of each sample covariance
        n, batches = 1_000_001, 40
        x = simulate_path(ref_params, 0.0, H_REF, n, seed=31).values
        Y = np.vstack([x[:-1], x[:-1] ** 2, x[:-1] ** 3, x[:-1] * x[1:]])
        Y -= Y.mean(axis=1, keepdims=True)
        point = (2.0, ref_params.rho, ref_params.xi, 0.6, H_REF)
        m = (Y.shape[1] - 1) // batches * batches
        for lag in (0, 1):
            gamma = observable_autocov(*point, lag)
            for i in range(4):
                for j in range(4):
                    block = (Y[i, :m] * Y[j, lag:lag + m]).reshape(batches, -1)
                    means = block.mean(axis=1)
                    se = means.std(ddof=1) / math.sqrt(batches)
                    assert abs(means.mean() - gamma[i, j]) < 4 * se, (lag, i, j)


class TestParameterMaps:
    def test_symmetric_values(self):
        v = h_map(1.0, 0.7, 0.7, 0.5, 0.04)
        assert v[0] == pytest.approx(0.0, abs=1e-15)
        assert v[3] == pytest.approx(math.exp(-0.04) * v[1], rel=1e-14)

    def test_h1_equals_mean(self, ref_params):
        v = h_map(2.0, ref_params.rho, ref_params.xi, 0.6, H_REF)
        assert v[0] == pytest.approx(M1_EXACT, abs=1e-15)

    def test_tilde_h_values(self, ref_moments):
        t = tilde_h_map(ref_moments.to_array())
        assert t[0] == pytest.approx(M1_EXACT)
        assert t[1] == pytest.approx(VAR_EXACT, abs=1e-15)

    def test_tilde_h_zero(self):
        assert np.all(tilde_h_map([0.0, 0.0, 0.0, 0.0]) == 0.0)

    @given(params=valid_params, h=st.floats(0.005, 0.5))
    @settings(max_examples=100, deadline=None)
    def test_master_consistency(self, params, h):
        # the defining identity of the moment system: h(params) = h~(moments)
        m = analytic_moments(params, h)
        lhs = h_map(params.theta, params.rho, params.xi, params.p, h)
        rhs = tilde_h_map(m.to_array())
        assert np.max(np.abs(lhs - rhs)) < 1e-12


def _fd_jacobian(func, x, step_scale=1e-6):
    x = np.asarray(x, dtype=float)
    cols = []
    for j in range(len(x)):
        step = step_scale * max(1.0, abs(x[j]))
        hi = x.copy()
        lo = x.copy()
        hi[j] += step
        lo[j] -= step
        cols.append((func(hi) - func(lo)) / (2.0 * step))
    return np.column_stack(cols)


class TestJacobians:
    def test_tilde_h_table_entries(self):
        J = jacobian_tilde_h([0.125, 0.3, 0.0, 0.0])
        assert J[0, 0] == 1.0 and np.all(J[0, 1:] == 0.0)
        assert J[1, 0] == pytest.approx(-0.25)

    def test_h_matches_finite_differences(self):
        rng = np.random.default_rng(20240501)
        for _ in range(20):
            params = random_valid_params(rng)
            h = rng.uniform(0.005, 0.5) / params.theta
            point = np.array([params.p, params.rho, params.xi, params.theta])
            func = lambda v: h_map(v[3], v[1], v[2], v[0], h)
            J_fd = _fd_jacobian(func, point)
            J = jacobian_h(params.theta, params.rho, params.xi, params.p, h)
            assert np.allclose(J, J_fd, rtol=1e-6, atol=1e-9)

    def test_tilde_h_matches_finite_differences(self):
        rng = np.random.default_rng(20240502)
        for _ in range(20):
            mu = rng.uniform(-1.0, 1.0, size=4)
            J_fd = _fd_jacobian(tilde_h_map, mu)
            assert np.allclose(jacobian_tilde_h(mu), J_fd, rtol=1e-6, atol=1e-9)
