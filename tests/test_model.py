"""Analytic oracles: characteristic functions, moments, parameter maps."""

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
    stationary_char_fn,
    tilde_h_map,
)

from conftest import H_REF, random_valid_params

# Exact reference moments at (theta=2, p=0.6, eta=1.2, phi=1.6, lam=sigma=1):
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

    def test_unit_scale_gate(self, ref_params):
        ref_params.require_unit_scale()
        scaled = ModelParams(theta=2.0, eta=1.2, phi=1.6, p=0.6, lam=2.0)
        with pytest.raises(ValueError, match="lam"):
            scaled.require_unit_scale()


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
        assert ref_moments.m1 == pytest.approx(M1_EXACT, abs=1e-15)
        assert ref_moments.m2 == pytest.approx(M2_EXACT, abs=1e-15)
        assert ref_moments.m4 == pytest.approx(M4_EXACT, abs=1e-15)

    def test_against_cf_derivatives(self, ref_params, ref_moments):
        # independent oracle: numerical differentiation of the CFs at 0
        eps = 1e-3
        cf = lambda u: stationary_char_fn(ref_params, u)
        d2 = (cf(eps) - 2.0 * cf(0.0) + cf(-eps)) / eps**2
        d3 = (cf(2 * eps) - 2 * cf(eps) + 2 * cf(-eps) - cf(-2 * eps)) / (2 * eps**3)
        jf = lambda u, v: joint_char_fn(ref_params, u, v, H_REF)
        d11 = (jf(eps, eps) - jf(eps, -eps) - jf(-eps, eps)
               + jf(-eps, -eps)) / (4.0 * eps**2)
        assert (-d2).real == pytest.approx(ref_moments.m2, abs=1e-6)
        assert (1j * d3).real == pytest.approx(ref_moments.m3, abs=1e-5)
        assert (-d11).real == pytest.approx(ref_moments.m4, abs=1e-6)

    def test_symmetric_case_odd_moments_vanish(self):
        params = ModelParams(theta=1.7, eta=2.5, phi=2.5, p=0.5)
        m = analytic_moments(params, 0.1)
        assert m.m1 == pytest.approx(0.0, abs=1e-15)
        assert m.m3 == pytest.approx(0.0, abs=1e-15)

    @given(params=valid_params, h=st.floats(0.005, 0.5))
    @settings(max_examples=60, deadline=None)
    def test_autocovariance_decay_identity(self, params, h):
        m = analytic_moments(params, h)
        lhs = m.m4 - m.m1**2
        rhs = math.exp(-params.theta * h) * (m.m2 - m.m1**2)
        assert lhs == pytest.approx(rhs, rel=1e-12)

    @given(params=valid_params)
    @settings(max_examples=60, deadline=None)
    def test_variance_positive(self, params):
        m = analytic_moments(params, 0.05)
        assert m.m2 - m.m1**2 > 0


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
