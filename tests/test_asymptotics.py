"""Long-run covariance, delta-method covariance, and intervals."""

import math
import tracemalloc

import numpy as np
import pytest

from dexpou import (
    CovarianceEstimate,
    ModelParams,
    SamplePath,
    analytic_moments,
    confidence_intervals,
    covariance_estimate,
    empirical_moments,
    estimate_all,
    jacobian_h,
    jacobian_tilde_h,
    long_run_cov,
    make_rng,
    model_long_run_cov,
    observable_series,
    sigma_matrix,
    simulate_path,
)
from dexpou.errors import SingularJacobian

from conftest import H_REF


def bartlett_direct(series, L):
    """Reference implementation: explicit double sums of the tapered
    autocovariances, as slow and literal as possible."""
    X = np.asarray(series, dtype=float)
    X = X - X.mean(axis=1, keepdims=True)
    k, m = X.shape
    A = np.zeros((k, k))
    for i in range(k):
        for j in range(k):
            A[i, j] = np.dot(X[i], X[j]) / m
            for lag in range(1, L + 1):
                w = 1.0 - lag / (L + 1.0)
                cij = np.dot(X[i, :m - lag], X[j, lag:]) / m
                cji = np.dot(X[j, :m - lag], X[i, lag:]) / m
                A[i, j] += w * (cij + cji)
    return A


class TestObservableSeries:
    def test_constant_path(self):
        path = SamplePath(h=H_REF, values=np.full(10, 2.0))
        s = observable_series(path)
        assert s.shape == (4, 9)
        assert np.all(s[0] == 2.0) and np.all(s[1] == 4.0)
        assert np.all(s[2] == 8.0) and np.all(s[3] == 4.0)

    def test_two_point_path(self):
        path = SamplePath(h=H_REF, values=np.array([2.0, 3.0]))
        s = observable_series(path)
        assert s[:, 0].tolist() == [2.0, 4.0, 8.0, 6.0]

    def test_rejects_single_point(self):
        with pytest.raises(ValueError, match=">= 2"):
            observable_series(SamplePath(h=H_REF, values=np.array([1.0])))

    def test_means_match_empirical_moments_bitwise(self, ref_params):
        path = simulate_path(ref_params, 0.0, H_REF, 5000, seed=17)
        s = observable_series(path)
        m = empirical_moments(path)
        assert np.mean(s[0]) == m.mu1
        assert np.mean(s[1]) == m.mu2
        assert np.mean(s[2]) == m.mu3
        assert np.mean(s[3]) == m.mu4


class TestLongRunCov:
    def test_constant_series_zero_matrix(self):
        A = long_run_cov(np.ones((4, 100)), bandwidth=5)
        assert np.all(A == 0.0)

    def test_matches_direct_sums(self, ref_params):
        path = simulate_path(ref_params, 0.0, H_REF, 301, seed=18)
        s = observable_series(path)
        for L in (0, 1, 7, 25):
            assert np.allclose(long_run_cov(s, L), bartlett_direct(s, L),
                               rtol=1e-10, atol=1e-14)

    @pytest.mark.parametrize("n, L, L_direct", [
        (350, 24, 24),   # m = 349: an odd series length
        (40, 200, 38),   # clipped to m - 1, which also changes the weights
        (301, 0, 0),     # lag-0 covariance only
    ], ids=["odd-nfft", "clipped", "zero-bandwidth"])
    def test_edge_cases_match_direct_sums(self, ref_params, n, L, L_direct):
        s = observable_series(simulate_path(ref_params, 0.0, H_REF, n,
                                            seed=19))
        assert np.allclose(long_run_cov(s, L), bartlett_direct(s, L_direct),
                           rtol=1e-10, atol=1e-14)

    def test_peak_memory_small_multiple_of_series(self, ref_params):
        # memory must stay a small multiple of the input, not grow with k**2
        path = simulate_path(ref_params, 0.0, H_REF, 200_001, seed=24)
        s = observable_series(path)
        tracemalloc.start()
        try:
            long_run_cov(s, 59)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 2.5 * s.nbytes

    def test_white_noise_reduces_to_sample_cov(self, ref_params):
        # joint time-permutation makes the four series i.i.d. in time while
        # keeping their cross-sectional covariance; all lag terms vanish
        path = simulate_path(ref_params, 0.0, H_REF, 20_001, seed=21)
        s = observable_series(path)
        s = s[:, make_rng(99).permutation(s.shape[1])]
        A = long_run_cov(s, bandwidth=10)
        C0 = np.cov(s, bias=True)
        scale = np.sqrt(np.outer(np.diag(C0), np.diag(C0)))
        assert np.max(np.abs(A - C0) / scale) < 0.1

    def test_bandwidth_stability_for_iid(self, ref_params):
        path = simulate_path(ref_params, 0.0, H_REF, 100_001, seed=22)
        s = observable_series(path)
        s = s[:, make_rng(100).permutation(s.shape[1])]
        diags = {L: np.diag(long_run_cov(s, bandwidth=L)) for L in (5, 10, 20)}
        for L in (5, 10):
            ratio = diags[L] / diags[20]
            assert np.all((0.8 < ratio) & (ratio < 1.25))

    def test_symmetry_and_psd_on_path(self, ref_params):
        path = simulate_path(ref_params, 0.0, H_REF, 20_001, seed=23)
        A = long_run_cov(observable_series(path), 28)
        assert np.array_equal(A, A.T)
        eig = np.linalg.eigvalsh(A)
        assert eig[0] >= -1e-8 * np.trace(A)

    def test_level_series_calibration_against_replications(self, ref_params):
        # oracle: the variance of sqrt(m) * mean(series 1) across independent
        # replications; the Bartlett estimate (averaged over paths to isolate
        # its bias) must agree within 15%.  The bandwidth is set well above
        # the ~1/(theta h) = 25-step correlation length of this strongly
        # persistent series.
        reps, hac_reps, n, L = 1500, 300, 10_001, 400
        means = np.empty(reps)
        hacs = np.empty((hac_reps, 4, 4))
        for r in range(reps):
            path = simulate_path(ref_params, 0.0, H_REF, n, seed=101,
                                 replication=r)
            series = observable_series(path)
            means[r] = series[0].mean()
            if r < hac_reps:
                hacs[r] = long_run_cov(series, bandwidth=L)
        m = n - 1
        oracle = m * means.var()
        mean_hac = hacs.mean(axis=0)
        assert abs(mean_hac[0, 0] - oracle) / oracle < 0.15
        # the model-free check of the model's A: every entry, scaled by
        # its diagonal, within the Bartlett bias at this bandwidth
        A = model_long_run_cov(2.0, 1 / 1.2, 1 / 1.6, 0.6, H_REF)
        scale = np.sqrt(np.outer(np.diag(A), np.diag(A)))
        assert np.max(np.abs(mean_hac - A) / scale) < 0.15


class TestSigmaMatrix:
    def setup_method(self):
        self.point = dict(theta=2.0, rho=1 / 1.2, xi=0.625, p=0.6, h=H_REF)
        params = ModelParams(theta=2.0, eta=1.2, phi=1.6, p=0.6)
        self.mu = analytic_moments(params, H_REF).to_array()

    def test_zero_A_gives_zero(self):
        assert np.all(sigma_matrix(np.zeros((4, 4)), self.mu, **self.point)
                      == 0.0)

    def test_identity_A_gives_BBt(self):
        # direct multiplication with independently assembled B
        Jh = jacobian_h(self.point["theta"], self.point["rho"],
                        self.point["xi"], self.point["p"], self.point["h"])
        B = np.linalg.solve(Jh, jacobian_tilde_h(self.mu))
        expect = B @ B.T
        got = sigma_matrix(np.eye(4), self.mu, **self.point)
        assert np.allclose(got, expect, rtol=1e-12)

    def test_theta_row_matches_closed_form_gradient(self):
        # theta = ln((mu2-mu1^2)/(mu4-mu1^2))/h has an explicit gradient;
        # the theta row of B must equal it, pinning the sandwich orientation
        mu = self.mu
        var = mu[1] - mu[0] ** 2
        autocov = mu[3] - mu[0] ** 2
        grad = np.array([
            (-2 * mu[0] / var + 2 * mu[0] / autocov) / H_REF,
            1.0 / (var * H_REF),
            0.0,
            -1.0 / (autocov * H_REF),
        ])
        Jh = jacobian_h(self.point["theta"], self.point["rho"],
                        self.point["xi"], self.point["p"], self.point["h"])
        B = np.linalg.solve(Jh, jacobian_tilde_h(mu))
        assert np.allclose(B[3], grad, rtol=1e-10, atol=1e-12)

    def test_singular_jacobian_raises(self):
        with pytest.raises(SingularJacobian) as err:
            sigma_matrix(np.eye(4), self.mu, theta=2.0, rho=1 / 1.2, xi=0.625,
                         p=0.6, h=1e-13)
        assert err.value.condition_number > 1e12

    def test_full_pipeline_sigma_symmetric_psd(self, ref_params):
        path = simulate_path(ref_params, 0.0, H_REF, 10_001, seed=25)
        result = estimate_all(path)
        cov = covariance_estimate(path, result)
        assert np.array_equal(cov.Sigma, cov.Sigma.T)
        eig = np.linalg.eigvalsh(cov.Sigma)
        assert eig[0] >= -1e-8 * np.trace(cov.Sigma)
        assert 1.0 <= cov.jacobian_condition < 1e12

    def test_default_A_is_the_model_at_the_estimates(self, ref_params):
        path = simulate_path(ref_params, 0.0, H_REF, 3001, seed=26)
        result = estimate_all(path)
        cov = covariance_estimate(path, result)
        expect = model_long_run_cov(result.theta_hat, result.rho_hat,
                                    result.xi_hat, result.p_hat, H_REF)
        assert np.array_equal(cov.A, expect)
        assert cov.n == 3000
        mu = result.moments.to_array()
        assert np.array_equal(cov.Sigma, sigma_matrix(
            expect, mu, result.theta_hat, result.rho_hat, result.xi_hat,
            result.p_hat, H_REF))

    def test_model_A_needs_no_minimum_length(self, ref_params):
        path = simulate_path(ref_params, 0.0, H_REF, 30, seed=14)
        result = estimate_all(path)
        assert np.all(np.isfinite(covariance_estimate(path, result).Sigma))


def _fake_result(**kw):
    from dexpou.estimate import EstimationResult, RootScan
    root = RootScan(p_hat=0.6, bracket=(0.59, 0.61), sign_change_count=1,
                    g_prime_sign_constant=True)
    base = dict(theta_hat=2.0, p_hat=0.6, rho_hat=1 / 1.2, xi_hat=0.625,
                eta_hat=1.2, phi_hat=1.6, root=root)
    base.update(kw)
    return EstimationResult(**base)


class TestConfidenceIntervals:
    def test_reference_width(self):
        # Sigma_kk / n = 0.01 at level 0.95: half-width 1.96 * 0.1
        cov = CovarianceEstimate(A=np.zeros((4, 4)), Sigma=np.eye(4), n=100)
        ci = confidence_intervals(_fake_result(), cov, level=0.95)
        lo, hi = ci.intervals["theta"]
        assert lo == pytest.approx(1.804, abs=1e-3)
        assert hi == pytest.approx(2.196, abs=1e-3)

    def test_zero_sigma_degenerate(self):
        cov = CovarianceEstimate(A=np.zeros((4, 4)), Sigma=np.zeros((4, 4)),
                                 n=100)
        ci = confidence_intervals(_fake_result(), cov)
        for name in ("p", "rho", "xi", "theta"):
            lo, hi = ci.intervals[name]
            assert lo == hi

    def test_reciprocal_transform(self):
        cov = CovarianceEstimate(A=np.zeros((4, 4)),
                                 Sigma=np.diag([0.0, 0.04, 0.01, 0.0]),
                                 n=400)
        ci = confidence_intervals(_fake_result(), cov, level=0.95)
        rho_lo, rho_hi = ci.intervals["rho"]
        eta_lo, eta_hi = ci.intervals["eta"]
        assert eta_lo == pytest.approx(1.0 / rho_hi)
        assert eta_hi == pytest.approx(1.0 / rho_lo)

    def test_unbounded_upper_when_rate_interval_crosses_zero(self):
        cov = CovarianceEstimate(A=np.zeros((4, 4)),
                                 Sigma=np.diag([0.0, 400.0, 0.0, 0.0]), n=100)
        ci = confidence_intervals(_fake_result(), cov, level=0.95)
        assert ci.intervals["rho"][0] < 0
        assert ci.intervals["eta"][1] == math.inf

    def test_negative_variance_warns_without_interval(self):
        sigma = np.diag([1.0, 1.0, 1.0, -1.0])
        cov = CovarianceEstimate(A=np.zeros((4, 4)), Sigma=sigma, n=100)
        ci = confidence_intervals(_fake_result(), cov)
        assert "theta" not in ci.intervals
        assert any("theta" in w for w in ci.warnings)
        assert "eta" in ci.intervals  # rho interval still valid

    def test_normal_quantile_matches_ndtri(self):
        # unit variance and n = 1 about theta = 0: the upper end is z itself
        ndtri = pytest.importorskip("scipy.special").ndtri
        cov = CovarianceEstimate(A=np.zeros((4, 4)), Sigma=np.eye(4), n=1)
        result = _fake_result(theta_hat=0.0)
        levels = np.linspace(0.0, 1.0, 20003)[1:-1]
        z = np.array([confidence_intervals(result, cov, level)
                      .intervals["theta"][1] for level in levels.tolist()])
        expect = ndtri(0.5 * (1.0 + levels))
        assert np.all(np.abs(z - expect) <= 8 * np.spacing(expect))

    def test_bad_level_rejected(self):
        cov = CovarianceEstimate(A=np.zeros((4, 4)), Sigma=np.eye(4), n=100)
        with pytest.raises(ValueError, match="level"):
            confidence_intervals(_fake_result(), cov, level=1.5)
