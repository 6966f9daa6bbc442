"""Calibration pipeline: moments, theta, the root problem, back-substitution,
and the exact-inversion property."""

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from dexpou import (
    EmpiricalMoments,
    FVector,
    ModelParams,
    SamplePath,
    analytic_moments,
    compute_f,
    empirical_moments,
    estimate_all,
    estimate_from_moments,
    estimate_theta,
    joint_char_fn,
    make_rng,
    recover_rho_xi,
    simulate_path,
    solve_p,
)
from dexpou.errors import (
    DiscriminantNonpositive,
    DiscriminantOverflow,
    EstimationError,
    MomentOverflow,
    NonPositiveAutocov,
    NonPositiveTheta,
    NonPositiveVariance,
    NoRoot,
)
from dexpou.estimate import (
    GRID_EPS,
    MOMENT_CHUNK,
    ROOT_G_TOL,
    ROOT_WIDTH_TOL,
    _brent,
    _g,
    g_values,
    scan_g,
)

from conftest import H_REF, random_valid_params
from oracles import empirical_char_fn, empirical_joint_char_fn


def exact_f(params: ModelParams) -> FVector:
    """Reduced statistics implied by exact analytic moments (lam = sigma = 1)."""
    moments = EmpiricalMoments.from_stationary(analytic_moments(params, H_REF))
    return compute_f(moments, estimate_theta(moments))


class TestEmpiricalMoments:
    def test_constant_path(self):
        path = SamplePath(h=H_REF, values=np.full(50, 3.0))
        m = empirical_moments(path)
        assert (m.mu1, m.mu2, m.mu3, m.mu4) == (3.0, 9.0, 27.0, 9.0)
        assert m.n_used == 49

    def test_two_point_path(self):
        path = SamplePath(h=H_REF, values=np.array([2.0, 5.0]))
        m = empirical_moments(path)
        assert (m.mu1, m.mu2, m.mu3, m.mu4) == (2.0, 4.0, 8.0, 10.0)

    def test_rejects_short_path(self):
        with pytest.raises(ValueError, match=">= 2"):
            empirical_moments(SamplePath(h=H_REF, values=np.array([1.0])))

    @pytest.mark.parametrize("n", [2, 3, MOMENT_CHUNK + 1,
                                   2 * MOMENT_CHUNK + 2])
    def test_block_sums_match_exact_sums(self, n):
        # positive values keep each sum free of cancellation, so a row
        # dropped or counted twice at a block edge (about 1/n relative)
        # cannot hide inside rtol
        x = make_rng(31).uniform(0.5, 2.0, n)
        m = empirical_moments(SamplePath(h=H_REF, values=x))
        head, tail = x[:-1].tolist(), x[1:].tolist()
        exact = [math.fsum(head),
                 math.fsum(a * a for a in head),
                 math.fsum(a * a * a for a in head),
                 math.fsum(a * b for a, b in zip(head, tail))]
        assert m.n_used == n - 1
        assert m.to_array() == pytest.approx(np.array(exact) / (n - 1),
                                             rel=1e-14, abs=0)

    def test_peak_memory_independent_of_path_length(self):
        n = 1_000_000
        path = SamplePath(h=H_REF, values=make_rng(32).standard_normal(n))
        tracemalloc.start()
        try:
            empirical_moments(path)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        # against the (4, n-1) float64 series that the sums stand for
        assert peak <= 0.1 * 4 * (n - 1) * 8

    def test_long_path_mean_near_truth(self, ref_params, ref_moments):
        path = simulate_path(ref_params, 0.0, H_REF, 100_000, seed=2)
        m = empirical_moments(path)
        decay = math.exp(-2.0 * H_REF)
        var = ref_moments.m2 - ref_moments.m1**2
        long_run = var * (1.0 + 2.0 * decay / (1.0 - decay))
        assert abs(m.mu1 - 0.125) < 4.0 * math.sqrt(long_run / m.n_used)


class TestEmpiricalCharFn:
    def test_u_zero_is_one(self, ref_params):
        path = simulate_path(ref_params, 0.0, H_REF, 100, seed=4)
        assert empirical_char_fn(path, 0.0) == 1.0 + 0.0j

    def test_modulus_bounded(self, ref_params):
        path = simulate_path(ref_params, 0.0, H_REF, 500, seed=4)
        u = np.linspace(-8.0, 8.0, 33)
        assert np.all(np.abs(empirical_char_fn(path, u)) <= 1.0 + 1e-12)

    def test_joint_cf_converges(self, ref_params):
        path = simulate_path(ref_params, 0.0, H_REF, 100_000, seed=1)
        dev = abs(empirical_joint_char_fn(path, 1.0, 1.0)
                  - joint_char_fn(ref_params, 1.0, 1.0, H_REF))
        assert dev < 0.02


class TestEstimateTheta:
    def test_exact_moments_recover_theta(self, ref_exact_empirical):
        assert estimate_theta(ref_exact_empirical) == pytest.approx(2.0, abs=1e-10)

    def test_zero_variance_rejected(self):
        m = EmpiricalMoments(mu1=1.0, mu2=1.0, mu3=1.0, mu4=1.0, n_used=10, h=H_REF)
        with pytest.raises(NonPositiveVariance):
            estimate_theta(m)

    def test_nonpositive_autocov_rejected(self):
        m = EmpiricalMoments(mu1=0.0, mu2=1.0, mu3=0.0, mu4=-0.1, n_used=10, h=H_REF)
        with pytest.raises(NonPositiveAutocov):
            estimate_theta(m)

    def test_equal_variance_and_autocov_rejected(self):
        m = EmpiricalMoments(mu1=0.0, mu2=1.0, mu3=0.0, mu4=1.0, n_used=10, h=H_REF)
        with pytest.raises(NonPositiveTheta):
            estimate_theta(m)

    def test_nan_moments_rejected_typed(self):
        # a NaN moment is named before the inequalities, which would report
        # it as a variance "nan <= 0"
        path = SamplePath(h=H_REF, values=np.array([0.1, np.nan, 0.3, 0.2]))
        with pytest.raises(MomentOverflow, match="^mu1 = nan is not finite"):
            estimate_theta(empirical_moments(path))

    def test_stage_labels(self):
        assert NonPositiveVariance.stage == "theta"
        assert DiscriminantNonpositive.stage == "f"
        assert NoRoot.stage == "solve_p"


class TestComputeF:
    def test_exact_f1(self, ref_params):
        f = exact_f(ref_params)
        assert f.f1 == pytest.approx(0.25, abs=1e-12)

    def test_discriminant_positive_and_matches_identity(self, ref_params):
        # f2 - f1^2 = p rho^2 + q xi^2 - (p rho - q xi)^2 for exact inputs
        f = exact_f(ref_params)
        rho, xi, p, q = ref_params.rho, ref_params.xi, 0.6, 0.4
        expect = p * rho**2 + q * xi**2 - (p * rho - q * xi) ** 2
        assert f.discriminant == pytest.approx(expect, rel=1e-12)
        assert f.discriminant > 0

    def test_symmetric_f1_f3_vanish(self):
        params = ModelParams(theta=1.5, eta=2.0, phi=2.0, p=0.5)
        f = exact_f(params)
        assert f.f1 == pytest.approx(0.0, abs=1e-14)
        assert f.f3 == pytest.approx(0.0, abs=1e-14)

    def test_degenerate_discriminant_rejected(self):
        # one-sided jumps make f2 = f1^2 unreachable, so force it by hand
        m = EmpiricalMoments(mu1=1.0, mu2=1.5, mu3=0.0, mu4=1.2, n_used=10, h=1.0)
        theta = estimate_theta(m)
        # f2 - f1^2 = theta*0.5 - theta^2 < 0 for this theta
        with pytest.raises(DiscriminantNonpositive):
            compute_f(m, theta)


class TestGFunction:
    def test_true_p_is_root(self, ref_params):
        f = exact_f(ref_params)
        assert abs(float(g_values(0.6, f))) < 1e-12

    def test_symmetric_root_at_half(self):
        f = FVector(f1=0.0, f2=1.0, f3=0.0, theta_hat=1.0)
        assert float(g_values(0.5, f)) == 0.0

    def test_finite_near_endpoints(self, ref_params):
        f = exact_f(ref_params)
        for p in (GRID_EPS, 1.0 - GRID_EPS):
            assert math.isfinite(float(g_values(p, f)))

    def test_domain_errors(self, ref_params):
        f = exact_f(ref_params)
        with pytest.raises(ValueError):
            g_values(0.0, f)
        bad = FVector(f1=2.0, f2=1.0, f3=0.0, theta_hat=1.0)
        with pytest.raises(ValueError):
            g_values(0.5, bad)


def no_root_f(params: ModelParams) -> FVector:
    """Push f3 above the grid maximum of the first two terms so g < 0
    everywhere on the search grid."""
    f = exact_f(params)
    grid = np.linspace(GRID_EPS, 1.0 - GRID_EPS, 2001)
    q = 1.0 - grid
    s = np.sqrt(grid * q * f.discriminant)
    first_two = q**2 * (f.f1 * grid + s) ** 3 + grid**2 * (f.f1 * q - s) ** 3
    f3_bad = float(np.max(first_two / (grid**2 * q**2))) * 1.5 + 1.0
    return FVector(f1=f.f1, f2=f.f2, f3=f3_bad, theta_hat=f.theta_hat)


class TestSolveP:
    def test_exact_f_unique_root(self, ref_params):
        f = exact_f(ref_params)
        scan = solve_p(f)
        assert scan.sign_change_count == 1
        assert scan.p_hat == pytest.approx(0.6, abs=1e-8)
        assert abs(float(g_values(scan.p_hat, f))) <= ROOT_G_TOL
        assert scan.bracket[0] < scan.p_hat < scan.bracket[1]

    def test_symmetric_root(self):
        f = FVector(f1=0.0, f2=1.0, f3=0.0, theta_hat=1.0)
        scan = solve_p(f)
        assert scan.p_hat == pytest.approx(0.5, abs=1e-10)

    def test_no_root_raises(self, ref_params):
        with pytest.raises(NoRoot):
            solve_p(no_root_f(ref_params))

    def test_multiple_roots_diagnostic_contract(self):
        # g is empirically one-crossing for every realizable f (the scaled
        # curve is strictly decreasing), so the multiple-root branch is
        # defensive; its reporting contract is pinned here
        from dexpou.errors import MultipleRoots
        err = MultipleRoots([0.7, 0.2, 0.5])
        assert err.count == 3
        assert err.roots == (0.2, 0.5, 0.7)
        assert err.stage == "solve_p"

    def test_arbitrary_valid_f_never_multi_crossing(self):
        # empirical uniqueness: any f with positive discriminant gives at
        # most one sign change, even far from realizable parameters (an
        # extreme f3 can push the crossing outside the clipped grid, which
        # correctly reports NoRoot)
        rng = np.random.default_rng(2718)
        outcomes = {"root": 0, "noroot": 0}
        for _ in range(500):
            f1 = rng.uniform(-5.0, 5.0)
            f2 = f1 * f1 + rng.uniform(0.01, 5.0)
            f3 = rng.uniform(-20.0, 20.0)
            f = FVector(f1=f1, f2=f2, f3=f3, theta_hat=1.0)
            try:
                assert solve_p(f).sign_change_count == 1
                outcomes["root"] += 1
            except NoRoot:
                outcomes["noroot"] += 1
        assert outcomes["root"] > 400

    def test_g_prime_sign_diagnostic(self, ref_params):
        scan = solve_p(exact_f(ref_params))
        assert isinstance(scan.g_prime_sign_constant, bool)

    def test_coarse_grid_same_count(self, ref_params):
        f = exact_f(ref_params)
        assert solve_p(f, grid_size=11).sign_change_count == 1
        assert solve_p(f, grid_size=2001).sign_change_count == 1


def scalar_g(f: FVector):
    """g on Python floats, as the root refine evaluates it."""
    return lambda p: _g(p, f.f1, f.discriminant, f.f3, math.sqrt)


def simulated_fs(n: int, reps: int, k: int = 0):
    """Reduced statistics of ``reps`` simulated fits at length ``n``, of the
    paths scaled by ``2**k``; fits that fail before the root problem are
    skipped."""
    params = ModelParams(theta=2.0, eta=1.2, phi=1.6, p=0.6)
    fs = []
    for j in range(reps):
        x = simulate_path(params, 0.0, H_REF, n, seed=41,
                          replication=j).values
        try:
            m = empirical_moments(SamplePath(h=H_REF, values=np.ldexp(x, k)))
            fs.append(compute_f(m, estimate_theta(m)))
        except EstimationError:
            continue
    return fs


class TestGKernel:
    @pytest.fixture(scope="class")
    def fs(self, ref_params):
        rng = np.random.default_rng(99)
        return ([exact_f(ref_params),
                 FVector(f1=0.0, f2=1.0, f3=0.0, theta_hat=1.0),
                 no_root_f(ref_params)]
                + [exact_f(random_valid_params(rng)) for _ in range(5)]
                + simulated_fs(300, 3))

    def test_scalar_kernel_matches_grid_bits(self, fs):
        grid = np.linspace(GRID_EPS, 1.0 - GRID_EPS, 2001)
        for f in fs:
            g = scalar_g(f)
            scalar = np.array([g(p) for p in grid.tolist()])
            assert np.array_equal(scalar, g_values(grid, f))
            assert [float(g_values(p, f)) for p in grid[::100].tolist()] == \
                scalar[::100].tolist()

    def test_grid_values_match_power_formula(self, fs):
        # the cubes as products change only the rounding of g
        p = np.linspace(GRID_EPS, 1.0 - GRID_EPS, 2001)
        q = 1.0 - p
        for f in fs:
            s = np.sqrt(p * q * f.discriminant)
            old = (q**2 * (f.f1 * p + s) ** 3 + p**2 * (f.f1 * q - s) ** 3
                   - f.f3 * p**2 * q**2)
            assert np.max(np.abs(g_values(p, f) - old)) <= \
                1e-14 * np.max(np.abs(old))


class TestBrentRefine:
    def test_matches_scipy_brentq_bits(self):
        brentq = pytest.importorskip("scipy.optimize").brentq
        # at k <= -120 the extrapolation step's denominator underflows to 0
        brackets = [(f, lo, hi)
                    for n, reps, k in ((300, 400, 0), (1000, 400, 0),
                                       (10_000, 400, 0), (10_000, 20, -120),
                                       (10_000, 20, -200), (10_000, 20, -300))
                    for f in simulated_fs(n, reps, k)
                    for lo, hi in scan_g(f).brackets if lo < hi]
        assert len(brackets) >= 1000
        for f, lo, hi in brackets:
            g = scalar_g(f)
            ours = _brent(g, float(lo), float(hi))
            theirs = brentq(g, lo, hi, xtol=ROOT_WIDTH_TOL)
            assert ours == theirs, (f, lo, hi)

    @pytest.mark.parametrize("k", [-120, -200])
    def test_underflowing_step_bisects(self, ref_params, k):
        # on x * 2^k the extrapolation denominator underflows to 0; the
        # step must bisect, as in C, and keep theta's bits and p
        for seed in range(1, 21):
            x = simulate_path(ref_params, 0.0, H_REF, 10_000,
                              seed=seed).values
            r0 = estimate_all(SamplePath(h=H_REF, values=x))
            r = estimate_all(SamplePath(h=H_REF, values=np.ldexp(x, k)))
            assert r.theta_hat == r0.theta_hat, seed
            assert abs(r.p_hat - r0.p_hat) <= 1e-14, seed

    def test_exact_zero_at_an_end_point(self):
        brentq = pytest.importorskip("scipy.optimize").brentq
        g = scalar_g(FVector(f1=0.0, f2=1.0, f3=0.0, theta_hat=1.0))
        assert g(0.5) == 0.0
        for lo, hi in ((0.5, 0.75), (0.25, 0.5), (0.5, 0.5)):
            assert _brent(g, lo, hi) == 0.5
            assert brentq(g, lo, hi, xtol=ROOT_WIDTH_TOL) == 0.5

    def test_no_convergence_raises_typed(self, ref_params):
        f = exact_f(ref_params)
        (lo, hi), = scan_g(f).brackets
        with pytest.raises(NoRoot, match=r"did not converge in 1 iter") as exc:
            _brent(scalar_g(f), float(lo), float(hi), maxiter=1)
        assert exc.value.stage == "solve_p"
        assert repr(float(lo)) in str(exc.value)
        assert repr(float(hi)) in str(exc.value)

    def test_same_signs_rejected(self, ref_params):
        g = scalar_g(exact_f(ref_params))
        with pytest.raises(ValueError, match="same sign"):
            _brent(g, 0.1, 0.2)


class TestRecoverRhoXi:
    def test_exact_recovery(self, ref_params):
        f = exact_f(ref_params)
        rho, xi = recover_rho_xi(0.6, f)
        assert rho == pytest.approx(1.0 / 1.2, abs=1e-9)
        assert xi == pytest.approx(0.625, abs=1e-9)
        assert rho > f.f1

    def test_symmetric_recovery(self):
        f = FVector(f1=0.0, f2=1.0, f3=0.0, theta_hat=1.0)
        rho, xi = recover_rho_xi(0.5, f)
        assert rho == pytest.approx(1.0)
        assert xi == pytest.approx(1.0)

    def test_nonpositive_rate_reported(self):
        # evaluating the branch at a p far from any root can push rho
        # negative; that must surface, not be clamped
        from dexpou.errors import NonPositiveRate
        f = FVector(f1=-5.0, f2=25.3, f3=0.0, theta_hat=1.0)
        with pytest.raises(NonPositiveRate):
            recover_rho_xi(0.9, f)

    @given(st.integers(0, 10_000))
    @settings(max_examples=50, deadline=None)
    def test_second_equation_identity(self, draw):
        # p rho^2 + q xi^2 = f2 holds exactly by construction
        rng = np.random.default_rng(draw)
        params = random_valid_params(rng)
        f = exact_f(params)
        scan = solve_p(f)
        rho, xi = recover_rho_xi(scan.p_hat, f)
        assert scan.p_hat * rho**2 + (1 - scan.p_hat) * xi**2 == pytest.approx(
            f.f2, rel=1e-10)


class TestPipeline:
    def test_exact_moments_roundtrip(self, ref_params, ref_exact_empirical):
        r = estimate_from_moments(ref_exact_empirical)
        assert r.theta_hat == pytest.approx(2.0, abs=1e-8)
        assert r.p_hat == pytest.approx(0.6, abs=1e-8)
        assert r.eta_hat == pytest.approx(1.2, abs=1e-8)
        assert r.phi_hat == pytest.approx(1.6, abs=1e-8)
        assert r.rho_hat > r.f.f1

    def test_randomized_roundtrip(self):
        rng = np.random.default_rng(1234)
        for _ in range(50):
            params = random_valid_params(rng)
            h = rng.uniform(0.005, 0.5) / params.theta
            moments = EmpiricalMoments.from_stationary(analytic_moments(params, h))
            r = estimate_from_moments(moments)
            assert r.theta_hat == pytest.approx(params.theta, abs=1e-8)
            assert r.p_hat == pytest.approx(params.p, abs=1e-8)
            assert r.eta_hat == pytest.approx(params.eta, abs=1e-8)
            assert r.phi_hat == pytest.approx(params.phi, abs=1e-8)

    def test_simulated_path_neighbourhood(self, ref_params):
        path = simulate_path(ref_params, 0.0, H_REF, 3000, seed=1)
        r = estimate_all(path)
        assert 0.4 < r.p_hat < 0.8
        assert 0.8 < r.eta_hat < 1.8
        assert 1.0 < r.phi_hat < 2.6
        assert 1.5 < r.theta_hat < 2.5
        assert r.root.sign_change_count == 1

    def test_stochastic_consistency(self, ref_params):
        # median absolute error over 20 seeds shrinks through decade jumps
        truth = np.array([0.6, 1.2, 1.6, 2.0])
        medians = {}
        for n in (1_000, 10_000, 100_000):
            errs = []
            for rep in range(20):
                path = simulate_path(ref_params, 0.0, H_REF, n, seed=31415,
                                     replication=rep)
                try:
                    r = estimate_all(path)
                except EstimationError:
                    continue
                errs.append(np.abs(
                    np.array([r.p_hat, r.eta_hat, r.phi_hat, r.theta_hat])
                    - truth))
            medians[n] = np.median(np.array(errs), axis=0)
        assert np.all(medians[1_000] >= medians[10_000])
        assert np.all(medians[10_000] >= medians[100_000])

    def test_short_path_survives_or_fails_typed(self, ref_params):
        # wild estimates at n = 50 are expected; crashes are not
        outcomes = []
        for rep in range(10):
            path = simulate_path(ref_params, 0.0, H_REF, 50, seed=6,
                                 replication=rep)
            try:
                r = estimate_all(path)
                outcomes.append(r.theta_hat)
            except EstimationError:
                outcomes.append(None)
        assert any(v is not None for v in outcomes)

    @pytest.mark.parametrize("scale, h, error", [
        (1e155, H_REF, MomentOverflow),       # mu2 overflows
        (1.0, 1e-160, DiscriminantOverflow),  # f1^2 = (theta mu1)^2 does
    ], ids=["large-values", "tiny-h"])
    def test_overflow_fails_typed(self, ref_params, scale, h, error):
        # a float's ** raises OverflowError where numpy would give inf
        x = simulate_path(ref_params, 0.0, H_REF, 2000, seed=1).values
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(error) as exc:
                estimate_all(SamplePath(h=h, values=x * scale))
        assert exc.value.stage == error.stage
        assert error.stage == ("theta" if error is MomentOverflow else "f")

    @pytest.mark.parametrize("scale, moment", [
        (1e102, "mu3 = inf"),
        (1e150, "mu3 = nan"),
        (1e154, "mu2 = inf"),
    ], ids=["mu3-inf", "mu3-nan", "mu2-inf"])
    def test_overflowed_moment_is_named(self, ref_params, scale, moment):
        # checked before any inequality, which an inf or nan moment would
        # fail with the wrong name
        x = simulate_path(ref_params, 0.0, H_REF, 10_000, seed=1).values
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(MomentOverflow,
                               match=f"^{moment} is not finite") as exc:
                estimate_all(SamplePath(h=H_REF, values=x * scale))
        assert exc.value.stage == "theta"

    def test_mu1_squared_overflow_is_typed(self):
        # finite moments whose mu1^2 leaves float64's range
        m = EmpiricalMoments(mu1=1e155, mu2=1.0, mu3=0.0, mu4=1.0,
                             n_used=10, h=H_REF)
        with pytest.raises(MomentOverflow, match=r"mu1\^2 overflows"):
            estimate_theta(m)

    def test_g_curve_attachment(self, ref_exact_empirical):
        # the curve `gcurve` writes, scanned from the fit's f, starts at
        # GRID_EPS and crosses zero once, in the fit's bracket, at p_hat
        r = estimate_from_moments(ref_exact_empirical)
        curve = scan_g(r.f)
        assert curve.grid.shape == curve.g.shape
        assert curve.grid[0] == pytest.approx(GRID_EPS)
        assert curve.brackets == (r.root.bracket,)
        idx = np.argmin(np.abs(curve.grid - r.p_hat))
        assert abs(curve.g[idx]) < 1e-4
