"""Calibration pipeline: moments, theta, the root problem, back-substitution,
and the exact-inversion property."""

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from dexpou import (
    FVector,
    ModelParams,
    Moments,
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
    NonPositiveRate,
    NonPositiveTheta,
    NonPositiveVariance,
    NoRoot,
)
from dexpou.estimate import (
    GRID_EPS,
    MOMENT_CHUNK,
    g_values,
    scan_g,
)

from conftest import H_REF, random_valid_params
from oracles import empirical_char_fn, empirical_joint_char_fn


def exact_f(params: ModelParams) -> FVector:
    """Reduced statistics implied by exact analytic moments (lam = 1)."""
    moments = analytic_moments(params, H_REF)
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

    def test_bits_independent_of_byte_alignment(self, ref_params):
        # the same values at each of the 8 byte offsets of a float64: a sum
        # whose order followed the buffer's alignment would move the bits
        path = simulate_path(ref_params, 0.0, H_REF, MOMENT_CHUNK + 1000,
                             seed=33)
        x = path.values
        buf = np.empty(x.nbytes + 8, dtype=np.uint8)
        moments = set()
        for offset in range(8):
            copy = buf[offset:offset + x.nbytes].view(np.float64)
            copy[:] = x
            m = empirical_moments(SamplePath(h=H_REF, values=copy))
            moments.add(m.to_array().tobytes())
        assert len(moments) == 1

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
        var = ref_moments.mu2 - ref_moments.mu1**2
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
    def test_exact_moments_recover_theta(self, ref_moments):
        assert estimate_theta(ref_moments) == pytest.approx(2.0, abs=1e-10)

    def test_zero_variance_rejected(self):
        m = Moments(mu1=1.0, mu2=1.0, mu3=1.0, mu4=1.0, h=H_REF, n_used=10)
        with pytest.raises(NonPositiveVariance):
            estimate_theta(m)

    def test_nonpositive_autocov_rejected(self):
        m = Moments(mu1=0.0, mu2=1.0, mu3=0.0, mu4=-0.1, h=H_REF, n_used=10)
        with pytest.raises(NonPositiveAutocov):
            estimate_theta(m)

    def test_equal_variance_and_autocov_rejected(self):
        m = Moments(mu1=0.0, mu2=1.0, mu3=0.0, mu4=1.0, h=H_REF, n_used=10)
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
        m = Moments(mu1=1.0, mu2=1.5, mu3=0.0, mu4=1.2, h=1.0, n_used=10)
        theta = estimate_theta(m)
        # f2 - f1^2 = theta*0.5 - theta^2 < 0 for this theta
        with pytest.raises(DiscriminantNonpositive):
            compute_f(m, theta)

    @pytest.mark.parametrize("f, error", [
        ((1.0, 1.0, 0.0), DiscriminantNonpositive),    # f2 - f1^2 = 0
        ((1e155, 1.0, 0.0), DiscriminantOverflow),     # f1^2 overflows
        ((math.nan, 1.0, 0.0), DiscriminantOverflow),
        ((0.0, math.inf, 0.0), DiscriminantOverflow),
        ((0.0, 1.0, -math.inf), DiscriminantOverflow),
        ((math.inf, math.inf, 0.0), DiscriminantOverflow),
    ], ids=["zero", "overflow", "nan-f1", "inf-f2", "inf-f3", "inf-f1-f2"])
    def test_fvector_checks_discriminant_on_construction(self, f, error):
        # f2 - f1^2 < 0 is the bad FVector of TestGFunction.test_domain_errors
        with pytest.raises(error) as exc:
            FVector(*f)
        assert exc.value.stage == "f"


class TestGFunction:
    def test_true_p_is_root(self, ref_params):
        f = exact_f(ref_params)
        assert abs(float(g_values(0.6, f))) < 1e-12

    def test_symmetric_root_at_half(self):
        f = FVector(f1=0.0, f2=1.0, f3=0.0)
        assert float(g_values(0.5, f)) == 0.0

    def test_finite_near_endpoints(self, ref_params):
        f = exact_f(ref_params)
        for p in (GRID_EPS, 1.0 - GRID_EPS):
            assert math.isfinite(float(g_values(p, f)))

    def test_domain_errors(self, ref_params):
        f = exact_f(ref_params)
        with pytest.raises(ValueError):
            g_values(0.0, f)
        # an f without a real g is refused before g_values can see it
        with pytest.raises(DiscriminantNonpositive) as exc:
            FVector(f1=2.0, f2=1.0, f3=0.0)
        assert exc.value.stage == "f"


def no_root_f(params: ModelParams) -> FVector:
    """Push f3 above the grid maximum of the first two terms so g < 0
    everywhere on the search grid."""
    f = exact_f(params)
    grid = np.linspace(GRID_EPS, 1.0 - GRID_EPS, 2001)
    q = 1.0 - grid
    s = np.sqrt(grid * q * f.discriminant)
    first_two = q**2 * (f.f1 * grid + s) ** 3 + grid**2 * (f.f1 * q - s) ** 3
    f3_bad = float(np.max(first_two / (grid**2 * q**2))) * 1.5 + 1.0
    return FVector(f1=f.f1, f2=f.f2, f3=f3_bad)


def arbitrary_fs(count: int):
    """Statistics with a positive discriminant, far from realizable
    parameters as well as near them."""
    rng = np.random.default_rng(2718)
    fs = []
    for _ in range(count):
        f1 = rng.uniform(-5.0, 5.0)
        f2 = f1 * f1 + rng.uniform(0.01, 5.0)
        f3 = rng.uniform(-20.0, 20.0)
        fs.append(FVector(f1=f1, f2=f2, f3=f3))
    return fs


class TestSolveP:
    def test_exact_f_unique_root(self, ref_params):
        f = exact_f(ref_params)
        p_hat, q_hat = solve_p(f)
        brackets = scan_g(f).brackets
        assert len(brackets) == 1
        assert p_hat == pytest.approx(0.6, abs=1e-8)
        assert p_hat + q_hat == pytest.approx(1.0, abs=1e-15)
        assert abs(float(g_values(p_hat, f))) <= 1e-12
        (lo, hi), = brackets
        assert lo < p_hat < hi

    def test_symmetric_root(self):
        p_hat, _ = solve_p(FVector(f1=0.0, f2=1.0, f3=0.0))
        assert p_hat == pytest.approx(0.5, abs=1e-10)

    def test_no_root_raises(self, ref_params):
        with pytest.raises(NoRoot):
            solve_p(no_root_f(ref_params))

    def test_arbitrary_valid_f_never_multi_crossing(self):
        # empirical uniqueness: any f with positive discriminant gives at
        # most one sign change, even far from realizable parameters (an
        # extreme f3 can push the crossing outside the clipped grid, which
        # correctly reports NoRoot)
        outcomes = {"root": 0, "noroot": 0}
        for f in arbitrary_fs(500):
            try:
                solve_p(f)
                assert len(scan_g(f).brackets) == 1
                outcomes["root"] += 1
            except NoRoot:
                outcomes["noroot"] += 1
        assert outcomes["root"] > 400


# the two points of acceptance criterion 6, with their spacings
CRITERION_6_POINTS = (
    (ModelParams(theta=2.0, eta=1.2, phi=1.6, p=0.6), H_REF),
    (ModelParams(theta=0.5, eta=2.5, phi=0.8, p=0.3), 0.1),
)


def criterion_6_fs(n: int, reps: int):
    """Reduced statistics of the paths of seed 99, replications
    0..reps-1, at both criterion-6 points; paths that fail before the root
    problem are skipped."""
    fs = []
    for params, h in CRITERION_6_POINTS:
        for j in range(reps):
            path = simulate_path(params, 0.0, h, n, seed=99, replication=j)
            try:
                m = empirical_moments(path)
                fs.append(compute_f(m, estimate_theta(m)))
            except EstimationError:
                continue
    return fs


def criterion_6_fits(n: int, reps: int):
    """``(path, estimate)`` of the paths of seed 99, replications
    0..reps-1, at both criterion-6 points; failed fits are skipped."""
    fits = []
    for params, h in CRITERION_6_POINTS:
        for j in range(reps):
            path = simulate_path(params, 0.0, h, n, seed=99, replication=j)
            try:
                fits.append((path, estimate_all(path)))
            except EstimationError:
                continue
    return fits


class TestGCurveOracle:
    """The closed-form root against the g-curve it replaced, on simulated
    and on arbitrary statistics."""

    @pytest.fixture(scope="class")
    def fs(self, ref_params):
        return (criterion_6_fs(300, 300) + arbitrary_fs(500)
                + [no_root_f(ref_params)])

    def test_root_lies_in_the_only_bracket(self, fs):
        # NoRoot exactly where the scan finds no sign change
        outcomes = {"root": 0, "noroot": 0}
        for f in fs:
            brackets = scan_g(f).brackets
            if not brackets:
                with pytest.raises(NoRoot):
                    solve_p(f)
                outcomes["noroot"] += 1
                continue
            (lo, hi), = brackets
            assert lo <= solve_p(f)[0] <= hi, f
            outcomes["root"] += 1
        assert outcomes["noroot"] >= 2 and outcomes["root"] >= 500

    def test_rates_positive_exactly_when_f1_f3_below_f2_squared(self, fs):
        failed = 0
        for f in fs:
            try:
                p_hat, q_hat = solve_p(f)
            except NoRoot:
                continue
            same_sign = f.f1 * f.f3 >= f.f2 * f.f2
            try:
                recover_rho_xi(p_hat, q_hat, f)
            except NonPositiveRate as exc:
                assert same_sign, f
                assert "f1 f3" in str(exc)
                failed += 1
            else:
                assert not same_sign, f
        assert failed >= 10


class TestClosedFormAccuracy:
    def test_within_1e_13_of_300_bit_evaluation(self):
        # the same closed form in 300-bit arithmetic on the same f
        mpmath = pytest.importorskip("mpmath")
        errors = {"p": [], "rho": [], "xi": []}
        with mpmath.workprec(300):
            for f in criterion_6_fs(300, 300) + criterion_6_fs(3000, 300):
                f1, f2, f3 = (mpmath.mpf(v) for v in (f.f1, f.f2, f.f3))
                d = f2 - f1**2
                gamma = (f3 - 3 * f1 * f2 + 2 * f1**3) / d**1.5
                p = (1 - gamma / mpmath.sqrt(gamma**2 + 4)) / 2
                exact = {"p": p, "rho": f1 + mpmath.sqrt(d * (1 - p) / p),
                         "xi": mpmath.sqrt(d * p / (1 - p)) - f1}
                try:
                    p_hat, q_hat = solve_p(f)
                    rho, xi = recover_rho_xi(p_hat, q_hat, f)
                except EstimationError:
                    continue
                for name, value in (("p", p_hat), ("rho", rho),
                                    ("xi", xi)):
                    errors[name].append(float(
                        abs(value - exact[name]) / abs(exact[name])))
        assert len(errors["p"]) >= 100
        worst = {name: max(errs) for name, errs in errors.items()}
        assert all(e <= 1e-13 for e in worst.values()), worst


def simulated_fs(n: int, reps: int):
    """Reduced statistics of ``reps`` simulated fits at length ``n``; fits
    that fail before the root problem are skipped."""
    params = ModelParams(theta=2.0, eta=1.2, phi=1.6, p=0.6)
    fs = []
    for j in range(reps):
        path = simulate_path(params, 0.0, H_REF, n, seed=41, replication=j)
        try:
            m = empirical_moments(path)
            fs.append(compute_f(m, estimate_theta(m)))
        except EstimationError:
            continue
    return fs


class TestGKernel:
    @pytest.fixture(scope="class")
    def fs(self, ref_params):
        rng = np.random.default_rng(99)
        return ([exact_f(ref_params),
                 FVector(f1=0.0, f2=1.0, f3=0.0),
                 no_root_f(ref_params)]
                + [exact_f(random_valid_params(rng)) for _ in range(5)]
                + simulated_fs(300, 3))

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


class TestRecoverRhoXi:
    def test_exact_recovery(self, ref_params):
        f = exact_f(ref_params)
        rho, xi = recover_rho_xi(0.6, 0.4, f)
        assert rho == pytest.approx(1.0 / 1.2, abs=1e-9)
        assert xi == pytest.approx(0.625, abs=1e-9)
        assert rho > f.f1

    def test_symmetric_recovery(self):
        f = FVector(f1=0.0, f2=1.0, f3=0.0)
        rho, xi = recover_rho_xi(0.5, 0.5, f)
        assert rho == pytest.approx(1.0)
        assert xi == pytest.approx(1.0)

    def test_nonpositive_rate_reported(self):
        # evaluating the branch at a p far from any root can push rho
        # negative; that must surface, not be clamped
        f = FVector(f1=-5.0, f2=25.3, f3=0.0)
        with pytest.raises(NonPositiveRate):
            recover_rho_xi(0.9, 0.1, f)

    @given(st.integers(0, 10_000))
    @settings(max_examples=50, deadline=None)
    def test_second_equation_identity(self, draw):
        # p rho^2 + q xi^2 = f2 holds exactly by construction
        rng = np.random.default_rng(draw)
        params = random_valid_params(rng)
        f = exact_f(params)
        p_hat, q_hat = solve_p(f)
        rho, xi = recover_rho_xi(p_hat, q_hat, f)
        assert p_hat * rho**2 + (1 - p_hat) * xi**2 == pytest.approx(
            f.f2, rel=1e-10)


class TestPipeline:
    def test_exact_moments_roundtrip(self, ref_params, ref_moments):
        r = estimate_from_moments(ref_moments)
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
            r = estimate_from_moments(analytic_moments(params, h))
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
        assert len(scan_g(r.f).brackets) == 1

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

    def test_underflowing_skewness_denominator_is_typed(self, ref_params):
        # at x * 1e-120, (f2 - f1^2)^{3/2} is below float64's range
        x = simulate_path(ref_params, 0.0, H_REF, 2000, seed=1).values
        with pytest.raises(NoRoot, match="3/2 power underflows") as exc:
            estimate_all(SamplePath(h=H_REF, values=x * 1e-120))
        assert exc.value.stage == "solve_p"

    def test_mu1_squared_overflow_is_typed(self):
        # finite moments whose mu1^2 leaves float64's range
        m = Moments(mu1=1e155, mu2=1.0, mu3=0.0, mu4=1.0, h=H_REF,
                    n_used=10)
        with pytest.raises(MomentOverflow, match=r"mu1\^2 overflows"):
            estimate_theta(m)

    def test_g_curve_attachment(self, ref_moments):
        # the curve `gcurve` writes, scanned from the fit's f, starts at
        # GRID_EPS and crosses zero once, in a bracket around p_hat
        r = estimate_from_moments(ref_moments)
        curve = scan_g(r.f)
        assert curve.grid.shape == curve.g.shape
        assert curve.grid[0] == pytest.approx(GRID_EPS)
        (lo, hi), = curve.brackets
        assert lo < r.p_hat < hi
        idx = np.argmin(np.abs(curve.grid - r.p_hat))
        assert abs(curve.g[idx]) < 1e-4


class TestScaleEquivariance:
    """x -> 2^k x scales the k-th power sums by exact powers of two, so
    theta and p keep their bits and rho and xi scale by 2^k."""

    @pytest.fixture(scope="class")
    def paths(self, ref_params):
        return [simulate_path(ref_params, 0.0, H_REF, 10_000, seed=seed)
                for seed in range(1, 21)]

    @pytest.mark.parametrize("k", [-300, -200, -120, -60, -10, 10, 60, 100,
                                   120])
    def test_estimates_keep_their_bits(self, paths, k):
        for x in paths:
            r0 = estimate_all(x)
            r = estimate_all(SamplePath(h=H_REF, values=np.ldexp(x.values, k)))
            assert (r.theta_hat, r.p_hat) == (r0.theta_hat, r0.p_hat)
            assert r.rho_hat == math.ldexp(r0.rho_hat, k)
            assert r.xi_hat == math.ldexp(r0.xi_hat, k)
