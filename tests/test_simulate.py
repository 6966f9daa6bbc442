"""Simulator law checks: the one-step decomposition against the analytic
stationary moments, plus determinism, and the blocked AR(1) recursion
against a sequential loop."""

import math
import tracemalloc

import numpy as np
import pytest
from scipy.stats import skew

from dexpou import (
    ModelParams,
    default_burn_in,
    draw_transition_jump_sum,
    make_rng,
    simulate_path,
    stationary_char_fn,
)

from dexpou.simulate import _MAX_BLOCK, _SPAN, _ar1_in_place

from conftest import H_REF
from oracles import draw_double_exp, empirical_char_fn


def test_default_burn_in(ref_params):
    assert default_burn_in(ref_params.theta, H_REF) == 250


class TestDrawDoubleExp:
    def test_p_one_all_nonnegative(self):
        rng = make_rng(7)
        draws = draw_double_exp(1.0, 1.2, 1.6, rng, size=10_000)
        assert np.all(draws >= 0.0)

    def test_p_zero_all_negative(self):
        rng = make_rng(8)
        draws = draw_double_exp(0.0, 1.2, 1.6, rng, size=10_000)
        assert np.all(draws < 0.0)

    def test_mean_matches_mixture(self):
        # E[Y] = p/eta - q/phi = 0.5 - 0.25 = 0.25
        rng = make_rng(9)
        n = 1_000_000
        draws = draw_double_exp(0.6, 1.2, 1.6, rng, size=n)
        se = draws.std() / math.sqrt(n)
        assert abs(draws.mean() - 0.25) < 4.0 * se

    def test_symmetric_skewness_zero(self):
        rng = make_rng(10)
        n = 1_000_000
        draws = draw_double_exp(0.5, 2.0, 2.0, rng, size=n)
        # asymptotic Var(skew) for a symmetric law: (m6/s^6 - 6 m4/s^4 + 9)/n
        c = draws - draws.mean()
        s2 = np.mean(c**2)
        var_skew = (np.mean(c**6) / s2**3 - 6.0 * np.mean(c**4) / s2**2 + 9.0) / n
        assert abs(skew(draws)) < 4.0 * math.sqrt(var_skew)

    def test_scalar_draw(self):
        rng = make_rng(11)
        y = draw_double_exp(0.6, 1.2, 1.6, rng)
        assert isinstance(y, float)


class TestTransitionJumpSum:
    def test_tiny_intensity_returns_zero(self, ref_params):
        params = ModelParams(theta=2.0, eta=1.2, phi=1.6, p=0.6, lam=1e-12)
        rng = make_rng(12)
        draws = draw_transition_jump_sum(params, H_REF, rng, size=100_000)
        assert np.all(draws == 0.0)
        assert draws.dtype == np.float64

    def test_mean_and_variance(self, ref_params, ref_moments):
        # stationarity forces E = m1 (1 - e^{-th h}), Var = (m2-m1^2)(1-e^{-2 th h})
        rng = make_rng(13)
        n = 1_000_000
        draws = draw_transition_jump_sum(ref_params, H_REF, rng, size=n)
        decay = math.exp(-2.0 * H_REF)
        mean_expect = ref_moments.m1 * (1.0 - decay)
        var_expect = (ref_moments.m2 - ref_moments.m1**2) * (1.0 - decay**2)
        se_mean = draws.std() / math.sqrt(n)
        assert abs(draws.mean() - mean_expect) < 4.0 * se_mean
        centered = (draws - draws.mean()) ** 2
        se_var = centered.std() / math.sqrt(n)
        assert abs(draws.var() - var_expect) < 4.0 * se_var

    @pytest.mark.parametrize("p, lam, h", [
        (0.6, 2.0, 0.02), (0.01, 2.0, 0.5), (0.99, 5.0, 0.1),
        (0.5, 100.0, 0.1),  # lam h = 10
    ])
    def test_same_bits_as_public_draw(self, p, lam, h):
        # the composition the jump sums were first built from
        params = ModelParams(theta=2.0, eta=1.2, phi=1.6, p=p, lam=lam)
        for seed in (1, 2, 3):
            rng = make_rng(seed)
            counts = rng.poisson(lam * h, 5_000)
            scale = np.exp(params.theta * h * rng.random(int(counts.sum())))
            jumps = draw_double_exp(p, params.eta * scale, params.phi * scale,
                                    rng, size=len(scale))
            expect = np.bincount(np.repeat(np.arange(5_000), counts),
                                 weights=jumps, minlength=5_000)
            got = draw_transition_jump_sum(params, h, make_rng(seed), size=5_000)
            assert got.tobytes() == expect.tobytes()

    def test_time_homogeneity(self, ref_params):
        # the draw law does not depend on the step position in the stream
        rng = make_rng(14)
        draws = draw_transition_jump_sum(ref_params, H_REF, rng, size=400_000)
        early, late = draws[:200_000], draws[200_000:]
        n = 200_000
        for k in (1, 2, 3):
            a, b = early**k, late**k
            se = math.sqrt(a.var() / n + b.var() / n)
            assert abs(a.mean() - b.mean()) < 4.0 * se


class TestSimulatePath:
    def test_rejects_bad_inputs(self, ref_params):
        with pytest.raises(ValueError, match="n"):
            simulate_path(ref_params, 0.0, H_REF, 0, seed=1)
        with pytest.raises(ValueError, match="h"):
            simulate_path(ref_params, 0.0, -0.1, 100, seed=1)

    def test_deterministic_decay_without_jumps(self):
        params = ModelParams(theta=2.0, eta=1.2, phi=1.6, p=0.6, lam=1e-12)
        path = simulate_path(params, x0=1.0, h=H_REF, n=200, seed=3, burn_in=0)
        expected = np.exp(-2.0 * H_REF * np.arange(1, 201))
        assert np.allclose(path.values, expected, rtol=1e-12)

    def test_same_seed_bit_identical(self, ref_params):
        a = simulate_path(ref_params, 0.0, H_REF, 500, seed=42)
        b = simulate_path(ref_params, 0.0, H_REF, 500, seed=42)
        assert np.array_equal(a.values, b.values)

    def test_replications_differ(self, ref_params):
        a = simulate_path(ref_params, 0.0, H_REF, 500, seed=42, replication=0)
        b = simulate_path(ref_params, 0.0, H_REF, 500, seed=42, replication=1)
        assert not np.array_equal(a.values, b.values)

    def test_one_step_exactness_from_fixed_state(self, ref_params, ref_moments):
        # many one-step transitions from X_t = x: mean e^{-th h} x + E[jumps]
        x = 0.7
        rng = make_rng(15)
        n = 400_000
        jumps = draw_transition_jump_sum(ref_params, H_REF, rng, size=n)
        nxt = math.exp(-2.0 * H_REF) * x + jumps
        decay = math.exp(-2.0 * H_REF)
        mean_expect = decay * x + ref_moments.m1 * (1.0 - decay)
        var_expect = (ref_moments.m2 - ref_moments.m1**2) * (1.0 - decay**2)
        assert abs(nxt.mean() - mean_expect) < 4.0 * nxt.std() / math.sqrt(n)
        centered = (nxt - nxt.mean()) ** 2
        assert abs(nxt.var() - var_expect) < 4.0 * centered.std() / math.sqrt(n)

    def test_sample_mean_near_stationary_mean(self, ref_params, ref_moments):
        n = 3000
        path = simulate_path(ref_params, 0.0, H_REF, n, seed=5)
        # analytic long-run variance of the level series
        decay = math.exp(-2.0 * H_REF)
        var = ref_moments.m2 - ref_moments.m1**2
        long_run = var * (1.0 + 2.0 * decay / (1.0 - decay))
        assert abs(path.values.mean() - 0.125) < 4.0 * math.sqrt(long_run / n)

    def test_empirical_cf_converges(self, ref_params):
        path = simulate_path(ref_params, 0.0, H_REF, 100_000, seed=1)
        for u in (0.5, 1.0, 2.0):
            dev = abs(empirical_char_fn(path, u)
                      - stationary_char_fn(ref_params, u))
            assert dev < 0.02


def sequential_ar1(jumps, a, x0):
    """X_j = a X_{j-1} + J_j, one step at a time, X_0 = x0."""
    out = np.empty(len(jumps))
    y = x0
    for j, jump in enumerate(jumps.tolist()):
        y = a * y + jump
        out[j] = y
    return out


class TestAR1Kernel:
    """The blocked in-place recursion equals the sequential loop up to
    rounding, whatever the block layout."""

    @pytest.mark.parametrize("rate, n, x0", [
        (0.04, 10_250, 0.0),           # 6 blocks of 1600 and a tail of 650
        (0.04, 3_201, -2.0),           # 2 blocks and a tail of 1 step
        (0.04, 4_800, 0.5),            # whole blocks only, no tail
        (2.0, 100_003, 0.3),           # blocks of 32 steps
        (_SPAN, 5_000, 1.0),           # blocks of 1 step
        (3.0 * _SPAN, 5_000, -1.0),    # blocks of 1 step, a ~ 1e-84
        (1e-7, 1_000, 0.0),            # one block shorter than _MAX_BLOCK
        (1e-4, 3 * _MAX_BLOCK + 7, 0.0),   # blocks capped at _MAX_BLOCK
        (0.04, 5_000, 1e8),            # large |x0|
        (0.04, 2, 0.7),                # the shortest path
    ])
    def test_matches_sequential_loop(self, ref_params, rate, n, x0):
        jumps = draw_transition_jump_sum(ref_params, H_REF, make_rng(21),
                                         size=n)
        expect = sequential_ar1(jumps, math.exp(-rate), x0)
        got = _ar1_in_place(jumps.copy(), rate, x0)
        assert np.max(np.abs(got - expect)) <= 1e-13 * np.max(np.abs(expect))

    def test_overwrites_its_input(self, ref_params):
        jumps = draw_transition_jump_sum(ref_params, H_REF, make_rng(22),
                                         size=5_000)
        assert _ar1_in_place(jumps, 0.04, 0.0) is jumps

    @pytest.mark.parametrize("rate", [1e-7, 0.04, 2.0, 3.0 * _SPAN])
    def test_no_jumps_is_pure_decay(self, rate):
        # against x0 e^{-rate j}: the powers a**j of the rounded
        # a = e^{-rate} drift by up to half an ulp per power (8e-13 at
        # j = 7001, far beyond the kernel's error)
        n, x0 = 7_001, 1.5
        got = _ar1_in_place(np.zeros(n), rate, x0)
        expect = x0 * np.exp(-rate * np.arange(1, n + 1))
        assert np.max(np.abs(got - expect)) <= 1e-13 * x0

    def test_simulate_path_allocates_no_second_path(self, ref_params):
        # jump sums and path share one array, and the Poisson counts are
        # freed before the sums are made: 1.18x measured, 2.06x with lfilter
        n = 1_000_000
        simulate_path(ref_params, 0.0, H_REF, 100, seed=1)  # warm caches
        tracemalloc.start()
        try:
            path = simulate_path(ref_params, 0.0, H_REF, n, seed=1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 1.5 * 8 * (path.burn_in + n)
