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

from dexpou.simulate import _MAX_BLOCK, _REPLAY_MAX_RATE, _SPAN, _ar1_in_place

from conftest import H_REF
from oracles import composed_jump_sums, draw_double_exp, empirical_char_fn


def assert_same_draw(params, h, seed, size):
    """draw_transition_jump_sum gives composed_jump_sums's bits and leaves
    the stream in the same place; returns the composition's counts."""
    rng = make_rng(seed)
    expect, counts = composed_jump_sums(params, h, rng, size)
    after = make_rng(seed)
    got = draw_transition_jump_sum(params, h, after, size=size)
    assert got.dtype == np.float64
    assert got.tobytes() == expect.tobytes()
    assert after.random() == rng.random()
    return counts


def _candidate_runs(flags):
    """(start, stop) of each run of True in ``flags``."""
    edges = np.flatnonzero(np.diff(np.concatenate(([0], flags, [0]))))
    return zip(edges[::2].tolist(), edges[1::2].tolist())


def _ends_step_inside_run(run, limit):
    """Whether numpy's running product over ``run``, a run of uniforms above
    ``limit`` that starts a step, falls to ``limit`` before the last one."""
    prod = 1.0
    for value in run[:-1]:
        prod *= value
        if not prod > limit:
            return True
    return False


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
        mean_expect = ref_moments.mu1 * (1.0 - decay)
        var_expect = (ref_moments.mu2 - ref_moments.mu1**2) * (1.0 - decay**2)
        se_mean = draws.std() / math.sqrt(n)
        assert abs(draws.mean() - mean_expect) < 4.0 * se_mean
        centered = (draws - draws.mean()) ** 2
        se_var = centered.std() / math.sqrt(n)
        assert abs(draws.var() - var_expect) < 4.0 * se_var

    @pytest.mark.parametrize("p, lam, h", [
        (0.6, 2.0, 0.02), (0.01, 2.0, 0.5), (0.99, 5.0, 0.1),
        (0.5, 100.0, 0.1),  # lam h = 10
        (0.6, 1e-3, 1.0), (0.6, 0.02, 1.0),
        # lam h at the switch to rng.poisson and one ulp either side
        (0.3, math.nextafter(_REPLAY_MAX_RATE, 0.0), 1.0),
        (0.3, _REPLAY_MAX_RATE, 1.0),
        (0.3, math.nextafter(_REPLAY_MAX_RATE, 1.0), 1.0),
    ])
    def test_same_bits_as_public_draw(self, p, lam, h):
        # the composition the jump sums were first built from
        params = ModelParams(theta=2.0, eta=1.2, phi=1.6, p=p, lam=lam)
        for size in (1, 2, 5_000):
            for seed in (1, 2, 3):
                assert_same_draw(params, h, seed, size)

    @pytest.mark.parametrize("lam, seed, size, beyond", [
        (0.02, 17, 2_000, 1), (0.14, 224, 2_000, 2), (0.14, 400, 2_000, 2),
        (0.14, 100, 2_000, 1), (0.14, 896, 2_000, 1), (0.14, 473, 2, 1)])
    def test_bulk_draw_ending_inside_a_step(self, lam, seed, size, beyond):
        # the last bulk uniform continues a step that ends ``beyond``
        # uniforms later: at the next uniform, or after one more jump.  At
        # seeds 100, 896 and 473 that next uniform is above e^{-lam h} and
        # only the carried product is not; the open step began at the last
        # bulk uniform (100) or at the one before it (896, 473), and at 473
        # the product from the last bulk uniform alone stays above too
        params = ModelParams(theta=2.0, eta=1.2, phi=1.6, p=0.6, lam=lam)
        counts = assert_same_draw(params, 1.0, seed, size)
        ends = np.cumsum(counts + 1)  # uniforms used through each step
        assert ends[np.searchsorted(ends, size)] - size == beyond

    def test_step_ending_inside_a_run_of_candidates(self):
        # seed 206 draws a run of three or more uniforms above e^{-lam h}
        # whose running product falls to e^{-lam h} before the run ends
        params = ModelParams(theta=2.0, eta=1.2, phi=1.6, p=0.6, lam=0.02)
        seed, size = 206, 2_000
        limit = math.exp(-0.02)
        u = make_rng(seed).random(size)
        assert any(
            _ends_step_inside_run(u[start:stop].tolist(), limit)
            for start, stop in _candidate_runs(u > limit) if stop - start >= 3)
        assert_same_draw(params, 1.0, seed, size)

    @pytest.mark.parametrize("lam", [1.0, 10.0])  # lam h 0.02 and 0.2
    def test_empty_and_negative_size(self, lam):
        params = ModelParams(theta=2.0, eta=1.2, phi=1.6, p=0.6, lam=lam)
        with pytest.raises(ValueError):
            draw_transition_jump_sum(params, H_REF, make_rng(16), size=-1)
        rng = make_rng(16)
        got = draw_transition_jump_sum(params, H_REF, rng, size=0)
        assert got.dtype == np.float64 and got.shape == (0,)
        assert rng.random() == make_rng(16).random()

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
        mean_expect = decay * x + ref_moments.mu1 * (1.0 - decay)
        var_expect = (ref_moments.mu2 - ref_moments.mu1**2) * (1.0 - decay**2)
        assert abs(nxt.mean() - mean_expect) < 4.0 * nxt.std() / math.sqrt(n)
        centered = (nxt - nxt.mean()) ** 2
        assert abs(nxt.var() - var_expect) < 4.0 * centered.std() / math.sqrt(n)

    def test_sample_mean_near_stationary_mean(self, ref_params, ref_moments):
        n = 3000
        path = simulate_path(ref_params, 0.0, H_REF, n, seed=5)
        # analytic long-run variance of the level series
        decay = math.exp(-2.0 * H_REF)
        var = ref_moments.mu2 - ref_moments.mu1**2
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
        # jump sums and path share one array, and the bulk uniforms the
        # counts are replayed from are freed before the sums are made: 1.15x
        # measured (1.23x with rng.poisson's counts, 2.06x with lfilter)
        n = 1_000_000
        simulate_path(ref_params, 0.0, H_REF, 100, seed=1)  # warm caches
        tracemalloc.start()
        try:
            path = simulate_path(ref_params, 0.0, H_REF, n, seed=1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 1.5 * 8 * (path.burn_in + n)
