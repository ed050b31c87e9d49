import math

import numpy as np
import pytest
from scipy.integrate import quad

from sevolab.exponents import SystemParams
from sevolab.multipliers import _propagator_scalar
from sevolab.oracle import NormKind, linear_norm
from sevolab.profiles import GaussianProfile
from sevolab.torus import (
    GridSpec,
    InitialData,
    ProfileTooWideError,
    SpectralState,
    _StepKernel,
    default_dt,
    detect_blowup,
    duhamel_step,
    init,
    linear_step,
    run,
    six_norms,
    t_valid,
)

PARAMS = SystemParams(1, 1, 1, 3, 4)


def make_data(u0=None, u1=None, v0=None, v1=None, sigma1=1.0, sigma2=1.0, n=1):
    return InitialData.from_profiles(u0, u1, v0, v1, sigma1, sigma2, n)


class TestGridSpec:
    def test_validation(self):
        with pytest.raises(ValueError):
            GridSpec(4, 64, 10.0)
        with pytest.raises(ValueError):
            GridSpec(1, 100, 10.0)  # not a power of two
        with pytest.raises(ValueError):
            GridSpec(1, 8, 10.0)

    def test_frequency_spacing(self):
        grid = GridSpec(1, 64, 20.0)
        xi = np.sort(np.unique(grid.xi_mag()))
        assert xi[1] == pytest.approx(math.pi / 20.0)

    def test_t_valid_window(self):
        grid = GridSpec(1, 4096, 200.0)
        assert t_valid(grid, PARAMS) == pytest.approx(624.0)


class TestInit:
    @pytest.mark.parametrize("n_dim", [1, 2, 3])
    def test_grid_norm_matches_continuum(self, n_dim):
        grid = GridSpec(n_dim, {1: 512, 2: 128, 3: 64}[n_dim], 40.0 if n_dim == 1 else 12.0)
        g = GaussianProfile(1.0, 1.0)
        state = init(grid, make_data(u0=g), PARAMS)
        assert six_norms(state)["u_l2"] == pytest.approx(g.l2(n_dim), rel=1e-8)

    def test_zero_data_gives_zero_state(self):
        grid = GridSpec(1, 64, 20.0)
        state = init(grid, make_data(), PARAMS)
        for arr in state.fields():
            assert np.all(arr == 0)

    def test_zero_mode_is_mass_quadrature(self):
        grid = GridSpec(1, 512, 40.0)
        g = GaussianProfile(0.3, 1.5)
        state = init(grid, make_data(u1=g), PARAMS)
        assert state.ut_hat[0].real * grid.dx == pytest.approx(g.mass(1), rel=1e-8)

    def test_profile_too_wide(self):
        grid = GridSpec(1, 64, 20.0)
        with pytest.raises(ProfileTooWideError):
            init(grid, make_data(u0=GaussianProfile(1.0, 10.0)), PARAMS)

    def test_a_norms(self):
        g = GaussianProfile(2.0, 1.0)
        data = make_data(u0=g, u1=g, sigma1=1.5)
        expected = g.l1(1) + g.h_sigma(1.5, 1) + g.l1(1) + g.l2(1)
        assert data.a_norm_u == pytest.approx(expected)
        assert data.a_norm_v == 0.0

    def test_inverse_transform_matches_profile_pointwise(self):
        grid = GridSpec(1, 256, 30.0)
        g = GaussianProfile(0.8, 1.2)
        state = init(grid, make_data(v0=g), PARAMS)
        recovered = np.fft.irfftn(state.v_hat, s=(256,), axes=(0,))
        sampled = g.value(np.abs(grid.axes()[0]))
        assert np.max(np.abs(recovered - sampled)) < 1e-10


class TestLinearStep:
    def test_zero_mode_formula(self):
        grid = GridSpec(1, 128, 20.0)
        g = GaussianProfile(1.0, 1.0)
        state = init(grid, make_data(u1=g), PARAMS)
        out = linear_step(state, 2.5)
        expected = state.ut_hat[0] * (1.0 - math.exp(-2.5))
        assert out.u_hat[0] == pytest.approx(expected, rel=1e-13)

    def test_half_steps_compose_exactly(self):
        grid = GridSpec(1, 128, 20.0)
        g = GaussianProfile(1.0, 1.0)
        state = init(grid, make_data(u0=g, v1=g), PARAMS)
        once = linear_step(state, 0.8)
        twice = linear_step(linear_step(state, 0.4), 0.4)
        for a, b in zip(once.fields(), twice.fields()):
            assert np.max(np.abs(a - b)) < 1e-12

    def test_cross_validation_against_oracle(self):
        grid = GridSpec(1, 1024, 100.0)
        g = GaussianProfile(1e-2, 1.0)
        data = make_data(u0=g, u1=g, v0=g, v1=g)
        times = [1.0, 5.0, 20.0, 80.0, 150.0]
        result = run(grid, data, PARAMS, 150.0, times, linear_only=True)
        for t, val in result.series["v_l2"].entries:
            if t == 0.0:
                continue
            oracle_val = linear_norm(g, g, t, 1.0, 1, NormKind.SOLUTION_L2)
            assert val == pytest.approx(oracle_val, rel=0.01)
        for t, val in result.series["u_dt"].entries:
            if t == 0.0:
                continue
            oracle_val = linear_norm(g, g, t, 1.0, 1, NormKind.TIME_DERIVATIVE)
            assert val == pytest.approx(oracle_val, rel=0.01)


class TestDuhamelStep:
    def test_vanishing_coupling_reduces_to_linear(self):
        grid = GridSpec(1, 128, 20.0)
        g = GaussianProfile(0.5, 1.0)
        state = init(grid, make_data(u0=g, u1=g), PARAMS)  # v identically zero
        stepped = duhamel_step(state, 0.2, PARAMS.p, PARAMS.q)
        lin = linear_step(state, 0.2)
        assert np.max(np.abs(stepped.u_hat - lin.u_hat)) == 0.0
        assert np.max(np.abs(stepped.ut_hat - lin.ut_hat)) == 0.0

    def test_single_mode_constant_forcing_weight(self):
        grid = GridSpec(1, 128, 20.0)
        state = init(grid, make_data(), PARAMS)
        k_index = 5
        xi5 = 2 * math.pi * np.fft.fftfreq(128, d=grid.dx)[k_index]
        x = grid.axes()[0]
        amp = 0.3
        force = amp * np.cos(xi5 * x)

        dt = 0.17
        stepped = duhamel_step(state, dt, PARAMS.p, PARAMS.q,
                               forcing=(lambda t: force, None))
        mu = xi5 ** 2
        oracle_weight, _ = quad(lambda s: _propagator_scalar(s, mu)[1], 0, dt,
                                epsabs=1e-16, epsrel=1e-13)
        force_hat = np.fft.fftn(force)
        expected = force_hat[k_index] * oracle_weight
        assert stepped.u_hat[k_index] == pytest.approx(expected, rel=1e-10)
        # derivative channel gets k1(dt) as its weight
        expected_dt = force_hat[k_index] * _propagator_scalar(dt, mu)[1]
        assert stepped.ut_hat[k_index] == pytest.approx(expected_dt, rel=1e-10)

    def test_manufactured_solution_second_order(self):
        # exact solution u* = exp(-t) g(x), v* = 0, via compensating forcing
        grid = GridSpec(1, 256, 30.0)
        g = GaussianProfile(0.1, 2.0)
        gx = g.value(np.abs(grid.axes()[0]))
        lap_g = np.fft.ifftn(grid.xi_mag() ** 2 * np.fft.fftn(gx)).real

        data = make_data(u0=g, u1=GaussianProfile(-0.1, 2.0))
        q = PARAMS.q

        def fu(t):
            return math.exp(-t) * lap_g

        def fv(t):
            return -np.abs(math.exp(-t) * gx) ** q

        errors = []
        dts = [0.2, 0.1, 0.05]
        for dt in dts:
            result = run(grid, data, PARAMS, 1.0, [1.0], dt=dt,
                         snapshot_times=[1.0], forcing=(fu, fv))
            u_num = result.snapshots[0][1]
            err = np.max(np.abs(u_num - math.exp(-1.0) * gx))
            errors.append(err)
        order1 = math.log2(errors[0] / errors[1])
        order2 = math.log2(errors[1] / errors[2])
        assert order1 >= 1.8
        assert order2 >= 1.8

    def test_overflow_sets_blowup_flag(self):
        grid = GridSpec(1, 64, 20.0)
        state = init(grid, make_data(u0=GaussianProfile(1.0, 1.0)), PARAMS)
        state.u_hat *= 1e300
        stepped = duhamel_step(state, 0.1, 9.0, 9.0)
        assert stepped.blown_up


class TestRunInvariants:
    def test_realness_and_symmetry(self):
        grid = GridSpec(1, 256, 30.0)
        g = GaussianProfile(0.5, 1.0)
        data = make_data(u0=g, u1=g, v0=g, v1=g)
        params = SystemParams(1, 1, 1, 2, 2)
        result = run(grid, data, params, 3.0, [3.0], snapshot_times=[1.5, 3.0])
        state_like = result.snapshots[-1][1]
        # reflection symmetry on the periodic grid: index j <-> (N - j) mod N
        reflected = np.roll(state_like[::-1], 1)
        scale = np.max(np.abs(state_like))
        assert np.max(np.abs(state_like - reflected)) < 1e-9 * scale

    def test_realness_of_spectral_state(self):
        grid = GridSpec(1, 128, 20.0)
        g = GaussianProfile(0.5, 1.0)
        data = make_data(u0=g, v0=g)
        params = SystemParams(1, 1.5, 1, 2, 3)
        state = init(grid, data, params)
        for _ in range(5):
            state = duhamel_step(state, 0.1, params.p, params.q)
        # the half spectrum is real by construction except on its
        # self-conjugate bins, the zero and Nyquist planes of the last axis
        for arr in (state.u_hat, state.v_hat):
            planes = arr[..., [0, -1]]
            assert np.max(np.abs(planes.imag)) < 1e-10 * max(np.max(np.abs(planes.real)), 1e-30)

    def test_step_halving_self_convergence(self):
        grid = GridSpec(1, 256, 30.0)
        g = GaussianProfile(0.05, 1.0)
        data = make_data(u0=g, u1=g, v0=g, v1=g)
        params = SystemParams(1, 1, 1, 2, 2)
        finals = []
        for dt in (0.2, 0.1, 0.05):
            res = run(grid, data, params, 4.0, [4.0], dt=dt)
            finals.append(res.series["u_l2"].entries[-1][1])
        d1 = abs(finals[0] - finals[1])
        d2 = abs(finals[1] - finals[2])
        assert math.log2(d1 / d2) >= 1.8

    def test_records_strictly_increasing_and_within_tmax(self):
        grid = GridSpec(1, 128, 20.0)
        g = GaussianProfile(0.01, 1.0)
        res = run(grid, make_data(u0=g), PARAMS, 2.0, [0.5, 1.0, 2.0])
        times = res.series["u_l2"].times()
        assert np.all(np.diff(times) > 0)
        assert times[-1] <= 2.0

    def test_zero_data_stays_zero_without_blowup(self):
        grid = GridSpec(1, 64, 20.0)
        res = run(grid, make_data(), PARAMS, 2.0, [1.0, 2.0])
        assert res.blowup is None
        assert all(v == 0.0 for _, v in res.series["u_l2"].entries)
        assert all(v == 0.0 for _, v in res.series["v_dt"].entries)


class TestStepKernel:
    def test_bounded_lru_keeps_main_dt(self):
        grid = GridSpec(1, 64, 20.0)
        kernel = _StepKernel(grid, 1.0, 1.5)
        main = 0.05
        # a run's pattern: main steps, then each record interval's short final step
        for final in (0.011, 0.023, 0.037, 0.041):
            for dt in (main, main, final):
                kernel.get(dt)
                assert len(kernel._entries) <= 2
        assert kernel.builds == 5  # the main dt once, each final dt once
        entry = kernel.get(main)
        assert kernel.builds == 5
        assert kernel.get(main) is entry


class TestRunEcho:
    ECHO_KEYS = {"threshold", "dt", "initial_total_norm", "steps", "kernel_builds"}

    def test_echo_counts_steps_and_builds(self):
        grid = GridSpec(1, 64, 20.0)
        data = make_data(u0=GaussianProfile(0.01, 1.0))
        res = run(grid, data, PARAMS, 1.0, [0.25, 0.5, 1.0], dt=0.1)
        assert set(res.config_echo) == self.ECHO_KEYS
        # 0.25 = 0.1 + 0.1 + 0.05, 0.5 likewise, 1.0 = 5 x 0.1
        assert res.config_echo["steps"] == 11
        assert res.config_echo["kernel_builds"] >= 2

    def test_halt_at_time_zero_echoes_same_keys(self):
        grid = GridSpec(1, 64, 20.0)
        data = make_data(u0=GaussianProfile(1.0, 1.0))
        res = run(grid, data, PARAMS, 1.0, [1.0], dt=0.1, blowup_threshold=1e-12)
        assert res.blowup["time"] == 0.0
        assert set(res.config_echo) == self.ECHO_KEYS
        assert res.config_echo["dt"] == 0.1
        assert res.config_echo["steps"] == 0
        assert res.config_echo["kernel_builds"] == 0


class TestDetectBlowup:
    def make_state(self):
        grid = GridSpec(1, 64, 20.0)
        return init(grid, make_data(u0=GaussianProfile(1.0, 1.0)), PARAMS)

    def test_norm_over_threshold(self):
        state = self.make_state()
        state.u_hat *= 1e7
        assert detect_blowup(state, 1e6)

    def test_zero_state(self):
        grid = GridSpec(1, 64, 20.0)
        state = init(grid, make_data(), PARAMS)
        assert not detect_blowup(state, 1e6)

    def test_single_nonfinite_coefficient(self):
        state = self.make_state()
        state.v_hat[3] = np.nan
        assert detect_blowup(state, 1e6)


class TestDefaultDt:
    def test_resolves_fastest_oscillation(self):
        grid = GridSpec(1, 4096, 200.0)
        dt = default_dt(grid, PARAMS)
        om_max = math.sqrt(4 * grid.xi_max**2 - 1) / 2
        assert dt == pytest.approx(0.1 * 2 * math.pi / om_max)
