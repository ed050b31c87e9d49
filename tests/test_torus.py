import functools
import math
import tracemalloc

import numpy as np
import pytest
import scipy.fft
from scipy.integrate import quad

from sevolab.exponents import SystemParams
from sevolab.multipliers import (
    _propagator_scalar,
    duhamel_weights,
    propagation_matrix,
    propagator_arrays,
)
from sevolab.oracle import NormKind, linear_norm
from sevolab.profiles import GaussianProfile
from sevolab.testfn import Functionals, TestFunctionSpec
from sevolab.torus import (
    GridSpec,
    InitialData,
    ProfileTooWideError,
    SpectralState,
    _energy,
    _StepKernel,
    _power,
    _top_octave_fraction,
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


class Snapshots:
    """Observer keeping the full-grid (t, u, v) at its times."""

    def __init__(self, times):
        self.times = times
        self.fields = []

    def __call__(self, t, state):
        self.fields.append((t, *state.grid.unfold(state.grid.to_physical(state.y[0]))))


def corner(grid, w):
    """The corner (indices 0..N/2-1 of each axis) of a full-grid array."""
    return w[(slice(0, grid.points_per_dim // 2),) * grid.n_dim]


def full_xi_mag(grid):
    """|xi| at the full grid's DFT bins, in np.fft order."""
    axis = 2.0 * math.pi * np.fft.fftfreq(grid.points_per_dim, d=grid.dx)
    return np.sqrt(sum(c * c for c in np.meshgrid(*[axis] * grid.n_dim, indexing="ij")))


def corner_bins(grid, f_hat):
    """The corner coefficients of a full-grid DFT (or rfftn half spectrum):
    bins [0, N/2)^n, each times exp(-i*pi*k/N) per axis, the phase of the
    half-cell offset of the cell-centred samples."""
    k = np.arange(grid.points_per_dim // 2)
    k_sum = functools.reduce(np.add.outer, [k] * grid.n_dim)
    return corner(grid, f_hat) * np.exp(-1j * math.pi * k_sum / grid.points_per_dim)


def two_pass_step(state, dt, p, q, forcing, kernel):
    """The ETD2 step with one transform pair per coupling stage, written
    out: the reference that the stacked step must reproduce bit for bit."""
    grid = state.grid
    ((k0, k1), (dk0, dk1)), ((ab, b), (abd, bd)) = kernel.get(dt)

    def coupling(w, t):
        phys = np.abs(grid.to_physical(w))
        _power(phys[0], q, np.empty_like(phys[0]))
        _power(phys[1], p, np.empty_like(phys[1]))
        if forcing is not None:
            phys[1] += forcing[0](t)
            phys[0] += forcing[1](t)
        return grid.to_spectral(phys)[::-1]

    w0, wt0 = state.y
    n0 = coupling(w0, state.time)
    w = k0 * w0 + k1 * wt0
    wt = dk0 * w0 + dk1 * wt0
    n1 = coupling(w, state.time + dt)
    return SpectralState(np.stack((w + ab * n0 + b * n1, wt + abd * n0 + bd * n1)),
                         state.time + dt, grid, state.sigma1, state.sigma2)


def rfftn_corner(grid, f):
    """The corner coefficients of a full-grid field, from its rfftn."""
    return corner_bins(grid, np.fft.rfftn(f))


def full_radius(grid):
    """|x| at every cell centre x_j = -L + dx*(j + 1/2), j = 0..N-1, of the
    full grid, built without the corner's reflection."""
    axis = -grid.half_length + grid.dx * (np.arange(grid.points_per_dim) + 0.5)
    return np.sqrt(sum(c * c for c in np.meshgrid(*[axis] * grid.n_dim, indexing="ij")))


def rfftn_reference_spectra(grid, data, params, dt, steps):
    """``steps`` coupled steps of the full-grid rfftn half spectra, each field
    on its own with np.power; returns the half spectra of (u, v, ut, vt)."""
    r = full_radius(grid)
    u, ut, v, vt = (np.fft.rfftn(prof.value(r)) for prof in (data.u0, data.u1,
                                                             data.v0, data.v1))

    def phys(f):
        return np.fft.irfftn(f, s=r.shape, axes=range(grid.n_dim))

    def coupling(u, v):
        return (np.fft.rfftn(np.power(np.abs(phys(v)), params.p)),
                np.fft.rfftn(np.power(np.abs(phys(u)), params.q)))

    xi_half = full_xi_mag(grid)[..., :grid.points_per_dim // 2 + 1]
    ops = []
    for sigma in (params.sigma1, params.sigma2):
        mu = xi_half ** (2.0 * sigma)
        tables = propagator_arrays(dt, mu)
        ops.append((tables, duhamel_weights(dt, mu, tables)))
    fields = [(u, ut), (v, vt)]
    for _ in range(steps):
        start = coupling(fields[0][0], fields[1][0])
        linear = [(k0 * w + k1 * wt, dk0 * w + dk1 * wt)
                  for ((k0, k1, dk0, dk1), _), (w, wt) in zip(ops, fields)]
        end = coupling(linear[0][0], linear[1][0])
        fields = [(w + (A - B) * n0 + B * n1, wt + (Ad - Bd) * n0 + Bd * n1)
                  for (_, (A, B, Ad, Bd)), (w, wt), n0, n1 in zip(ops, linear, start, end)]
    (u, ut), (v, vt) = fields
    return u, v, ut, vt


def rfftn_reference_step(grid, data, params, dt):
    """One step of :func:`rfftn_reference_spectra` as corner coefficients:
    the rows of the state's y[0] and then of its y[1]."""
    return [corner_bins(grid, f) for f in rfftn_reference_spectra(grid, data, params, dt, 1)]


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

    @pytest.mark.parametrize("n_dim", [1, 2, 3])
    def test_corner_arrays_match_full_grid_construction(self, n_dim):
        grid = GridSpec(n_dim, 32, 7.3)
        x = -grid.half_length + grid.dx * (np.arange(32) + 0.5)  # cell centres
        xi = 2.0 * math.pi * np.fft.fftfreq(32, d=grid.dx)
        for got, axis in ((grid.radius(), x), (grid.xi_mag(), xi)):
            full = np.sqrt(sum(c * c for c in np.meshgrid(*[axis] * n_dim, indexing="ij")))
            assert np.array_equal(got, corner(grid, full))

    @pytest.mark.parametrize("n_dim", [1, 2, 3])
    def test_weights_are_built_once_and_read_only(self, n_dim):
        grid = GridSpec(n_dim, 32, 7.3)
        weights = grid.spectral_weights
        assert grid.spectral_weights is weights
        xi, norm, top = weights
        for arr in weights:
            assert arr.shape == grid.corner_shape and not arr.flags.writeable
            with pytest.raises(ValueError):
                arr[(0,) * n_dim] = 1.0
        assert np.array_equal(xi, grid.xi_mag())
        assert np.array_equal(top, np.where(xi > grid.xi_max / 2.0, norm, 0.0))
        assert 0 < np.count_nonzero(top) < top.size

    @pytest.mark.parametrize("n_dim", [1, 2, 3])
    def test_samples_weigh_the_whole_box(self, n_dim):
        grid = GridSpec(n_dim, 32, 7.3)
        volume = grid.sample_weight * math.prod(grid.corner_shape)
        assert volume == pytest.approx((2.0 * grid.half_length) ** n_dim, rel=1e-14)

    def test_t_valid_window(self):
        grid = GridSpec(1, 4096, 200.0)
        assert t_valid(grid, PARAMS) == pytest.approx(624.0)


class TestInit:
    @pytest.mark.parametrize("n_dim", [1, 2, 3])
    def test_grid_norm_matches_continuum(self, n_dim):
        grid = GridSpec(n_dim, {1: 512, 2: 128, 3: 64}[n_dim], 40.0 if n_dim == 1 else 12.0)
        g = GaussianProfile(1.0, 1.0)
        state = init(grid, InitialData(u0=g), PARAMS)
        assert six_norms(state)["u_l2"] == pytest.approx(g.l2(n_dim), rel=1e-8)

    def test_zero_data_gives_zero_state(self):
        grid = GridSpec(1, 64, 20.0)
        state = init(grid, InitialData(), PARAMS)
        for arr in state.y:
            assert np.all(arr == 0)

    def test_zero_mode_is_mass_quadrature(self):
        grid = GridSpec(1, 512, 40.0)
        g = GaussianProfile(0.3, 1.5)
        state = init(grid, InitialData(u1=g), PARAMS)
        assert state.y[1, 0, 0] * grid.dx == pytest.approx(g.mass(1), rel=1e-8)

    def test_profile_too_wide(self):
        grid = GridSpec(1, 64, 20.0)
        with pytest.raises(ProfileTooWideError):
            init(grid, InitialData(u0=GaussianProfile(1.0, 10.0)), PARAMS)

    @pytest.mark.parametrize("n_dim,npts", [(1, 256), (2, 64), (3, 32)])
    def test_corner_coefficients_are_rfftn_bins(self, n_dim, npts):
        grid = GridSpec(n_dim, npts, 10.0)
        g, h = GaussianProfile(0.8, 1.2), GaussianProfile(-0.4, 0.9)
        state = init(grid, InitialData(u0=g, v1=h), PARAMS)
        r = grid.unfold(grid.radius())
        assert state.y.shape == (2, 2, *grid.corner_shape)
        for got, prof in ((state.y[0, 0], g), (state.y[1, 1], h)):
            ref = rfftn_corner(grid, prof.value(r))
            assert np.max(np.abs(got - ref)) <= 1e-15 * np.max(np.abs(ref))

    def test_inverse_transform_matches_profile_pointwise(self):
        grid = GridSpec(1, 256, 30.0)
        g = GaussianProfile(0.8, 1.2)
        state = init(grid, InitialData(v0=g), PARAMS)
        # the full half spectrum: bins 0..127 undo the phase, bin 128 is 0
        phase = np.exp(1j * math.pi * np.arange(128) / 256)
        recovered = np.fft.irfft(np.append(state.y[0, 1] * phase, 0.0), n=256)
        sampled = g.value(grid.unfold(grid.radius()))
        assert np.max(np.abs(recovered - sampled)) < 1e-10


class TestCornerMemory:
    # a 64^3 corner is 32^3 samples, 0.25 MiB per field, and a full-grid
    # array 2 MiB: building a state, the corner tables or a functional
    # observer never goes through the full grid
    GRID = GridSpec(3, 64, 12.0)
    PARAMS = SystemParams(3, 1.0, 1.0, 3.0, 3.0)
    LIMIT = 3 * 2**20

    @staticmethod
    def peak(build):
        tracemalloc.start()
        try:
            build()
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    def test_init(self):
        g = GaussianProfile(0.5, 1.0)
        data = InitialData(u0=g, u1=g, v0=g, v1=g)
        assert self.peak(lambda: init(self.GRID, data, self.PARAMS)) <= self.LIMIT

    def test_spectral_weights(self):
        grid = GridSpec(3, 64, 12.0)  # a new grid, so that the weights are built here
        assert self.peak(lambda: grid.spectral_weights) <= self.LIMIT

    def test_functionals(self):
        spec = TestFunctionSpec(gamma=1.0, r=3.0, R=4.0)
        assert self.peak(lambda: Functionals(self.GRID, self.PARAMS, [spec], [0.5, 1.0])) \
            <= self.LIMIT


class TestLinearStep:
    def test_zero_mode_formula(self):
        grid = GridSpec(1, 128, 20.0)
        g = GaussianProfile(1.0, 1.0)
        state = init(grid, InitialData(u1=g), PARAMS)
        out = linear_step(state, 2.5)
        expected = state.y[1, 0, 0] * (1.0 - math.exp(-2.5))
        assert out.y[0, 0, 0] == pytest.approx(expected, rel=1e-13)

    def test_half_steps_compose_exactly(self):
        grid = GridSpec(1, 128, 20.0)
        g = GaussianProfile(1.0, 1.0)
        state = init(grid, InitialData(u0=g, v1=g), PARAMS)
        once = linear_step(state, 0.8)
        twice = linear_step(linear_step(state, 0.4), 0.4)
        for a, b in zip(once.y, twice.y):
            assert np.max(np.abs(a - b)) < 1e-12

    def test_sets_energy_like_the_coupled_step(self):
        grid = GridSpec(2, 32, 10.0)
        params = SystemParams(2, 1.0, 1.5, 3.0, 3.0)
        g = GaussianProfile(0.5, 1.0)
        state = init(grid, InitialData(u0=g, v1=g), params)
        out = linear_step(state, 0.3)
        mult = grid.spectral_weights[1]
        assert out.energy == _energy(out.y, mult)
        assert out.energy > 0 and not out.blown_up

    @pytest.mark.parametrize("dt", [0.0, -0.1, math.nan, math.inf])
    def test_rejects_dt_with_any_kernel(self, dt):
        grid = GridSpec(1, 64, 20.0)
        state = init(grid, InitialData(u0=GaussianProfile(0.01, 1.0)), PARAMS)
        kernel = _StepKernel(grid, 1.0, 1.0)
        linear_step(state, 0.1, kernel=kernel)  # the kernel holds a valid step
        for step in (lambda: linear_step(state, dt), lambda: linear_step(state, dt, kernel),
                     lambda: duhamel_step(state, dt, 3.0, 4.0, kernel=kernel)):
            with pytest.raises(ValueError, match="dt must be finite and positive"):
                step()

    def test_overflow_sets_blowup_flag(self):
        grid = GridSpec(1, 64, 20.0)
        state = init(grid, InitialData(u0=GaussianProfile(1.0, 1.0)), PARAMS)
        state.y[0, 0] *= 1e300
        stepped = linear_step(state, 0.1)
        assert stepped.blown_up and not math.isfinite(stepped.energy)

    def test_cross_validation_against_oracle(self):
        grid = GridSpec(1, 1024, 100.0)
        g = GaussianProfile(1e-2, 1.0)
        data = InitialData(u0=g, u1=g, v0=g, v1=g)
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
        state = init(grid, InitialData(u0=g, u1=g), PARAMS)  # v identically zero
        stepped = duhamel_step(state, 0.2, PARAMS.p, PARAMS.q)
        lin = linear_step(state, 0.2)
        assert np.max(np.abs(stepped.y[0, 0] - lin.y[0, 0])) == 0.0
        assert np.max(np.abs(stepped.y[1, 0] - lin.y[1, 0])) == 0.0

    def test_single_mode_constant_forcing_weight(self):
        grid = GridSpec(1, 128, 20.0)
        state = init(grid, InitialData(), PARAMS)
        k_index = 5
        xi5 = 2 * math.pi * np.fft.fftfreq(128, d=grid.dx)[k_index]
        amp = 0.3
        force = amp * np.cos(xi5 * grid.radius())  # corner samples

        dt = 0.17
        stepped = duhamel_step(state, dt, PARAMS.p, PARAMS.q,
                               forcing=(lambda t: force, None))
        mu = xi5 ** 2
        oracle_weight, _ = quad(lambda s: _propagator_scalar(s, mu)[1], 0, dt,
                                epsabs=1e-16, epsrel=1e-13)
        force_hat = rfftn_corner(grid, grid.unfold(force))
        expected = force_hat[k_index] * oracle_weight
        assert stepped.y[0, 0, k_index] == pytest.approx(expected, rel=1e-10)
        # derivative channel gets k1(dt) as its weight
        expected_dt = force_hat[k_index] * _propagator_scalar(dt, mu)[1]
        assert stepped.y[1, 0, k_index] == pytest.approx(expected_dt, rel=1e-10)

    def test_manufactured_solution_second_order(self):
        # exact solution u* = exp(-t) g(x), v* = 0, via compensating forcing
        grid = GridSpec(1, 256, 30.0)
        g = GaussianProfile(0.1, 2.0)
        gx = g.value(grid.radius())  # corner samples, as the forcing returns
        lap_g = grid.to_physical(grid.xi_mag() ** 2 * grid.to_spectral(gx))

        data = InitialData(u0=g, u1=GaussianProfile(-0.1, 2.0))
        q = PARAMS.q

        def fu(t):
            return math.exp(-t) * lap_g

        def fv(t):
            return -np.abs(math.exp(-t) * gx) ** q

        errors = []
        dts = [0.2, 0.1, 0.05]
        for dt in dts:
            snaps = Snapshots([1.0])
            run(grid, data, PARAMS, 1.0, [1.0], dt=dt, observers=[snaps],
                forcing=(fu, fv))
            u_num = snaps.fields[0][1]
            err = np.max(np.abs(u_num - math.exp(-1.0) * grid.unfold(gx)))
            errors.append(err)
        order1 = math.log2(errors[0] / errors[1])
        order2 = math.log2(errors[1] / errors[2])
        assert order1 >= 1.8
        assert order2 >= 1.8

    def test_unequal_orders_match_per_field_reference(self):
        # sigma1 != sigma2 gives each row its own tables and weights; no
        # benchmark workload runs this path, so check it against a reference
        # that steps each field on its own with np.power
        grid = GridSpec(1, 256, 30.0)
        params = SystemParams(1, 1.0, 1.5, 2.5, 3.0)
        g, h = GaussianProfile(0.5, 1.0), GaussianProfile(-0.3, 1.4)
        data = InitialData(u0=g, u1=h, v0=h, v1=g)
        dt = 0.07
        stepped = duhamel_step(init(grid, data, params), dt, params.p, params.q)
        reference = rfftn_reference_step(grid, data, params, dt)
        for got, ref in zip([*stepped.y[0], *stepped.y[1]], reference):
            assert np.max(np.abs(got - ref)) <= 1e-13 * np.max(np.abs(ref))

    @pytest.mark.parametrize("n_dim,npts", [(2, 32), (3, 16)])
    def test_coupled_step_matches_full_grid_reference(self, n_dim, npts):
        grid = GridSpec(n_dim, npts, 10.0)
        params = SystemParams(n_dim, 1.0, 1.0, 3.0, 2.5)
        g, h = GaussianProfile(0.5, 1.0), GaussianProfile(-0.3, 1.4)
        data = InitialData(u0=g, u1=h, v0=h, v1=g)
        dt = 0.07
        stepped = duhamel_step(init(grid, data, params), dt, params.p, params.q)
        reference = rfftn_reference_step(grid, data, params, dt)
        for got, ref in zip([*stepped.y[0], *stepped.y[1]], reference):
            assert got.shape == grid.corner_shape
            assert np.max(np.abs(got - ref)) <= 1e-13 * np.max(np.abs(ref))

    def test_full_grid_forcing_rejected(self):
        # forcing returns corner samples; a full-grid field cannot broadcast
        grid = GridSpec(2, 32, 8.0)
        params = SystemParams(2, 1.0, 1.0, 3.0, 3.0)
        state = init(grid, InitialData(u0=GaussianProfile(0.5, 1.0)), params)
        even = np.exp(-grid.radius() ** 2)
        full = grid.unfold(even)
        for forcing in ((None, lambda t: full), (lambda t: full, None)):
            with pytest.raises(ValueError):
                duhamel_step(state, 0.1, params.p, params.q, forcing=forcing)
        duhamel_step(state, 0.1, params.p, params.q, forcing=(None, lambda t: even))

    def test_one_step_makes_one_transform_pair(self, monkeypatch):
        grid = GridSpec(2, 32, 12.0)
        g = GaussianProfile(0.5, 1.0)
        params = SystemParams(2, 1.0, 1.0, 3.0, 3.5)
        state = init(grid, InitialData(u0=g, v1=g), params)
        calls = {"idctn": [], "dctn": []}
        for name in calls:
            original = getattr(scipy.fft, name)

            def counted(*args, _name=name, _original=original, **kwargs):
                calls[_name].append(kwargs["type"])
                return _original(*args, **kwargs)
            monkeypatch.setattr(scipy.fft, name, counted)
        duhamel_step(state, 0.05, params.p, params.q)
        assert calls == {"idctn": [2], "dctn": [2]}

    # (n_dim, points, L, sigma1, sigma2, p, q, forced): q = 3.7 and p = 2.7
    # take np.power in _power, the other exponents its repeated squares
    STACKED_CASES = {
        "1d": (1, 256, 20.0, 1.0, 1.0, 3.0, 3.0, False),
        "2d-unequal-orders": (2, 32, 10.0, 1.0, 1.5, 2.5, 3.7, False),
        "3d": (3, 16, 10.0, 1.0, 1.0, 2.7, 2.5, False),
        "1d-forced": (1, 128, 20.0, 1.0, 1.0, 3.0, 3.0, True),
    }

    @pytest.mark.parametrize("case", STACKED_CASES.values(), ids=STACKED_CASES.keys())
    def test_stacked_stages_match_two_pass_step(self, case):
        n_dim, npts, half_length, sigma1, sigma2, p, q, forced = case
        grid = GridSpec(n_dim, npts, half_length)
        params = SystemParams(n_dim, sigma1, sigma2, p, q)
        g, h = GaussianProfile(0.5, 1.0), GaussianProfile(-0.3, 1.4)
        data = InitialData(u0=g, u1=h, v0=h, v1=g)
        r = grid.radius()
        forcing = ((lambda t: np.exp(-r * r) * math.cos(t),
                    lambda t: 0.2 * (1.0 + t) * np.exp(-r * r / 4.0)) if forced else None)
        kernel = _StepKernel(grid, sigma1, sigma2)
        stacked = reference = init(grid, data, params)
        for _ in range(4):
            stacked = duhamel_step(stacked, 0.03, p, q, forcing=forcing, kernel=kernel)
            reference = two_pass_step(reference, 0.03, p, q, forcing, kernel)
        assert np.array_equal(stacked.y[0], reference.y[0])
        assert np.array_equal(stacked.y[1], reference.y[1])

    def test_overflow_sets_blowup_flag(self):
        grid = GridSpec(1, 64, 20.0)
        state = init(grid, InitialData(u0=GaussianProfile(1.0, 1.0)), PARAMS)
        state.y[0, 0] *= 1e300
        stepped = duhamel_step(state, 0.1, 9.0, 9.0)
        assert stepped.blown_up


class TestRunInvariants:
    def test_realness_and_symmetry(self):
        grid = GridSpec(1, 256, 30.0)
        g = GaussianProfile(0.5, 1.0)
        data = InitialData(u0=g, u1=g, v0=g, v1=g)
        params = SystemParams(1, 1, 1, 2, 2)
        snaps = Snapshots([1.5, 3.0])
        run(grid, data, params, 3.0, [3.0], observers=[snaps])
        state_like = snaps.fields[-1][1]
        # reflection symmetry on the cell-centred grid: index j <-> N - 1 - j
        reflected = state_like[::-1]
        scale = np.max(np.abs(state_like))
        assert np.max(np.abs(state_like - reflected)) < 1e-9 * scale

    @pytest.mark.parametrize("n_dim,npts,half_length", [(1, 256, 30.0), (2, 32, 10.0)])
    def test_unfolded_fields_match_full_grid_reference(self, n_dim, npts, half_length):
        # unfold makes the observed fields symmetric whatever the solver did;
        # the full-grid reference assumes no reflection, so a wrong one in the
        # transforms or in unfold moves the fields away from it
        grid = GridSpec(n_dim, npts, half_length)
        params = SystemParams(n_dim, 1.0, 1.0, 3.0, 2.5)
        g, h = GaussianProfile(0.5, 1.0), GaussianProfile(-0.3, 1.4)
        data = InitialData(u0=g, u1=h, v0=h, v1=g)
        snaps = Snapshots([0.25])
        run(grid, data, params, 0.25, [0.25], dt=0.0625, observers=[snaps])
        u_hat, v_hat, _, _ = rfftn_reference_spectra(grid, data, params, 0.0625, 4)
        for got, ref_hat in zip(snaps.fields[-1][1:], (u_hat, v_hat)):
            ref = np.fft.irfftn(ref_hat, s=got.shape, axes=range(n_dim))
            assert np.max(np.abs(got - ref)) <= 1e-13 * np.max(np.abs(ref))

    def test_realness_of_spectral_state(self):
        grid = GridSpec(1, 128, 20.0)
        g = GaussianProfile(0.5, 1.0)
        data = InitialData(u0=g, v0=g)
        params = SystemParams(1, 1.5, 1, 2, 3)
        state = init(grid, data, params)
        for _ in range(5):
            state = duhamel_step(state, 0.1, params.p, params.q)
        # the corner state is real by construction; after coupled steps it is
        # still the phased rfftn spectrum of the unfolded field, which is real
        for arr in state.y[0]:
            assert arr.dtype == np.float64
            ref = rfftn_corner(grid, grid.unfold(grid.to_physical(arr)))
            assert np.max(np.abs(ref.imag)) < 1e-10 * np.max(np.abs(ref.real))
            assert np.max(np.abs(arr - ref.real)) <= 1e-13 * np.max(np.abs(ref.real))

    def test_snapshots_unfold_to_full_grid(self):
        grid = GridSpec(2, 32, 10.0)
        g = GaussianProfile(0.5, 1.0)
        params = SystemParams(2, 1, 1, 2, 2)
        snaps = Snapshots([0.0, 0.5])
        run(grid, InitialData(u0=g, v1=g), params, 0.5, [0.5], observers=[snaps])
        assert len(snaps.fields) == 2
        for _, u, v in snaps.fields:
            for f in (u, v):
                assert f.shape == (32, 32)
                for axis in (0, 1):
                    assert np.array_equal(f, np.flip(f, axis))
        _, u0, _ = snaps.fields[0]
        assert np.max(np.abs(u0 - g.value(grid.unfold(grid.radius())))) < 1e-12

    def test_step_halving_self_convergence(self):
        grid = GridSpec(1, 256, 30.0)
        g = GaussianProfile(0.05, 1.0)
        data = InitialData(u0=g, u1=g, v0=g, v1=g)
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
        res = run(grid, InitialData(u0=g), PARAMS, 2.0, [0.5, 1.0, 2.0])
        times = res.series["u_l2"].times()
        assert np.all(np.diff(times) > 0)
        assert times[-1] <= 2.0

    def test_zero_data_stays_zero_without_blowup(self):
        grid = GridSpec(1, 64, 20.0)
        res = run(grid, InitialData(), PARAMS, 2.0, [1.0, 2.0])
        assert res.blowup is None
        assert all(v == 0.0 for _, v in res.series["u_l2"].entries)
        assert all(v == 0.0 for _, v in res.series["v_dt"].entries)

    @pytest.mark.parametrize("times", [[5.0, -1.0], [-1.0], [3.5], [math.nan]])
    def test_out_of_range_observer_times_rejected(self, times):
        grid = GridSpec(1, 64, 20.0)
        snaps = Snapshots(times)
        with pytest.raises(ValueError, match="observer times must lie in"):
            run(grid, InitialData(), PARAMS, 3.0, [3.0], observers=[snaps])
        assert snaps.fields == []

    def test_observers_called_at_their_times_until_blowup(self):
        # amplitude 3 blows up near t = 3.4 (see TestBlowupPastValidity)
        grid = GridSpec(1, 256, 20.0)
        params = SystemParams(1, 1.0, 1.0, 2.0, 2.0)
        g = GaussianProfile(3.0, 1.0)
        early, late = Snapshots([0.0, 1.0, 2.0, 3.0]), Snapshots([2.5, 5.0, 8.0])
        res = run(grid, InitialData(u1=g, v1=g), params, 10.0, [10.0],
                  observers=[early, late])
        assert 3.0 < res.blowup["time"] < 5.0
        assert [t for t, _, _ in early.fields] == [0.0, 1.0, 2.0, 3.0]
        assert [t for t, _, _ in late.fields] == [2.5]

    @pytest.mark.parametrize("threshold", [0.0, -1.0])
    def test_nonpositive_threshold_rejected(self, threshold):
        grid = GridSpec(1, 64, 20.0)
        with pytest.raises(ValueError, match="blowup_threshold must be positive"):
            run(grid, InitialData(), PARAMS, 1.0, [1.0], blowup_threshold=threshold)


class TestPower:
    @pytest.fixture
    def x(self):
        rng = np.random.default_rng(7)
        return np.concatenate([[0.0, 1.0], np.geomspace(1e-30, 1e30, 601),
                               rng.uniform(0.0, 3.0, 4000)])

    @pytest.mark.parametrize("e", [1.5, 2.0, 2.5, 3.0, 3.5, 4.0, 4.5, 6.0])
    def test_products_match_np_power(self, x, e):
        got = x.copy()
        _power(got, e, np.empty_like(x))
        ref = np.power(x, e)
        assert np.all(np.abs(got - ref) <= 4 * np.spacing(ref))
        if e == 3.0:
            assert np.array_equal(got, x * x * x)  # products, not np.power

    @pytest.mark.parametrize("e", [1.3, 7.25])
    def test_other_exponents_fall_back(self, x, e):
        got = x.copy()
        _power(got, e, np.empty_like(x))
        assert np.array_equal(got, np.power(x, e))


class TestStepKernel:
    def test_bounded_lru_keeps_main_dt(self):
        grid = GridSpec(1, 64, 20.0)
        kernel = _StepKernel(grid, 1.0, 1.5)
        main = 0.05
        # a run's pattern: main steps, then each record interval's short final step
        for final in (0.011, 0.023, 0.037, 0.041):
            for dt in (main, main, final):
                kernel.get(dt)
                assert kernel.get.cache_info().currsize <= 2
        assert kernel.builds == 5  # the main dt once, each final dt once
        entry = kernel.get(main)
        assert kernel.builds == 5
        assert kernel.get(main) is entry

    @pytest.mark.parametrize("n_dim", [1, 2])
    def test_propagator_rows_follow_the_components(self, n_dim):
        # sigma1 != sigma2: K[:, :, 0] is u's 2x2 matrix and K[:, :, 1] is v's
        grid = GridSpec(n_dim, 32, 10.0)
        sigmas = (1.0, 1.5)
        dt = 0.37
        K, W = _StepKernel(grid, *sigmas).get(dt)
        assert K.shape == W.shape == (2, 2, 2, *grid.corner_shape)
        xi = grid.xi_mag()
        for mode in [(0,) * n_dim, (1,) * n_dim, (3,) + (0,) * (n_dim - 1), (15,) * n_dim]:
            for row, sigma in enumerate(sigmas):
                expected = propagation_matrix(dt, xi[mode], sigma)
                got = K[(slice(None), slice(None), row, *mode)]
                assert got == pytest.approx(expected, rel=1e-14, abs=1e-300)

    def test_linear_steps_allocate_no_coupling_buffers(self, monkeypatch):
        kernels = []

        class Recorded(_StepKernel):
            def __init__(self, *args):
                super().__init__(*args)
                kernels.append(self)

        monkeypatch.setattr("sevolab.torus._StepKernel", Recorded)
        grid = GridSpec(1, 64, 20.0)
        data = InitialData(u0=GaussianProfile(0.01, 1.0))
        run(grid, data, PARAMS, 1.0, [0.5, 1.0], dt=0.1, linear_only=True)
        state = init(grid, data, PARAMS)
        linear_step(state, 0.1)
        assert len(kernels) == 2
        assert all("stages" not in vars(k) for k in kernels)

    def test_coupled_steps_reuse_their_buffers(self, monkeypatch):
        grid = GridSpec(1, 64, 20.0)
        kernel = _StepKernel(grid, 1.0, 1.0)
        state = init(grid, InitialData(u0=GaussianProfile(0.01, 1.0)), PARAMS)
        inputs = []
        original = scipy.fft.idctn

        def recorded(x, *args, **kwargs):
            inputs.append((x, kwargs.get("overwrite_x")))
            return original(x, *args, **kwargs)
        monkeypatch.setattr(scipy.fft, "idctn", recorded)
        state = duhamel_step(state, 0.1, PARAMS.p, PARAMS.q, kernel=kernel)
        buffer = kernel.stages
        assert buffer.shape == (2, 2, 32)
        duhamel_step(state, 0.1, PARAMS.p, PARAMS.q, kernel=kernel)
        assert kernel.stages is buffer
        # each step transforms the one buffer in place, and nothing else
        assert len(inputs) == 2
        assert all(x is buffer and overwrite for x, overwrite in inputs)


class TestBlowupPastValidity:
    # L = 20 and sigma 1 give t_valid = (20/8)**2 - 1 = 5.25; amplitude 1
    # blows up near t = 6.7, amplitude 3 near t = 3.4
    @pytest.mark.parametrize("amp,flagged", [(1.0, True), (3.0, False)])
    def test_late_blowup_is_flagged(self, amp, flagged):
        grid = GridSpec(1, 256, 20.0)
        params = SystemParams(1, 1.0, 1.0, 2.0, 2.0)
        g = GaussianProfile(amp, 1.0)
        res = run(grid, InitialData(u1=g, v1=g), params, 40.0, [1.0, 5.0, 10.0, 40.0])
        assert res.t_valid == pytest.approx(5.25)
        assert res.blowup is not None
        assert (res.blowup["time"] > res.t_valid) is flagged
        late = [w for w in res.warnings if "past t_valid" in w]
        if flagged:
            assert late == [f"blow-up at t={res.blowup['time']:g} is past t_valid=5.25, "
                            "where the torus no longer stands for the whole space"]
        else:
            assert late == []


class TestRunEcho:
    ECHO_KEYS = {"threshold", "dt", "initial_total_norm", "steps", "kernel_builds"}

    def test_echo_counts_steps_and_builds(self):
        grid = GridSpec(1, 64, 20.0)
        data = InitialData(u0=GaussianProfile(0.01, 1.0))
        res = run(grid, data, PARAMS, 1.0, [0.25, 0.5, 1.0], dt=0.1)
        assert set(res.config_echo) == self.ECHO_KEYS
        # 0.25 = 0.1 + 0.1 + 0.05, 0.5 likewise, 1.0 = 5 x 0.1
        assert res.config_echo["steps"] == 11
        assert res.config_echo["kernel_builds"] >= 2

    def test_halt_at_time_zero_echoes_same_keys(self):
        grid = GridSpec(1, 64, 20.0)
        data = InitialData(u0=GaussianProfile(1.0, 1.0))
        res = run(grid, data, PARAMS, 1.0, [1.0], dt=0.1, blowup_threshold=1e-12)
        assert res.blowup["time"] == 0.0
        assert set(res.config_echo) == self.ECHO_KEYS
        assert res.config_echo["dt"] == 0.1
        assert res.config_echo["steps"] == 0
        assert res.config_echo["kernel_builds"] == 0


class TestSixNorms:
    @pytest.mark.parametrize("n_dim,npts", [(1, 64), (2, 32), (3, 16)])
    def test_parseval_on_the_full_grid(self, n_dim, npts):
        # random corner samples put energy on every plane, so each
        # multiplicity is checked against the full grid
        grid = GridSpec(n_dim, npts, 10.0)
        rng = np.random.default_rng(n_dim)
        state = init(grid, InitialData(), PARAMS)
        state.y[0, 0] = grid.to_spectral(rng.standard_normal(grid.corner_shape))
        full = grid.unfold(grid.to_physical(state.y[0, 0]))
        norms = six_norms(state)
        assert norms["u_l2"] == pytest.approx(math.sqrt(grid.dV * np.sum(full**2)),
                                              rel=1e-13)
        full_hat = np.fft.fftn(full)
        xi = full_xi_mag(grid)
        dsigma = grid.dV / npts**n_dim * np.sum(xi ** 2 * np.abs(full_hat) ** 2)
        assert norms["u_dsigma"] == pytest.approx(math.sqrt(dsigma), rel=1e-13)

    @pytest.mark.parametrize("n_dim,npts", [(1, 64), (2, 32), (3, 16)])
    def test_step_energy_is_the_squared_l2_norm(self, n_dim, npts):
        # run's guard compares sqrt(energy) with the norm threshold, so the
        # energy is the squared L2 norm of u, v, u_t and v_t on the full grid
        grid = GridSpec(n_dim, npts, 10.0)
        g = GaussianProfile(0.5, 1.0)
        state = init(grid, InitialData(u0=g, u1=g, v0=g, v1=g), PARAMS)
        state = linear_step(state, 0.3)
        fields = grid.unfold(grid.to_physical(state.y))
        assert state.energy == pytest.approx(grid.dV * np.sum(fields**2), rel=1e-13)


class TestTopOctaveMonitor:
    @pytest.mark.parametrize("n_dim,npts", [(1, 128), (2, 32), (3, 32)])
    def test_fraction_matches_the_full_grid(self, n_dim, npts):
        # widths of a few cells leave a top-octave share well above rounding;
        # v is the narrower, so the worst row is not the first
        grid = GridSpec(n_dim, npts, 10.0)
        data = InitialData(u0=GaussianProfile(1.0, 2.0 * grid.dx),
                           v0=GaussianProfile(0.5, grid.dx))
        state = init(grid, data, PARAMS)
        top = full_xi_mag(grid) > math.pi / (2.0 * grid.dx)
        shares = []
        for row in state.y[0]:
            power = np.abs(np.fft.fftn(grid.unfold(grid.to_physical(row)))) ** 2
            shares.append(np.sum(power[top]) / np.sum(power))
        assert shares[1] > shares[0] > 1e-6
        assert _top_octave_fraction(state) == pytest.approx(shares[1], rel=1e-13)

    def test_zero_field_has_no_share(self):
        grid = GridSpec(2, 32, 10.0)
        assert _top_octave_fraction(init(grid, InitialData(), PARAMS)) == 0.0


class TestDetectBlowup:
    def make_state(self):
        grid = GridSpec(1, 64, 20.0)
        return init(grid, InitialData(u0=GaussianProfile(1.0, 1.0)), PARAMS)

    def test_norm_over_threshold(self):
        state = self.make_state()
        state.y[0, 0] *= 1e7
        assert detect_blowup(state, 1e6)

    def test_zero_state(self):
        grid = GridSpec(1, 64, 20.0)
        state = init(grid, InitialData(), PARAMS)
        assert not detect_blowup(state, 1e6)

    def test_single_nonfinite_coefficient(self):
        state = self.make_state()
        state.y[0, 1, 3] = np.nan
        assert detect_blowup(state, 1e6)

    @pytest.mark.parametrize("threshold", [math.nan, 0.0, -1.0])
    def test_invalid_threshold_rejected(self, threshold):
        state = self.make_state()
        state.y[0, 0] *= 1e12
        with pytest.raises(ValueError, match="threshold must be positive"):
            detect_blowup(state, threshold)


class TestDefaultDt:
    def test_resolves_fastest_oscillation(self):
        grid = GridSpec(1, 4096, 200.0)
        dt = default_dt(grid, PARAMS)
        om_max = math.sqrt(4 * grid.xi_max**2 - 1) / 2
        assert dt == pytest.approx(0.1 * 2 * math.pi / om_max)

    def test_same_in_every_dimension(self):
        # omega_max is taken at the per-axis Nyquist |xi| = pi/dx, not at the
        # corner's largest |xi|, which grows like sqrt(n_dim)
        dts = {default_dt(GridSpec(n, 256, 64.0), SystemParams(n, 1.0, 1.5, 3, 4))
               for n in (1, 2, 3)}
        assert len(dts) == 1
