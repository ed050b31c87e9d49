import functools
import math
import os
import signal
import subprocess
import sys
import textwrap
import tracemalloc

import numpy as np
import pytest
import scipy.fft
from hypothesis import given, settings
from hypothesis import strategies as st
import scipy.fftpack

from sevolab import torus
from sevolab.exponents import SystemParams
from sevolab.multipliers import (
    duhamel_weights,
    propagator,
    propagator_arrays,
)
from sevolab.oracle import NormKind, linear_norm
from sevolab.profiles import GaussianProfile
from sevolab.testfn import Functionals, TestFunctionSpec
from sevolab.torus import (
    NORM_LABELS,
    GridSpec,
    InitialData,
    SpectralState,
    _dsigma_weight,
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
        self.fields.append((t, *unfold(state.grid, state.grid.to_physical(state.y[0]))))


def unfold(grid, w):
    """Full-grid field(s) of corner samples, reflected j -> N-1-j on each of
    the trailing n_dim axes."""
    for axis in range(-grid.n_dim, 0):
        w = np.concatenate((w, np.flip(w, axis)), axis)
    return w


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


def two_pass_step(state, dt, p, q, kernel):
    """The ETD2 step with one transform pair per coupling stage, written
    out: the reference that the stacked step must reproduce bit for bit."""
    grid = state.grid
    (k0, dk0), (k1, dk1), (ab, abd), (b, bd) = kernel.get(dt)

    def coupling(w):
        phys = np.abs(grid.to_physical(w))
        _power(phys[0], q, np.empty_like(phys[0]))
        _power(phys[1], p, np.empty_like(phys[1]))
        return grid.to_spectral(phys)[::-1]

    w0, wt0 = state.y
    n0 = coupling(w0)
    w = k0 * w0 + k1 * wt0
    wt = dk0 * w0 + dk1 * wt0
    n1 = coupling(w)
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

    # 16 points per axis, then the sweep_1d and simulate_2d bench grids
    @pytest.mark.parametrize("n_dim,npts", [(1, 16), (2, 16), (3, 16), (1, 2048), (2, 256)])
    def test_transform_pair_is_scipy_fft_to_the_bit(self, n_dim, npts):
        grid = GridSpec(n_dim, npts, 10.0)
        axes = range(-n_dim, 0)
        rng = np.random.default_rng(npts + n_dim)
        for scale in (1e-8, 1.0, 1e8):
            x = scale * rng.standard_normal((2, 2, *grid.corner_shape))
            for got, expected in ((grid.to_physical(x), scipy.fft.idctn(x, type=2, axes=axes)),
                                  (grid.to_spectral(x), scipy.fft.dctn(x, type=2, axes=axes))):
                assert np.array_equal(got, expected)
            # the coupled step's in-place pair on its lanes' blocks of stages, whose
            # results it reads from the block: each writes the block, and only it
            in_place = ((grid.stage_inverse, x * grid.inverse_scale, scipy.fft.idctn),
                        (functools.partial(grid.to_spectral, overwrite=True), x, scipy.fft.dctn))
            for transform, source, reference in in_place:
                for lane in (slice(1, None), slice(None, 1)):
                    buf = torus._aligned_empty(x.shape)
                    buf[...] = source
                    transform(buf[lane])
                    expected = source.copy()
                    expected[lane] = reference(x[lane], type=2, axes=axes)
                    assert np.array_equal(buf, expected)

    @pytest.mark.parametrize("n_dim,npts", [(1, 16), (2, 16), (3, 16), (1, 2048), (2, 256)])
    def test_transform_pair_keeps_its_input(self, n_dim, npts):
        # the pair runs one call per axis; only the first may copy, so
        # without overwrite no call may write into the caller's array
        grid = GridSpec(n_dim, npts, 10.0)
        x = np.random.default_rng(npts - n_dim).standard_normal((2, 2, *grid.corner_shape))
        kept = x.copy()
        for transform in (grid.to_physical, grid.to_spectral):
            assert transform(x) is not x
            assert np.array_equal(x, kept)


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
        with pytest.raises(ValueError, match="u0: tail mass fraction"):
            init(grid, InitialData(u0=GaussianProfile(1.0, 10.0)), PARAMS)

    def test_profile_too_large_for_a_float_state(self):
        # 2 * sum|corner samples| of a width-1 Gaussian on this grid is about 8.02 A
        grid = GridSpec(1, 128, 20.0)
        with pytest.raises(ValueError, match=r"^v1: the v1 profile's transform may overflow a "
                           r"float: 2\*\*n \* sum\|samples\| = 1\.60e\+308 \(limit"):
            init(grid, InitialData(u0=GaussianProfile(1.0, 1.0),
                                   v1=GaussianProfile(-2e307, 1.0)), PARAMS)

    # the five grids on which pocketfft's DCT-II overflowed from 0.50-0.54 of the
    # largest float
    @pytest.mark.parametrize("n_dim,npts,half_length,width", [
        (1, 128, 20.0, 1.0), (1, 2048, 200.0, 1.0), (2, 32, 8.0, 1.0),
        (2, 256, 64.0, 1.5), (3, 16, 8.0, 1.0)])
    def test_data_within_the_sample_bound_transform_to_finite_coefficients(
            self, n_dim, npts, half_length, width):
        grid = GridSpec(n_dim, npts, half_length)
        total = 2**n_dim * GaussianProfile(1.0, width).value(grid.radius()).sum()
        amplitude = 0.999 * torus.SAMPLE_SUM_MAX / total
        data = InitialData(u0=GaussianProfile(amplitude, width),
                           v1=GaussianProfile(-amplitude, width))
        assert torus.profile_misfit(grid, data) is None
        state = init(grid, data, SystemParams(n_dim, 1, 1, 3, 4))
        assert np.isfinite(state.y).all()
        # 2.5 times the bound would overflow the transform: refused, by name
        big = InitialData(v0=GaussianProfile(2.5 * amplitude, width))
        assert torus.profile_misfit(grid, big)[:2] == ("v0", "amplitude")

    @pytest.mark.parametrize("n_dim,npts", [(1, 256), (2, 64), (3, 32)])
    def test_corner_coefficients_are_rfftn_bins(self, n_dim, npts):
        grid = GridSpec(n_dim, npts, 10.0)
        g, h = GaussianProfile(0.8, 1.2), GaussianProfile(-0.4, 0.9)
        state = init(grid, InitialData(u0=g, v1=h), PARAMS)
        r = unfold(grid, grid.radius())
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
        sampled = g.value(unfold(grid, grid.radius()))
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
        assert out.energy > 0

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

    def test_huge_data_scale_the_run_exactly(self):
        # at 2**520 the squares overflow, so every step's energy is inf; the
        # linear flow and the scaled norms take a power of two exactly, so the
        # run records what it records at 2**-10, times 2**530, with no blow-up
        grid = GridSpec(1, 128, 20.0)
        params = SystemParams(1, 1.0, 1.0, 2.0, 2.0)
        results = []
        for amplitude in (2.0**520, 2.0**-10):
            g = GaussianProfile(amplitude, 1.0)
            results.append(run(grid, InitialData(u0=g, v1=g), params, 2.0, [0.0, 0.5, 1.0, 2.0],
                               linear_only=True))
        huge, small = results
        assert huge.blowup is None and small.blowup is None
        assert huge.config_echo["steps"] == small.config_echo["steps"]
        for label in NORM_LABELS:
            assert list(huge.series[label].times()) == [0.0, 0.5, 1.0, 2.0]
            assert [v for _, v in huge.series[label].entries] == \
                [math.ldexp(v, 530) for _, v in small.series[label].entries]

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

    def test_one_step_makes_one_transform_pair(self, monkeypatch):
        grid = GridSpec(2, 32, 12.0)
        g = GaussianProfile(0.5, 1.0)
        params = SystemParams(2, 1.0, 1.0, 3.0, 3.5)
        state = init(grid, InitialData(u0=g, v1=g), params)
        calls = {"idct": [], "dct": []}
        for name in calls:
            original = getattr(scipy.fftpack, name)

            def counted(*args, _name=name, _original=original, **kwargs):
                calls[_name].append((kwargs["type"], kwargs["axis"]))
                return _original(*args, **kwargs)
            monkeypatch.setattr(scipy.fftpack, name, counted)
        duhamel_step(state, 0.05, params.p, params.q)
        # one inverse and one forward pass: a type-2 call per axis each way
        assert calls == {"idct": [(2, -2), (2, -1)], "dct": [(2, -2), (2, -1)]}

    # (n_dim, points, L, sigma1, sigma2, p, q): q = 3.7 and p = 2.7
    # take np.power in _power, the other exponents its repeated squares
    STACKED_CASES = {
        "1d": (1, 256, 20.0, 1.0, 1.0, 3.0, 3.0),
        "2d-unequal-orders": (2, 32, 10.0, 1.0, 1.5, 2.5, 3.7),
        "3d": (3, 16, 10.0, 1.0, 1.0, 2.7, 2.5),
        # the sweep_1d bench grid, on the sqrt path of _power
        "1d-sweep": (1, 2048, 200.0, 1.0, 1.0, 2.5, 4.5),
    }

    @pytest.mark.parametrize("case", STACKED_CASES.values(), ids=STACKED_CASES.keys())
    def test_stacked_stages_match_two_pass_step(self, case):
        n_dim, npts, half_length, sigma1, sigma2, p, q = case
        grid = GridSpec(n_dim, npts, half_length)
        params = SystemParams(n_dim, sigma1, sigma2, p, q)
        g, h = GaussianProfile(0.5, 1.0), GaussianProfile(-0.3, 1.4)
        data = InitialData(u0=g, u1=h, v0=h, v1=g)
        kernel = _StepKernel(grid, sigma1, sigma2)
        stacked = reference = init(grid, data, params)
        for _ in range(4):
            stacked = duhamel_step(stacked, 0.03, p, q, kernel=kernel)
            reference = two_pass_step(reference, 0.03, p, q, kernel)
        assert np.array_equal(stacked.y[0], reference.y[0])
        assert np.array_equal(stacked.y[1], reference.y[1])

    def test_overflowed_energy_reports_the_finite_peak(self):
        # the first step's squares overflow, so its energy is inf and the guard
        # ends the run there; its coefficients are finite, so the report reads
        # the largest of its scaled norms, not inf
        grid = GridSpec(1, 64, 15.0)
        params = SystemParams(1, 1.0, 1.0, 2.0, 2.0)
        g = GaussianProfile(1e100, 1.0)
        data = InitialData(u1=g, v1=g)
        res = run(grid, data, params, 1.0, [1.0])
        dt = res.config_echo["dt"]
        assert res.config_echo["steps"] == 1
        assert res.blowup["time"] == dt == float.fromhex("0x1.8112b6e7915a0p-4")
        stepped = duhamel_step(init(grid, data, params), dt, 2.0, 2.0)
        assert stepped.energy == math.inf and np.all(np.isfinite(stepped.y))
        assert res.blowup["norm_at_detection"] == max(six_norms(stepped).values())
        assert 1e196 < res.blowup["norm_at_detection"] < 1e197


def run_python(code: str, **env: str) -> str:
    """The stdout of ``code`` in a fresh interpreter that imports this sevolab,
    with ``env`` added to the environment.  After two minutes the interpreter
    and every process it started are killed, and the test fails."""
    src = os.path.dirname(os.path.dirname(torus.__file__))
    path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    with subprocess.Popen([sys.executable, "-c", textwrap.dedent(code)], text=True,
                          stdout=subprocess.PIPE, stderr=subprocess.PIPE, start_new_session=True,
                          env={**os.environ, "PYTHONPATH": path, **env}) as proc:
        try:
            out, err = proc.communicate(timeout=120)
        except subprocess.TimeoutExpired:
            os.killpg(proc.pid, signal.SIGKILL)
            pytest.fail("timed out after 120 s")
    assert proc.returncode == 0, err
    return out


class TestStageThreads:
    """From _SPLIT_POINTS corner points a coupled step runs its first stage on
    the kernel's helper thread, with the bits of the stacked dispatch."""

    @pytest.fixture
    def two_cpus(self, monkeypatch):
        # the helper needs 2 CPUs; this process is made to see them
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)

    # (n_dim, points, L, sigma1, sigma2, p, q): q = 3.7 takes np.power
    SPLIT_CASES = {
        "256^2": (2, 256, 64.0, 1.0, 1.0, 2.5, 3.5),
        "256^2-unequal-orders": (2, 256, 64.0, 1.0, 1.5, 3.0, 3.7),
        "32^3": (3, 32, 16.0, 1.0, 1.0, 2.5, 4.0),
    }

    @pytest.mark.parametrize("case", SPLIT_CASES.values(), ids=SPLIT_CASES.keys())
    def test_split_matches_stacked(self, monkeypatch, two_cpus, case):
        n_dim, npts, half_length, sigma1, sigma2, p, q = case
        grid = GridSpec(n_dim, npts, half_length)
        params = SystemParams(n_dim, sigma1, sigma2, p, q)
        g, h = GaussianProfile(0.5, 1.0), GaussianProfile(-0.3, 1.4)
        data = InitialData(u0=g, u1=h, v0=h, v1=g)
        ends = []
        for split_points in (2**62, 1):
            monkeypatch.setattr("sevolab.torus._SPLIT_POINTS", split_points)
            kernel = _StepKernel(grid, sigma1, sigma2)
            assert (kernel.helper is None) == (split_points > 1)
            state = init(grid, data, params)
            for _ in range(50):
                state = duhamel_step(state, 0.05, p, q, kernel=kernel)
            ends.append(state)
        stacked, split = ends
        assert np.all(np.isfinite(stacked.y))
        assert np.array_equal(split.y, stacked.y)
        assert split.energy == stacked.energy

    def test_cut_off_keeps_small_grids_stacked(self, two_cpus):
        # the sweep_1d grid's 1024 corner points stay on one thread
        assert _StepKernel(GridSpec(1, 2048, 200.0), 1.0, 1.0).helper is None
        assert _StepKernel(GridSpec(2, 128, 32.0), 1.0, 1.0).helper is None
        assert _StepKernel(GridSpec(2, 256, 64.0), 1.0, 1.0).helper is not None

    def test_sweep_pool_forked_after_a_threaded_step(self):
        # the parent's kernel has started its helper thread when the sweep's
        # pool forks; each worker's kernels start their own, so it finishes
        out = run_python("""
            import os
            os.sched_getaffinity = lambda pid: {0, 1}
            from sevolab import cli, torus
            from sevolab.exponents import SystemParams
            from sevolab.profiles import GaussianProfile
            grid = torus.GridSpec(2, 256, 64.0)
            g = GaussianProfile(0.01, 1.0)
            state = torus.init(grid, torus.InitialData(u0=g, v0=g), SystemParams(2, 1, 1, 3, 3))
            kernel = torus._StepKernel(grid, 1.0, 1.0)
            assert kernel.helper is not None
            torus.duhamel_step(state, 0.1, 3.0, 3.0, kernel=kernel)
            grid_cfg = {"n_dim": 2, "points_per_dim": 256, "half_length": 64.0}
            cfg = cli.load_sweep_config({
                "p_range": [3, 3.5, 0.5], "q_range": [3, 3, 0.5],
                "fixed": {"n": 2, "sigma1": 1, "sigma2": 1},
                "cell": {"grid": grid_cfg, "amplitude": 0.01, "width": 1.0, "t_max": 2.0,
                         "record_count": 2, "fit_t_min": 1.0, "dt": 0.1}})
            print([(row["p"], row["error"]) for row in cli.run_sweep(cfg, workers=2)])
        """)
        assert out.strip() == "[(3.0, ''), (3.5, '')]"

    def test_norms_do_not_depend_on_blas_threads(self):
        # a 128^2 corner: each norm sums 16384 products, past the size from
        # which OpenBLAS splits a dot product over its threads
        code = """
            from sevolab import torus
            from sevolab.exponents import SystemParams
            from sevolab.profiles import GaussianProfile
            g = GaussianProfile(0.02, 1.0)
            state = torus.init(torus.GridSpec(2, 256, 64.0), torus.InitialData(u0=g, u1=g, v0=g),
                               SystemParams(2, 1, 1, 3, 4))
            for _ in range(3):
                state = torus.duhamel_step(state, 0.1, 3.0, 4.0)
            print(state.energy.hex(), *(v.hex() for v in torus.six_norms(state).values()))
        """
        pinned, threaded = (run_python(code, OPENBLAS_NUM_THREADS=n) for n in ("1", "2"))
        assert pinned == threaded


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
            ref = rfftn_corner(grid, unfold(grid, grid.to_physical(arr)))
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
        assert np.max(np.abs(u0 - g.value(unfold(grid, grid.radius())))) < 1e-12

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

    @settings(max_examples=50, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), n_dim=st.integers(1, 3),
           scales=st.lists(st.floats(-100.0, 100.0), min_size=4, max_size=4))
    def test_guard_energy_is_at_most_twice_the_largest_norm(self, seed, n_dim, scales):
        # run's guard passes while energy <= (4x the threshold)**2, so when it
        # fails the largest norm is over twice the threshold and the run ends
        grid = GridSpec(n_dim, 16, 10.0)
        rng = np.random.default_rng(seed)
        fields = rng.standard_normal((2, 2, *grid.corner_shape))
        fields *= (10.0 ** np.array(scales)).reshape(2, 2, *[1] * n_dim)
        state = linear_step(SpectralState(fields, 0.0, grid, 1.0, 1.5), 0.1)
        assert math.isfinite(state.energy)
        largest = max(six_norms(state).values())
        assert math.sqrt(state.energy) <= 2.0 * largest * (1.0 + 1e-12)

    @settings(max_examples=50, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), n_dim=st.integers(1, 3), big=st.integers(0, 3),
           scales=st.lists(st.floats(-100.0, 300.0), min_size=4, max_size=4))
    def test_overflowed_guard_energy_leaves_a_norm_over_half_root_realmax(
            self, seed, n_dim, big, scales):
        # an energy whose squares overflow is inf with every coefficient finite;
        # one of the four fields then has a norm over sqrt(realmax)/2, so a guard
        # that trips on a finite (4x the threshold)**2 still leaves a norm over
        # twice the threshold, which is below sqrt(realmax)/4
        grid = GridSpec(n_dim, 16, 10.0)
        rng = np.random.default_rng(seed)
        fields = rng.standard_normal((2, 2, *grid.corner_shape))
        scales[big] = max(scales[big], 160.0)
        fields *= (10.0 ** np.array(scales)).reshape(2, 2, *[1] * n_dim)
        state = linear_step(SpectralState(fields, 0.0, grid, 1.0, 1.5), 0.1)
        assert state.energy == math.inf and np.all(np.isfinite(state.y))
        assert max(six_norms(state).values()) > math.sqrt(sys.float_info.max) / 2.0

    def test_guard_between_events_ends_the_run_at_its_step(self, monkeypatch):
        # amplitude 3 blows up near t = 3.4, between the events 3 and 8
        stepped = []

        def recorded(*args, **kwargs):
            stepped.append(duhamel_step(*args, **kwargs))
            return stepped[-1]
        monkeypatch.setattr("sevolab.torus.duhamel_step", recorded)
        grid = GridSpec(1, 256, 20.0)
        params = SystemParams(1, 1.0, 1.0, 2.0, 2.0)
        g = GaussianProfile(3.0, 1.0)
        snaps = Snapshots([0.0, 3.0, 8.0])
        res = run(grid, InitialData(u1=g, v1=g), params, 10.0, [0.0, 1.0, 3.0, 10.0],
                  dt=0.05, observers=[snaps])
        limit = (4.0 * res.config_echo["threshold"]) ** 2
        passed = [state.energy <= limit for state in stepped]
        assert passed == [True] * (len(stepped) - 1) + [False]
        assert res.blowup["time"] == stepped[-1].time
        assert 3.0 < res.blowup["time"] < 8.0
        assert list(res.series["u_l2"].times()) == [0.0, 1.0, 3.0]
        assert [t for t, _, _ in snaps.fields] == [0.0, 3.0]
        assert res.config_echo["steps"] == len(stepped) == 68

    def test_threshold_past_the_squared_guard_leaves_nan_to_end_the_run(self, monkeypatch):
        # (4 * 1e200)**2 is inf, so the guard trips only on nan: the energy
        # overflows a step before the fields turn nan, and the run steps on to
        # that step, where the blow-up test reports it, the records before kept
        stepped = []

        def recorded(*args, **kwargs):
            state = duhamel_step(*args, **kwargs)
            stepped.append((state.time, state.energy, bool(np.isnan(state.y).any())))
            return state
        monkeypatch.setattr("sevolab.torus.duhamel_step", recorded)
        grid = GridSpec(1, 256, 20.0)
        params = SystemParams(1, 1.0, 1.0, 2.0, 2.0)
        g = GaussianProfile(3.0, 1.0)
        res = run(grid, InitialData(u1=g, v1=g), params, 10.0, [0.0, 1.0, 2.0, 3.0, 10.0],
                  blowup_threshold=1e200)
        nan_steps = [t for t, _, nan in stepped if nan]
        assert nan_steps == [stepped[-1][0]] and stepped[-2][1] == math.inf
        assert res.blowup == {"time": stepped[-1][0], "norm_at_detection": math.inf}
        assert 3.0 < res.blowup["time"] < 10.0
        assert list(res.series["u_l2"].times()) == [0.0, 1.0, 2.0, 3.0]

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

    @pytest.mark.parametrize("e", [h / 2 for h in range(2, 13)])
    @pytest.mark.parametrize("strided", [False, True])
    def test_products_are_binary_powers(self, x, e, strided):
        # the reference multiplies the factors of x**(2**k) at the set bits of
        # e//1, after sqrt(x) for a half, in order, then the top square: the
        # product _power keeps bit for bit, on a field or a strided stack
        n, half = divmod(int(2 * e), 2)
        factors, square = [np.sqrt(x)] if half else [], x
        while n > 1:
            if n & 1:
                factors.append(square)
            square, n = square * square, n >> 1
        ref = functools.reduce(np.multiply, factors) * square if factors else square
        got = np.stack([x, x])[:, ::2] if strided else x.copy()
        _power(got, e, np.empty_like(got))
        assert all(np.array_equal(row, ref[::2] if strided else ref)
                   for row in np.atleast_2d(got))

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
        columns = _StepKernel(grid, *sigmas).get(dt)
        assert all(c.shape == (2, 2, *grid.corner_shape) for c in columns)
        K = np.stack(columns[:2], axis=1)  # [[k0, k1], [dk0, dk1]]
        xi = grid.xi_mag()
        for mode in [(0,) * n_dim, (1,) * n_dim, (3,) + (0,) * (n_dim - 1), (15,) * n_dim]:
            for row, sigma in enumerate(sigmas):
                expected = propagator(dt, xi[mode], sigma)
                got = K[(slice(None), slice(None), row, *mode)]
                assert got == pytest.approx(expected, rel=1e-14, abs=1e-300)

    def test_linear_steps_allocate_no_coupling_buffers(self, monkeypatch):
        kernels = []

        class Recorded(_StepKernel):
            def __init__(self, *args):
                super().__init__(*args)
                kernels.append(self)

        monkeypatch.setattr("sevolab.torus._StepKernel", Recorded)
        # a 256^2 corner on 2 CPUs would run a coupled step's first stage on a helper
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
        data = InitialData(u0=GaussianProfile(0.01, 1.0))
        for grid in (GridSpec(1, 64, 20.0), GridSpec(2, 256, 64.0)):
            run(grid, data, PARAMS, 1.0, [0.5, 1.0], dt=0.1, linear_only=True)
        state = init(GridSpec(1, 64, 20.0), data, PARAMS)
        linear_step(state, 0.1)
        assert len(kernels) == 3
        buffers = ("helper", "lanes")
        assert all(name not in vars(k) for k in kernels for name in buffers)
        # the first coupled step makes them
        large = kernels[1]
        state = init(GridSpec(2, 256, 64.0), data, PARAMS)
        duhamel_step(state, 0.1, PARAMS.p, PARAMS.q, kernel=large)
        assert all(name in vars(large) for name in buffers)
        assert large.helper is not None

    @pytest.mark.parametrize("dt", [1e-4, 0.0637, 0.37, 2.5])
    @pytest.mark.parametrize("sigmas", [(1.0, 1.0), (1.0, 1.5)], ids=["equal", "unequal"])
    @pytest.mark.parametrize("n_dim", [1, 2, 3])
    def test_tables_are_the_per_mode_build(self, n_dim, sigmas, dt):
        # the tables are built on the distinct symbols and gathered: the
        # per-mode build's bits, as both table functions act elementwise in mu
        grid = GridSpec(n_dim, 32, 10.0)
        xi = grid.spectral_weights[0]
        mu = np.stack([xi ** (2.0 * s) for s in dict.fromkeys(sigmas)])
        tables = propagator_arrays(dt, mu)
        weights = duhamel_weights(dt, mu, tables).reshape(2, 2, *mu.shape)
        weights[:, 0] -= weights[:, 1]
        K0, K1, W0, W1 = _StepKernel(grid, *sigmas).get(dt)
        K, W = np.stack((K0, K1), axis=1), np.stack((W0, W1), axis=1)
        # a 16^n corner steps stacked, its tables at the state's component axis
        assert K.shape == W.shape == (2, 2, 2, *grid.corner_shape)
        assert np.array_equal(K, np.broadcast_to(tables.reshape(2, 2, *mu.shape), K.shape))
        assert np.array_equal(W, np.broadcast_to(weights, W.shape))

    # below _SPLIT_POINTS corner points a step runs stacked, and its tables and
    # energy weight stand at the state's shape; from it they broadcast, the
    # tables over the components and the norm weight over both leading axes
    @pytest.mark.parametrize("grid, distinct, components, weight_shape", [
        (GridSpec(2, 256, 64.0), 6492, 1, (128, 128)),  # of 16384 modes
        (GridSpec(1, 2048, 200.0), 1024, 2, (2, 2, 1024)),  # a 1D corner repeats no |xi|
    ], ids=["256^2", "1D-2048"])
    def test_builds_see_each_symbol_once(self, monkeypatch, grid, distinct, components,
                                         weight_shape):
        sizes = []

        def counted(t, mu):
            sizes.append(np.size(mu))
            return propagator_arrays(t, mu)
        monkeypatch.setattr("sevolab.torus.propagator_arrays", counted)
        kernel = _StepKernel(grid, 1.0, 1.0)
        K0 = kernel.get(0.05)[0]
        assert sizes == [distinct]
        assert K0.shape == (2, components, *grid.corner_shape)
        assert kernel.weight.shape == weight_shape
        norm = grid.spectral_weights[1]
        assert np.array_equal(kernel.weight, np.broadcast_to(norm, weight_shape))

    def test_coupled_steps_reuse_their_buffers(self, monkeypatch):
        grid = GridSpec(1, 64, 20.0)
        kernel = _StepKernel(grid, 1.0, 1.0)
        state = init(grid, InitialData(u0=GaussianProfile(0.01, 1.0)), PARAMS)
        inputs = []
        original = scipy.fftpack.idct

        def recorded(x, *args, **kwargs):
            inputs.append((x, kwargs.get("overwrite_x")))
            return original(x, *args, **kwargs)
        monkeypatch.setattr(scipy.fftpack, "idct", recorded)
        state = duhamel_step(state, 0.1, PARAMS.p, PARAMS.q, kernel=kernel)
        lanes = kernel.lanes
        buffer = lanes[1][1]  # stacked, this thread's block is the whole buffer
        assert buffer.shape == (2, 2, 32) and lanes[2] is None
        # the work arrays start on a cache line, where a step's products run fastest
        assert buffer.ctypes.data % 64 == kernel.tmp.ctypes.data % 64 == 0
        duhamel_step(state, 0.1, PARAMS.p, PARAMS.q, kernel=kernel)
        assert kernel.lanes is lanes
        # each step transforms the one buffer in place, and nothing else;
        # in 1D the inverse pass is one call
        assert len(inputs) == 2
        assert all(x is buffer and overwrite for x, overwrite in inputs)

    @pytest.mark.parametrize("step", ["linear", "duhamel"])
    @pytest.mark.parametrize("grid, sigmas", [
        (GridSpec(1, 64, 40.0), (1.0, 1.0)),  # another box
        (GridSpec(1, 128, 20.0), (1.0, 1.0)),  # another grid
        (GridSpec(1, 64, 20.0), (1.0, 1.5)),  # other orders
    ], ids=["L=40", "128-points", "sigma2=1.5"])
    def test_kernel_of_another_grid_or_orders_is_rejected(self, step, grid, sigmas):
        # the tables of another box or orders gave other numbers, and no error
        state = init(GridSpec(1, 64, 20.0), InitialData(u0=GaussianProfile(0.5, 1.0)), PARAMS)
        kernel = _StepKernel(grid, *sigmas)
        with pytest.raises(ValueError, match=r"^kernel was built for \(grid, sigma1, sigma2\)"):
            if step == "linear":
                linear_step(state, 0.1, kernel=kernel)
            else:
                duhamel_step(state, 0.1, PARAMS.p, PARAMS.q, kernel=kernel)

    def test_kernel_of_an_equal_grid_is_taken(self):
        # the key compares by value where identity fails: equal grids share tables
        state = init(GridSpec(1, 64, 20.0), InitialData(u0=GaussianProfile(0.5, 1.0)), PARAMS)
        kernel = _StepKernel(GridSpec(1, 64, 20.0), 1, 1)
        assert kernel.key[0] is not state.grid
        stepped = duhamel_step(state, 0.1, PARAMS.p, PARAMS.q, kernel=kernel)
        assert np.array_equal(stepped.y, duhamel_step(state, 0.1, PARAMS.p, PARAMS.q).y)


class TestStepArrays:
    """A step writes the new state into ``out`` when given one, and a run's
    steps write in turn into the two arrays of its stepper."""

    # (n_dim, points, L, sigma1, sigma2, p, q)
    OUT_CASES = {
        "1d-sweep": (1, 2048, 200.0, 1.0, 1.0, 2.5, 4.5),  # stacked
        "256^2": (2, 256, 64.0, 1.0, 1.0, 3.0, 4.0),  # on two threads
        "2d-unequal-orders": (2, 32, 10.0, 1.0, 1.5, 2.5, 3.7),
        "256^2-unequal-orders": (2, 256, 64.0, 1.0, 1.5, 3.0, 3.0),
    }

    @pytest.mark.parametrize("linear", [False, True], ids=["duhamel", "linear"])
    @pytest.mark.parametrize("case", OUT_CASES.values(), ids=OUT_CASES.keys())
    def test_out_gives_the_bits_of_a_new_array(self, monkeypatch, case, linear):
        # the helper needs 2 CPUs; this process is made to see them
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
        n_dim, npts, half_length, sigma1, sigma2, p, q = case
        grid = GridSpec(n_dim, npts, half_length)
        g, h = GaussianProfile(0.5, 1.0), GaussianProfile(-0.3, 1.4)
        state = init(grid, InitialData(u0=g, u1=h, v0=h, v1=g),
                     SystemParams(n_dim, sigma1, sigma2, p, q))
        kernel = _StepKernel(grid, sigma1, sigma2)
        if linear:
            step = functools.partial(linear_step, dt=0.05, kernel=kernel)
        else:
            step = functools.partial(duhamel_step, dt=0.05, p=p, q=q, kernel=kernel)
        out = np.full_like(state.y, np.nan)  # a value left unwritten would show
        for _ in range(3):
            fresh, written = step(state), step(state, out=out)
            assert written.y is out
            assert np.array_equal(written.y, fresh.y)
            assert (written.energy, written.time) == (fresh.energy, fresh.time)
            state, out = written, fresh.y
        assert (kernel.helper is not None) == (npts == 256)

    @pytest.mark.parametrize("make", [
        lambda y: y,
        lambda y: y[::-1],  # a view sharing its memory
        lambda y: np.empty(y.shape[1:]),
        lambda y: np.empty((3, *y.shape)),  # which the products would broadcast into
        lambda y: np.empty(y.shape, dtype=np.float32),
    ], ids=["state.y", "view", "shape", "larger", "dtype"])
    def test_out_of_another_shape_or_dtype_or_sharing_state_y_is_rejected(self, make):
        state = init(GridSpec(1, 64, 20.0), InitialData(u0=GaussianProfile(0.5, 1.0)), PARAMS)
        before = state.y.copy()
        for step in (lambda out: linear_step(state, 0.1, out=out),
                     lambda out: duhamel_step(state, 0.1, PARAMS.p, PARAMS.q, out=out)):
            with pytest.raises(ValueError, match=r"^out must be a float64 array of shape "
                                                 r"\(2, 2, 32\), apart from state.y"):
                step(make(state.y))
        assert np.array_equal(state.y, before)

    def test_a_run_steps_in_two_arrays(self, monkeypatch):
        # dt 1/16 to t = 12.5 is 200 equal steps, so one table build
        outs, grown = [], []
        toward = torus._Stepper.toward

        def recorded(stepper, state, t_event):
            tracemalloc.reset_peak()
            before = tracemalloc.get_traced_memory()[0]
            stepped = toward(stepper, state, t_event)
            grown.append(tracemalloc.get_traced_memory()[1] - before)
            outs.append(stepped.y)
            return stepped
        monkeypatch.setattr(torus._Stepper, "toward", recorded)
        grid = GridSpec(1, 2048, 200.0)
        g = GaussianProfile(0.01, 1.0)
        tracemalloc.start()
        try:
            res = run(grid, InitialData(u1=g, v1=g), SystemParams(1, 1, 1, 2.5, 4.5), 12.5,
                      [12.5], dt=0.0625)
        finally:
            tracemalloc.stop()
        assert res.config_echo["steps"] == len(outs) == 200
        assert res.config_echo["kernel_builds"] == 1
        assert outs[0] is not outs[1]
        assert all(out is outs[i % 2] for i, out in enumerate(outs))
        # the first step makes its array, the tables and the coupling buffer,
        # the second its array; no later one allocates a field's worth
        assert min(grown[:2]) >= outs[0].nbytes
        assert max(grown[2:]) < outs[0][0, 0].nbytes

    @pytest.mark.parametrize("linear_only", [False, True])
    def test_observed_states_keep_their_values(self, linear_only):
        # an observer may keep the states it is given: no later step writes
        # into them, on consecutive steps or apart
        kept = []

        def observe(t, state):
            kept.append((state, state.y.copy()))
        observe.times = [0.0, 0.25, 0.5, 0.75, 1.0, 2.0, 2.25, 3.0]
        grid = GridSpec(1, 128, 20.0)
        g = GaussianProfile(0.5, 1.0)
        run(grid, InitialData(u0=g, v1=g), PARAMS, 3.0, [3.0], dt=0.25,
            observers=[observe], linear_only=linear_only)
        assert [t for (state, _), t in zip(kept, observe.times)] == observe.times
        assert all(np.array_equal(state.y, y) for state, y in kept)
        assert len({id(state.y) for state, _ in kept}) == len(kept)


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

    @pytest.mark.parametrize("linear_only", [False, True])
    def test_steps_are_looked_up_in_the_module(self, monkeypatch, linear_only):
        # a step function replaced in sevolab.torus, as the bench's step probe
        # replaces duhamel_step, sees every step of a run started after it
        calls = {"linear_step": 0, "duhamel_step": 0}

        def counted(step):
            def wrapper(*args, **kwargs):
                calls[step.__name__] += 1
                return step(*args, **kwargs)
            return wrapper
        for step in (linear_step, duhamel_step):
            monkeypatch.setattr(f"sevolab.torus.{step.__name__}", counted(step))
        grid = GridSpec(1, 64, 20.0)
        data = InitialData(u0=GaussianProfile(0.01, 1.0))
        res = run(grid, data, PARAMS, 1.0, [0.25, 0.5, 1.0], dt=0.1, linear_only=linear_only)
        steps = res.config_echo["steps"]
        assert steps == 11
        assert calls == {"linear_step": steps if linear_only else 0,
                         "duhamel_step": 0 if linear_only else steps}

    def test_numpy_scalars_run_as_the_floats_they_hold(self):
        # the grid and the profiles hold the floats require returns: built from
        # np.float32 values, a run takes the dt and norms of those floats' run
        def build(cast):
            blob = GaussianProfile(cast(0.01), cast(1.3))
            return run(GridSpec(1, 128, cast(10.1)), InitialData(u0=blob, v1=blob),
                       PARAMS, 2.0, [1.0, 2.0])
        f32, f64 = build(np.float32), build(lambda v: float(np.float32(v)))
        assert (f32.config_echo, f32.series) == (f64.config_echo, f64.series)  # dt included


class TestDataTooLargeForAFloatState:
    GRID = GridSpec(1, 128, 20.0)

    def test_auto_threshold_is_capped_at_the_largest_float(self):
        # 1e6 times the initial total (2.7e305) overflows; with the cap, linear data
        # that decay run to t_max, and coupled data blow up when a norm overflows
        g = GaussianProfile(1e305, 1.0)
        linear = run(self.GRID, InitialData(u0=g), PARAMS, 1.0, [0, 0.5, 1.0],
                     linear_only=True)
        assert linear.config_echo["threshold"] == sys.float_info.max
        assert linear.blowup is None and len(linear.series["u_l2"].entries) == 3
        coupled = run(self.GRID, InitialData(u1=g, v1=g), SystemParams(1, 1, 1, 2, 2),
                      1.0, [0.5])
        assert coupled.config_echo["threshold"] == sys.float_info.max
        assert coupled.blowup == {"time": coupled.config_echo["dt"],
                                  "norm_at_detection": math.inf}

    def test_non_finite_initial_total_is_refused_before_the_first_step(self, monkeypatch):
        # a width-0.3 Gaussian of 5e306 is within the sample bound, but at sigma = 3
        # its |D|**sigma norm overflows
        def step(*args, **kwargs):
            pytest.fail("stepped")
        monkeypatch.setattr(torus, "duhamel_step", step)
        data = InitialData(u0=GaussianProfile(5e306, 0.3))
        assert torus.profile_misfit(self.GRID, data) is None
        with pytest.raises(ValueError,
                           match="^data must have a finite initial total norm, got inf$"):
            run(self.GRID, data, SystemParams(1, 3, 3, 2, 2), 1.0, [0.5])


class TestSixNorms:
    @pytest.mark.parametrize("n_dim,npts", [(1, 64), (2, 32), (3, 16)])
    def test_parseval_on_the_full_grid(self, n_dim, npts):
        # random corner samples put energy on every plane, so each
        # multiplicity is checked against the full grid
        grid = GridSpec(n_dim, npts, 10.0)
        rng = np.random.default_rng(n_dim)
        state = init(grid, InitialData(), PARAMS)
        state.y[0, 0] = grid.to_spectral(rng.standard_normal(grid.corner_shape))
        full = unfold(grid, grid.to_physical(state.y[0, 0]))
        norms = six_norms(state)
        assert norms["u_l2"] == pytest.approx(math.sqrt(grid.dV * np.sum(full**2)),
                                              rel=1e-13)
        full_hat = np.fft.fftn(full)
        xi = full_xi_mag(grid)
        dsigma = grid.dV / npts**n_dim * np.sum(xi ** 2 * np.abs(full_hat) ** 2)
        assert norms["u_dsigma"] == pytest.approx(math.sqrt(dsigma), rel=1e-13)

    @pytest.mark.parametrize("n_dim,npts", [(1, 64), (2, 32), (3, 16)])
    def test_step_energy_is_the_squared_l2_norm(self, n_dim, npts):
        # run's guard compares the energy with the squared norm threshold, so
        # the energy is the squared L2 norm of u, v, u_t and v_t on the full grid
        grid = GridSpec(n_dim, npts, 10.0)
        g = GaussianProfile(0.5, 1.0)
        state = init(grid, InitialData(u0=g, u1=g, v0=g, v1=g), PARAMS)
        state = linear_step(state, 0.3)
        fields = unfold(grid, grid.to_physical(state.y))
        assert state.energy == pytest.approx(grid.dV * np.sum(fields**2), rel=1e-13)

    def test_dsigma_weight_is_built_once_per_grid_and_order(self):
        grid = GridSpec(2, 32, 10.0)
        xi, weight, _ = grid.spectral_weights
        got = _dsigma_weight(grid, 1.5)
        assert _dsigma_weight(GridSpec(2, 32, 10.0), 1.5) is got
        assert _dsigma_weight(grid, 1.0) is not got
        assert np.array_equal(got, weight * xi ** 3.0) and not got.flags.writeable
        state = init(grid, InitialData(u0=GaussianProfile(0.5, 1.0)),
                     SystemParams(2, 1.5, 1.5, 3.0, 3.0))
        expected = math.sqrt(_energy(state.y[0, 0], weight * xi ** 3.0))
        assert six_norms(state)["u_dsigma"] == expected


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
            power = np.abs(np.fft.fftn(unfold(grid, grid.to_physical(row)))) ** 2
            shares.append(np.sum(power[top]) / np.sum(power))
        assert shares[1] > shares[0] > 1e-6
        assert _top_octave_fraction(state, six_norms(state)) == pytest.approx(shares[1], rel=1e-13)

    def test_zero_field_has_no_share(self):
        grid = GridSpec(2, 32, 10.0)
        state = init(grid, InitialData(), PARAMS)
        assert _top_octave_fraction(state, six_norms(state)) == 0.0

    @pytest.mark.parametrize("width", [0.3, 0.5])
    def test_tiny_data_warn_as_their_shape_does(self, width):
        # at 1e-200 every square underflows; the shares are ratios of scaled
        # norms, so the monitor warns as it does for the same shape at 0.01
        grid = GridSpec(1, 128, 20.0)
        params = SystemParams(1, 1.0, 1.0, 2.0, 2.0)
        warnings = []
        for amplitude in (0.01, 1e-200):
            g = GaussianProfile(amplitude, width)
            warnings.append(run(grid, InitialData(u1=g, v1=g), params, 2.0, [1.0, 2.0]).warnings)
        assert warnings[0] == warnings[1] == ["top-octave energy fraction exceeded 1e-06 at t=1"]


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
