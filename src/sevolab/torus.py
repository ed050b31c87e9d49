"""Pseudo-spectral simulator for the coupled system on a large periodic box.

The state holds the ``rfftn`` half spectrum of each real field: the last
axis keeps only its nonnegative frequencies, so every bin off that axis's
zero and Nyquist planes stands for itself and its mirror image, and sums
over the spectrum weight it twice (its Hermitian multiplicity).  The linear
flow is advanced exactly, mode by mode, with the multipliers from
:mod:`sevolab.multipliers`; the coupling |v|**p, |u|**q enters through a
second-order exponential integrator: the nonlinearity is evaluated in
physical space at the start of the step and at an exact-linear predictor at
its end, then combined with the exact inhomogeneous Duhamel weights.

Since the zero mode tends to a constant on a torus, decay against the
whole-space rates is only meaningful while the diffusive spreading scale
stays well inside the box; :func:`t_valid` returns that window.
"""

from __future__ import annotations

import functools
import math
from collections import OrderedDict
from dataclasses import dataclass, field, replace
from typing import Callable, Optional, Sequence

import numpy as np

from .exponents import SystemParams
from .fitting import NormSeries
from .multipliers import duhamel_weights, propagator_arrays
from .profiles import GaussianProfile

NORM_LABELS = ("u_l2", "u_dsigma", "u_dt", "v_l2", "v_dsigma", "v_dt")

#: tolerated tail-mass fraction of an initial profile outside the box
TAIL_TOL = 1e-10
#: spectral-tail monitor: top-octave energy fraction triggering a warning
TAIL_ENERGY_WARN = 1e-6


class ProfileTooWideError(ValueError):
    """Initial profile leaks more than TAIL_TOL of its mass out of the box."""


@dataclass(frozen=True)
class GridSpec:
    """Periodic box [-L, L)^n sampled with a power-of-two grid per dimension."""

    n_dim: int
    points_per_dim: int
    half_length: float

    def __post_init__(self):
        if self.n_dim not in (1, 2, 3):
            raise ValueError("n_dim must be 1, 2 or 3")
        npts = self.points_per_dim
        if npts < 16 or npts & (npts - 1) != 0:
            raise ValueError("points_per_dim must be a power of two >= 16")
        if self.half_length <= 0:
            raise ValueError("half_length must be positive")

    @property
    def dx(self) -> float:
        return 2.0 * self.half_length / self.points_per_dim

    @property
    def dV(self) -> float:
        return self.dx**self.n_dim

    @property
    def n_total(self) -> int:
        return self.points_per_dim**self.n_dim

    @property
    def xi_max(self) -> float:
        return math.pi / self.dx

    @property
    def shape(self) -> tuple[int, ...]:
        return (self.points_per_dim,) * self.n_dim

    def axes(self) -> list[np.ndarray]:
        x = -self.half_length + self.dx * np.arange(self.points_per_dim)
        return [x] * self.n_dim

    def mesh(self) -> list[np.ndarray]:
        return list(np.meshgrid(*self.axes(), indexing="ij"))

    def radius(self) -> np.ndarray:
        m = self.mesh()
        return np.sqrt(sum(c * c for c in m))

    def xi_mag(self, half: bool = False) -> np.ndarray:
        """|xi| on the full FFT grid, or on the rfftn half grid if ``half``."""
        xi = 2.0 * math.pi * np.fft.fftfreq(self.points_per_dim, d=self.dx)
        axes = [xi] * self.n_dim
        if half:
            axes[-1] = 2.0 * math.pi * np.fft.rfftfreq(self.points_per_dim, d=self.dx)
        grids = np.meshgrid(*axes, indexing="ij")
        return np.sqrt(sum(g * g for g in grids))

    def to_physical(self, w_hat: np.ndarray) -> np.ndarray:
        return np.fft.irfftn(w_hat, s=self.shape, axes=range(self.n_dim))

    def to_spectral(self, w: np.ndarray) -> np.ndarray:
        return np.fft.rfftn(w, s=self.shape, axes=range(self.n_dim))


@functools.lru_cache(maxsize=8)
def _half_grid(grid: GridSpec) -> tuple[np.ndarray, np.ndarray]:
    """|xi| on the half grid and the Hermitian multiplicity of each bin (read-only)."""
    xi = grid.xi_mag(half=True)
    mult = np.full(xi.shape, 2.0)
    mult[..., 0] = 1.0
    mult[..., -1] = 1.0  # Nyquist: points_per_dim is even
    xi.flags.writeable = mult.flags.writeable = False
    return xi, mult


def _energy(fields, weight: Optional[np.ndarray] = None) -> float:
    """Sum over half-spectrum fields of sum(weight * |f|**2), by default with the
    Hermitian multiplicity as the weight; inf or nan if any f is non-finite."""
    total = 0.0
    with np.errstate(over="ignore", invalid="ignore"):
        for f in fields:
            if weight is None:
                edges = f[..., ::f.shape[-1] - 1]  # the zero and Nyquist planes
                total += 2.0 * np.vdot(f, f).real - np.vdot(edges, edges).real
            else:
                sq = f.real * f.real
                sq += f.imag * f.imag
                total += np.vdot(weight, sq)
    return float(total)


@dataclass(frozen=True)
class InitialData:
    """Data profiles plus their composite data-space norms.

    a_norm_u = ||u0||_L1 + ||u0||_{H^sigma1} + ||u1||_L1 + ||u1||_L2 and the
    v analogue; these are the smallness quantities of the existence theory.
    """

    u0: Optional[GaussianProfile]
    u1: Optional[GaussianProfile]
    v0: Optional[GaussianProfile]
    v1: Optional[GaussianProfile]
    a_norm_u: float
    a_norm_v: float

    @classmethod
    def from_profiles(cls, u0, u1, v0, v1, sigma1: float, sigma2: float,
                      n: int) -> "InitialData":
        def a_norm(w0, w1, sigma):
            total = 0.0
            if w0 is not None:
                total += w0.l1(n) + w0.h_sigma(sigma, n)
            if w1 is not None:
                total += w1.l1(n) + w1.l2(n)
            return total

        return cls(u0, u1, v0, v1,
                   a_norm(u0, u1, sigma1), a_norm(v0, v1, sigma2))


@dataclass
class SpectralState:
    """Half-spectrum (``rfftn``) coefficients of (u, u_t, v, v_t) plus time and
    symbol metadata.  ``energy`` is the Hermitian-weighted sum of |coefficient|**2
    over the four fields when the step that made the state computed it."""

    u_hat: np.ndarray
    ut_hat: np.ndarray
    v_hat: np.ndarray
    vt_hat: np.ndarray
    time: float
    grid: GridSpec
    sigma1: float
    sigma2: float
    blown_up: bool = False
    energy: Optional[float] = None

    def fields(self) -> tuple[np.ndarray, ...]:
        return self.u_hat, self.ut_hat, self.v_hat, self.vt_hat


@dataclass
class RunResult:
    series: dict[str, NormSeries]
    blowup: Optional[dict]
    config_echo: dict
    t_valid: float
    snapshots: list[tuple[float, np.ndarray, np.ndarray]] = field(default_factory=list)
    warnings: list[str] = field(default_factory=list)


def t_valid(grid: GridSpec, params: SystemParams) -> float:
    """Largest time with spreading scale (1+t)**(1/(2*sigma_min)) <= L/8."""
    return (grid.half_length / 8.0) ** (2.0 * params.sigma_min) - 1.0


def default_dt(grid: GridSpec, params: SystemParams) -> float:
    """0.1 * min(1, 2*pi/omega_max): resolves the fastest mode oscillation."""
    om_max = 0.0
    for sigma in (params.sigma1, params.sigma2):
        mu = grid.xi_max ** (2.0 * sigma)
        if 4.0 * mu > 1.0:
            om_max = max(om_max, math.sqrt(4.0 * mu - 1.0) / 2.0)
    if om_max == 0.0:
        return 0.1
    return 0.1 * min(1.0, 2.0 * math.pi / om_max)


def init(grid: GridSpec, data: InitialData, params: SystemParams,
         check_width: bool = True) -> SpectralState:
    """Spectral state at t = 0 sampling the data profiles on the grid."""
    if check_width:
        for name in ("u0", "u1", "v0", "v1"):
            prof = getattr(data, name)
            if prof is not None and prof.amplitude != 0.0:
                frac = prof.tail_mass_fraction(grid.half_length, grid.n_dim)
                if frac > TAIL_TOL:
                    raise ProfileTooWideError(
                        f"{name}: tail mass fraction {frac:.2e} exceeds {TAIL_TOL}")
    r = grid.radius()

    def sample(prof):
        if prof is None:
            return np.zeros(_half_grid(grid)[0].shape, dtype=complex)
        return grid.to_spectral(prof.value(r).astype(float))

    return SpectralState(sample(data.u0), sample(data.u1),
                         sample(data.v0), sample(data.v1),
                         0.0, grid, params.sigma1, params.sigma2)


def _mu(grid: GridSpec, sigma: float) -> np.ndarray:
    return _half_grid(grid)[0] ** (2.0 * sigma)


class _StepKernel:
    """Per-(grid, sigma) propagator tables and Duhamel weights for the last
    MAX_ENTRIES step sizes, the least recently used evicted first.

    Record intervals are visited in order, so the main dt stays resident and
    only the final, shorter step of each interval is rebuilt.  ``builds``
    counts the step sizes built.
    """

    MAX_ENTRIES = 2

    def __init__(self, grid: GridSpec, sigma1: float, sigma2: float):
        self.sigmas = (sigma1, sigma2)
        # one symbol per distinct order: equal orders share tables and weights
        self.mus = {s: _mu(grid, s) for s in self.sigmas}
        self._entries: OrderedDict[float, tuple] = OrderedDict()
        self.builds = 0

    def get(self, dt: float) -> tuple[tuple, tuple]:
        """(tables, weights) of step dt, one of each per field pair: the
        ``propagator_arrays`` table and (A - B, B, Ad - Bd, Bd) of
        :func:`duhamel_weights`."""
        entry = self._entries.get(dt)
        if entry is not None:
            self._entries.move_to_end(dt)
            return entry
        while len(self._entries) >= self.MAX_ENTRIES:
            self._entries.popitem(last=False)
        built = {s: self._build(dt, mu) for s, mu in self.mus.items()}
        entry = self._entries[dt] = tuple(zip(*(built[s] for s in self.sigmas)))
        self.builds += 1
        return entry

    @staticmethod
    def _build(dt: float, mu: np.ndarray) -> tuple:
        tables = propagator_arrays(dt, mu)
        A, B, Ad, Bd = duhamel_weights(dt, mu, tables)
        return tables, (A - B, B, Ad - Bd, Bd)


def _linear_fields(state: SpectralState, tables) -> list[np.ndarray]:
    """(u, u_t, v, v_t) advanced exactly by the step the tables were built for."""
    out = []
    for (w, wt), (k0, k1, dk0, dk1) in zip(
            ((state.u_hat, state.ut_hat), (state.v_hat, state.vt_hat)), tables):
        out += [k0 * w + k1 * wt, dk0 * w + dk1 * wt]
    return out


def linear_step(state: SpectralState, dt: float,
                kernel: Optional[_StepKernel] = None) -> SpectralState:
    """Advance the linear system exactly by dt (any dt > 0)."""
    if dt <= 0:
        raise ValueError("dt must be positive")
    if kernel is None:
        kernel = _StepKernel(state.grid, state.sigma1, state.sigma2)
    u, ut, v, vt = _linear_fields(state, kernel.get(dt)[0])
    return replace(state, u_hat=u, ut_hat=ut, v_hat=v, vt_hat=vt,
                   time=state.time + dt, energy=None)


def duhamel_step(state: SpectralState, dt: float, p: float, q: float,
                 forcing: Optional[tuple[Callable, Callable]] = None,
                 kernel: Optional[_StepKernel] = None) -> SpectralState:
    """One second-order exponential step of the full coupled system.

    The coupling is interpolated linearly in time between its value at the
    step start and at the exact-linear predictor of the step end.  One
    weighted pass over the new state gives its ``energy``; a non-finite
    energy (overflow in the nonlinearity included) marks the state as blown
    up instead of raising.
    """
    if dt <= 0:
        raise ValueError("dt must be positive")
    grid = state.grid
    if kernel is None:
        kernel = _StepKernel(grid, state.sigma1, state.sigma2)
    tables, (w1, w2) = kernel.get(dt)

    def nonlinear(u_hat_v, v_hat_v, t: float):
        """Spectra of the couplings |v|**p and |u|**q (plus any forcing) at time t."""
        nu = grid.to_physical(v_hat_v)
        nv = grid.to_physical(u_hat_v)
        np.abs(nu, out=nu)
        np.abs(nv, out=nv)
        np.power(nu, p, out=nu)
        np.power(nv, q, out=nv)
        if forcing is not None:
            fu, fv = forcing
            if fu is not None:
                nu += fu(t)
            if fv is not None:
                nv += fv(t)
        return grid.to_spectral(nu), grid.to_spectral(nv)

    t0 = state.time
    with np.errstate(over="ignore", invalid="ignore"):
        nu0, nv0 = nonlinear(state.u_hat, state.v_hat, t0)
        new = _linear_fields(state, tables)
        nu1, nv1 = nonlinear(new[0], new[2], t0 + dt)
        for (w, wt), (ab, b, abd, bd), n0, n1 in (
                (new[0:2], w1, nu0, nu1), (new[2:4], w2, nv0, nv1)):
            w += ab * n0
            w += b * n1
            wt += abd * n0
            wt += bd * n1

    energy = _energy(new)
    u, ut, v, vt = new
    return replace(state, u_hat=u, ut_hat=ut, v_hat=v, vt_hat=vt,
                   time=state.time + dt, energy=energy,
                   blown_up=state.blown_up or not math.isfinite(energy))


def six_norms(state: SpectralState) -> dict[str, float]:
    """The six recorded L2-type norms, computed on the frequency side."""
    grid = state.grid
    factor = grid.dV / grid.n_total
    xi, mult = _half_grid(grid)
    w1 = mult * xi ** (2.0 * state.sigma1)
    w2 = mult * xi ** (2.0 * state.sigma2)

    def norm(arr, weight=None):
        return math.sqrt(factor * _energy((arr,), weight))

    return {
        "u_l2": norm(state.u_hat),
        "u_dsigma": norm(state.u_hat, w1),
        "u_dt": norm(state.ut_hat),
        "v_l2": norm(state.v_hat),
        "v_dsigma": norm(state.v_hat, w2),
        "v_dt": norm(state.vt_hat),
    }


def detect_blowup(state: SpectralState, threshold: float) -> bool:
    """True iff any coefficient is non-finite or any recorded norm exceeds threshold."""
    if threshold <= 0:
        raise ValueError("threshold must be positive")
    for arr in state.fields():
        if not np.all(np.isfinite(arr)):
            return True
    return any(v > threshold for v in six_norms(state).values())


def _top_octave_fraction(state: SpectralState) -> float:
    xi, mult = _half_grid(state.grid)
    top = mult * (xi > state.grid.xi_max / 2.0)
    worst = 0.0
    for arr in (state.u_hat, state.v_hat):
        total = _energy((arr,))
        if total > 0.0:
            worst = max(worst, _energy((arr,), top) / total)
    return worst


def run(grid: GridSpec, data: InitialData, params: SystemParams,
        t_max: float, record_times: Sequence[float],
        dt: float | str = "auto", blowup_threshold: float | str = "auto",
        snapshot_times: Optional[Sequence[float]] = None,
        linear_only: bool = False,
        forcing: Optional[tuple[Callable, Callable]] = None) -> RunResult:
    """Advance the coupled system to t_max, recording the six norms.

    Stops early with a blow-up report when a norm crosses the threshold or a
    coefficient turns non-finite.  With linear_only=True the coupling is
    disabled and every step is the exact linear propagator (used for
    cross-validation against the whole-space oracle).  ``config_echo`` holds
    dt, the threshold, the initial total norm and the deterministic counts
    ``steps`` and ``kernel_builds``.
    """
    if t_max <= 0:
        raise ValueError("t_max must be positive")
    record_times = sorted(float(t) for t in record_times)
    if record_times and (record_times[0] < 0 or record_times[-1] > t_max):
        raise ValueError("record_times must lie in [0, t_max]")
    snapshot_times = sorted(float(t) for t in (snapshot_times or []))

    dt_val = default_dt(grid, params) if dt == "auto" else float(dt)
    if dt_val <= 0:
        raise ValueError("dt must be positive")

    state = init(grid, data, params)
    initial_norms = six_norms(state)
    initial_total = sum(initial_norms.values())
    if blowup_threshold == "auto":
        threshold = 1e6 * initial_total if initial_total > 0 else 1e6
    else:
        threshold = float(blowup_threshold)

    kernel = _StepKernel(grid, params.sigma1, params.sigma2)
    events = sorted(set(record_times) | set(snapshot_times) | {float(t_max)})
    series: dict[str, list[tuple[float, float]]] = {k: [] for k in NORM_LABELS}
    snapshots: list[tuple[float, np.ndarray, np.ndarray]] = []
    warnings: list[str] = []
    blowup: Optional[dict] = None

    record_set = set(record_times)
    snapshot_set = set(snapshot_times)

    def handle_event(t: float) -> bool:
        """Record at time t; returns False when the run should halt."""
        nonlocal blowup
        norms = six_norms(state)
        finite = all(math.isfinite(v) for v in norms.values())
        if t in record_set and finite:
            for k in NORM_LABELS:
                series[k].append((t, norms[k]))
        if t in snapshot_set and finite:
            snapshots.append((t, grid.to_physical(state.u_hat),
                              grid.to_physical(state.v_hat)))
        if not warnings and finite and _top_octave_fraction(state) > TAIL_ENERGY_WARN:
            warnings.append(
                f"top-octave energy fraction exceeded {TAIL_ENERGY_WARN:.0e} at t={t:g}")
        if state.blown_up or not finite or \
                any(v > threshold for v in norms.values()):
            blowup = {"time": t, "norm_at_detection": max(norms.values())
                      if finite else math.inf}
            return False
        return True

    steps = 0
    if not handle_event(0.0):
        events = []
    eps_t = 1e-9
    for target in events:
        if target <= 0.0:
            continue
        halted = False
        while state.time < target - eps_t:
            step = min(dt_val, target - state.time)
            if linear_only:
                state = linear_step(state, step, kernel)
                energy = _energy(state.fields())
            else:
                state = duhamel_step(state, step, params.p, params.q,
                                     forcing=forcing, kernel=kernel)
                energy = state.energy
            steps += 1
            if state.blown_up:
                blowup = {"time": state.time, "norm_at_detection": math.inf}
                halted = True
                break
            # cheap per-step guard between events
            if not math.isfinite(energy) or \
                    math.sqrt(energy * grid.dV / grid.n_total) > 4.0 * threshold:
                if not handle_event(state.time):
                    halted = True
                    break
        if halted:
            break
        state.time = target
        if not handle_event(target):
            break

    return RunResult(_package_series(series, params),
                     blowup,
                     {"threshold": threshold, "dt": dt_val,
                      "initial_total_norm": initial_total, "steps": steps,
                      "kernel_builds": kernel.builds},
                     t_valid(grid, params), snapshots, warnings)


def _package_series(series: dict[str, list], params: SystemParams) -> dict[str, NormSeries]:
    meta = {"n": params.n, "sigma1": params.sigma1, "sigma2": params.sigma2,
            "p": params.p, "q": params.q}
    return {k: NormSeries(v, label=k, meta=dict(meta)) for k, v in series.items()}
