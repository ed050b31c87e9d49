"""Pseudo-spectral simulator for the coupled system on a large periodic box.

Every datum is a Gaussian centred at the origin, and both the symbol
|xi|**(2 sigma) and the pointwise |.|**p keep a field even in each
coordinate.  So a field is fixed by its samples on the corner [-L, 0]^n of
the box, indices 0..N/2 of each axis, and the state holds their DCT-I
coefficients: the DFT coefficients of the full periodic field at the
frequencies [0, N/2]^n, which are real.  A coefficient off an axis's zero
and N/2 planes stands for itself and its mirror image on that axis, so sums
over the spectrum weight it by its multiplicity, 2 per such axis.  Both
components go through the same kind of propagator and meet only in the
coupling, so u and v are stacked and transformed and updated as one array.
The linear flow is advanced exactly, mode by mode, with the multipliers
from :mod:`sevolab.multipliers`; the coupling |v|**p, |u|**q enters through
a second-order exponential integrator: the nonlinearity is evaluated in
physical space at the start of the step and at an exact-linear predictor at
its end, then combined with the exact inhomogeneous Duhamel weights.

Since the zero mode tends to a constant on a torus, decay against the
whole-space rates is only meaningful while the diffusive spreading scale
stays well inside the box; :func:`t_valid` returns that window.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, replace
from typing import Callable, Optional, Sequence

import numpy as np
import scipy.fft

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

    def __init__(self, name: str, fraction: float):
        super().__init__(name, fraction)
        self.name = name
        self.fraction = fraction

    def __str__(self) -> str:
        return f"{self.name}: tail mass fraction {self.fraction:.2e} exceeds {TAIL_TOL}"


@dataclass(frozen=True)
class GridSpec:
    """Periodic box [-L, L)^n sampled with a power-of-two grid per dimension;
    its arrays cover the corner only, and :meth:`unfold` is the full-grid view."""

    n_dim: int
    points_per_dim: int
    half_length: float

    def __post_init__(self):
        if self.n_dim not in (1, 2, 3):
            raise ValueError("n_dim must be 1, 2 or 3")
        npts = self.points_per_dim
        if npts < 16 or npts & (npts - 1) != 0:
            raise ValueError("points_per_dim must be a power of two >= 16")
        if not 0 < self.half_length < math.inf:
            raise ValueError("half_length must be finite and positive")

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
    def corner_shape(self) -> tuple[int, ...]:
        """Samples per axis of the corner [-L, 0]^n: indices 0..N/2."""
        return (self.points_per_dim // 2 + 1,) * self.n_dim

    def _corner_norm(self, axis: np.ndarray) -> np.ndarray:
        """sqrt(a_j**2 + a_k**2 + ...) at each corner point from the values a
        of one axis, the squares summed in axis order as a meshgrid sum is."""
        return np.sqrt(functools.reduce(np.add.outer, [axis * axis] * self.n_dim))

    def radius(self) -> np.ndarray:
        """|x| at the corner samples x_j = -L + dx*j, j = 0..N/2."""
        j = np.arange(self.corner_shape[0])
        return self._corner_norm(-self.half_length + self.dx * j)

    def xi_mag(self) -> np.ndarray:
        """|xi| at the corner frequencies xi_k = 2*pi*k/(N*dx), k = 0..N/2."""
        k = np.arange(self.corner_shape[0])
        df = 1.0 / (self.points_per_dim * self.dx)
        return self._corner_norm(2.0 * math.pi * (k * df))

    def to_physical(self, w_hat: np.ndarray, overwrite: bool = False) -> np.ndarray:
        """Corner samples of the field(s) with corner coefficients ``w_hat``
        over the trailing n_dim axes, so one field or a stack of fields in one
        call; with ``overwrite`` the result may take w_hat's memory."""
        return scipy.fft.idctn(w_hat, type=1, axes=range(-self.n_dim, 0),
                               overwrite_x=overwrite)

    def to_spectral(self, w: np.ndarray, overwrite: bool = False) -> np.ndarray:
        """Corner coefficients of corner samples (trailing n_dim axes)."""
        return scipy.fft.dctn(w, type=1, axes=range(-self.n_dim, 0),
                              overwrite_x=overwrite)

    def unfold(self, w: np.ndarray) -> np.ndarray:
        """Full-grid field(s) of corner samples, reflected j -> N - j on each
        of the trailing n_dim axes."""
        half = self.points_per_dim // 2
        index = np.r_[0:half + 1, half - 1:0:-1]
        for axis in range(-self.n_dim, 0):
            w = np.take(w, index, axis=axis)
        return w


@functools.lru_cache(maxsize=8)
def corner_grid(grid: GridSpec) -> tuple[np.ndarray, np.ndarray]:
    """|xi| at the corner frequencies [0, N/2]^n and the multiplicity of each
    bin: the product over axes of 1 on the zero and N/2 planes, 2 elsewhere
    (read-only)."""
    xi = grid.xi_mag()
    axis = np.full(grid.corner_shape[0], 2.0)
    axis[[0, -1]] = 1.0
    mult = functools.reduce(np.multiply.outer, [axis] * grid.n_dim)
    xi.flags.writeable = mult.flags.writeable = False
    return xi, mult


def _energy(fields, weight: np.ndarray) -> float:
    """Sum over fields, or stacks of fields, f of sum(weight * f**2); inf or
    nan if any f is non-finite."""
    total = 0.0
    with np.errstate(over="ignore", invalid="ignore"):
        for f in fields:
            total += np.vdot(f, weight * f)
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


def _row(stack: str, index: int) -> property:
    """Read-write view of one row of a stacked spectrum, so that in-place
    updates such as ``state.u_hat *= 2`` reach the stack."""
    def get(self):
        return getattr(self, stack)[index]

    def set(self, value):
        getattr(self, stack)[index] = value
    return property(get, set, doc=f"row {index} of ``{stack}`` (a view)")


@dataclass
class SpectralState:
    """Corner (DCT-I) coefficients of (u, u_t, v, v_t) plus time and symbol
    metadata.  The fields are stacked, ``w = [u_hat, v_hat]`` and
    ``wt = [ut_hat, vt_hat]``, each a real array of shape
    ``(2, *corner_shape)``, so that one transform or update covers both
    components; ``u_hat`` and the other three names are views of their rows.
    ``energy`` is the multiplicity-weighted sum of coefficient**2 over the
    four fields, set by the step that made the state (None at ``init``)."""

    w: np.ndarray
    wt: np.ndarray
    time: float
    grid: GridSpec
    sigma1: float
    sigma2: float
    blown_up: bool = False
    energy: Optional[float] = None

    u_hat = _row("w", 0)
    v_hat = _row("w", 1)
    ut_hat = _row("wt", 0)
    vt_hat = _row("wt", 1)

    def fields(self) -> tuple[np.ndarray, ...]:
        return self.u_hat, self.ut_hat, self.v_hat, self.vt_hat


@dataclass
class RunResult:
    series: dict[str, NormSeries]
    blowup: Optional[dict]
    config_echo: dict
    t_valid: float
    warnings: list[str]


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


def check_profile_widths(grid: GridSpec, data: InitialData) -> None:
    """Raise ProfileTooWideError for the first nonzero profile of ``data`` that
    leaks more than TAIL_TOL of its mass out of the box of ``grid``."""
    for name in ("u0", "u1", "v0", "v1"):
        prof = getattr(data, name)
        if prof is not None and prof.amplitude != 0.0:
            frac = prof.tail_mass_fraction(grid.half_length, grid.n_dim)
            if frac > TAIL_TOL:
                raise ProfileTooWideError(name, frac)


def init(grid: GridSpec, data: InitialData, params: SystemParams) -> SpectralState:
    """Spectral state at t = 0 sampling the data profiles on the corner."""
    check_profile_widths(grid, data)
    r = grid.radius()
    phys = np.zeros((4, *grid.corner_shape))
    for row, prof in zip(phys, (data.u0, data.v0, data.u1, data.v1)):
        if prof is not None:
            row[...] = prof.value(r)
    hat = grid.to_spectral(phys, overwrite=True)
    return SpectralState(hat[:2], hat[2:], 0.0, grid, params.sigma1, params.sigma2)


def _mu(grid: GridSpec, sigma: float) -> np.ndarray:
    return corner_grid(grid)[0] ** (2.0 * sigma)


class _StepKernel:
    """Per-(grid, sigma) propagator tables and Duhamel weights for the last
    MAX_ENTRIES step sizes, the least recently used evicted first, and the
    work arrays of a step.

    Tables and weights are stacked like the state: shape
    ``(1, *corner_shape)`` when sigma1 == sigma2, broadcasting over both rows,
    else ``(2, *corner_shape)`` with the u row first.  Record intervals are
    visited in order, so the main dt stays resident and only the final,
    shorter step of each interval is rebuilt.  ``builds`` counts the step sizes built.
    An entry is evicted after its successor is built, so MAX_ENTRIES + 1 are
    alive during a build.
    """

    MAX_ENTRIES = 2

    def __init__(self, grid: GridSpec, sigma1: float, sigma2: float):
        sigmas = (sigma1,) if sigma1 == sigma2 else (sigma1, sigma2)
        self.mu = np.stack([_mu(grid, s) for s in sigmas])
        self.mult = corner_grid(grid)[1]
        #: (tables, weights) of step dt; built over mu, not self, so that a
        #: kernel holds no reference cycle and is freed when its run ends
        self.get = functools.lru_cache(maxsize=self.MAX_ENTRIES)(
            functools.partial(self._build, self.mu))
        #: a temporary of the stack's shape; each step overwrites it, and a
        #: row of it is the work space of |.|**e while a coupling is evaluated
        self.tmp = np.empty((2, *grid.corner_shape))

    @property
    def builds(self) -> int:
        return self.get.cache_info().misses

    @functools.cached_property
    def coupling_buffers(self) -> tuple[np.ndarray, np.ndarray]:
        """The two coupling stacks of a coupled step, transformed in place,
        allocated on the first one; each step overwrites them.  Linear steps
        never touch them."""
        return np.empty_like(self.tmp), np.empty_like(self.tmp)

    @staticmethod
    def _build(mu: np.ndarray, dt: float) -> tuple[tuple, tuple]:
        """(tables, weights) of step dt: the ``propagator_arrays`` table and
        (A - B, B, Ad - Bd, Bd) of :func:`duhamel_weights`."""
        tables = propagator_arrays(dt, mu)
        A, B, Ad, Bd = duhamel_weights(dt, mu, tables)
        return tables, (A - B, B, Ad - Bd, Bd)


def _linear_fields(state: SpectralState, tables,
                   tmp: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """New stacks (w, wt) advanced exactly by the step the tables were built
    for; ``tmp`` is work space of the stack's shape."""
    k0, k1, dk0, dk1 = tables
    w = k0 * state.w
    w += np.multiply(k1, state.wt, out=tmp)
    wt = dk0 * state.w
    wt += np.multiply(dk1, state.wt, out=tmp)
    return w, wt


def _stepped(state: SpectralState, w: np.ndarray, wt: np.ndarray, dt: float,
             kernel: _StepKernel) -> SpectralState:
    """The state (w, wt) one step dt after ``state``, with its ``energy`` from
    one weighted pass; a non-finite energy (overflow included) marks it as
    blown up instead of raising."""
    energy = _energy((w, wt), kernel.mult)
    return replace(state, w=w, wt=wt, time=state.time + dt, energy=energy,
                   blown_up=state.blown_up or not math.isfinite(energy))


def linear_step(state: SpectralState, dt: float,
                kernel: Optional[_StepKernel] = None) -> SpectralState:
    """Advance the linear system exactly by dt (any dt > 0)."""
    if not 0 < dt < math.inf:
        raise ValueError("dt must be finite and positive")
    if kernel is None:
        kernel = _StepKernel(state.grid, state.sigma1, state.sigma2)
    w, wt = _linear_fields(state, kernel.get(dt)[0], kernel.tmp)
    return _stepped(state, w, wt, dt, kernel)


def _power(x: np.ndarray, e: float, tmp: np.ndarray) -> None:
    """x**e written into x, for x >= 0; ``tmp`` is work space of x's shape.

    When 2e is an integer in [2, 12] this is a product of repeated squares of
    x and at most one sqrt, a few multiplies per element where np.power pays
    for a log and an exp; other exponents go to np.power.
    """
    halves = 2.0 * e
    if not (2.0 <= halves <= 12.0 and halves == int(halves)):
        np.power(x, e, out=x)
        return
    n, half = divmod(int(halves), 2)
    acc = np.sqrt(x, out=tmp) if half else None  # the product of the odd factors
    while n > 1:
        if n & 1:
            if acc is None:
                acc = tmp
                acc[...] = x
            else:
                acc *= x
        x *= x
        n >>= 1
    if acc is not None:
        x *= acc


def duhamel_step(state: SpectralState, dt: float, p: float, q: float,
                 forcing: Optional[tuple[Callable, Callable]] = None,
                 kernel: Optional[_StepKernel] = None) -> SpectralState:
    """One second-order exponential step of the full coupled system.

    The coupling is interpolated linearly in time between its value at the
    step start and at the exact-linear predictor of the step end.  Each
    coupling evaluation is one inverse and one forward transform of the
    stacked (u, v) state.  ``forcing`` = (fu, fv), either may be None: each
    maps t to corner samples (values at ``grid.radius()``) added to the
    source of the u or v equation.
    """
    if not 0 < dt < math.inf:
        raise ValueError("dt must be finite and positive")
    grid = state.grid
    if kernel is None:
        kernel = _StepKernel(grid, state.sigma1, state.sigma2)
    tables, (ab, b, abd, bd) = kernel.get(dt)
    n0_out, n1_out = kernel.coupling_buffers
    tmp = kernel.tmp

    def coupling(w: np.ndarray, t: float, out: np.ndarray) -> np.ndarray:
        """Coefficients [|v|**p, |u|**q] (plus any forcing) of the stack w at
        time t, transformed in place in ``out``."""
        out[...] = w
        phys = grid.to_physical(out, overwrite=True)
        np.abs(phys, out=phys)
        _power(phys[0], q, tmp[0])
        _power(phys[1], p, tmp[0])
        if forcing is not None:
            fu, fv = forcing
            if fu is not None:
                phys[1] += fu(t)
            if fv is not None:
                phys[0] += fv(t)
        return grid.to_spectral(phys, overwrite=True)[::-1]

    t0 = state.time
    with np.errstate(over="ignore", invalid="ignore"):
        n0 = coupling(state.w, t0, n0_out)
        w, wt = _linear_fields(state, tables, tmp)
        n1 = coupling(w, t0 + dt, n1_out)
        for acc, weight, n in ((w, ab, n0), (w, b, n1), (wt, abd, n0), (wt, bd, n1)):
            acc += np.multiply(weight, n, out=tmp)

    return _stepped(state, w, wt, dt, kernel)


def six_norms(state: SpectralState) -> dict[str, float]:
    """The six recorded L2-type norms, computed on the frequency side."""
    grid = state.grid
    factor = grid.dV / grid.n_total
    xi, mult = corner_grid(grid)
    w1 = mult * xi ** (2.0 * state.sigma1)
    w2 = mult * xi ** (2.0 * state.sigma2)

    def norm(arr, weight=mult):
        return math.sqrt(factor * _energy((arr,), weight))

    return {
        "u_l2": norm(state.u_hat),
        "u_dsigma": norm(state.u_hat, w1),
        "u_dt": norm(state.ut_hat),
        "v_l2": norm(state.v_hat),
        "v_dsigma": norm(state.v_hat, w2),
        "v_dt": norm(state.vt_hat),
    }


def _checked_norms(state: SpectralState) -> tuple[Optional[dict[str, float]], float]:
    """(six norms, the largest), or (None, inf) once the state has blown up:
    a norm is not finite, or the step that made the state flagged it."""
    norms = six_norms(state)
    if state.blown_up or not all(math.isfinite(v) for v in norms.values()):
        return None, math.inf
    return norms, max(norms.values())


def detect_blowup(state: SpectralState, threshold: float) -> bool:
    """True iff the state has blown up or any recorded norm exceeds threshold."""
    if not threshold > 0:
        raise ValueError("threshold must be positive")
    return _checked_norms(state)[1] > threshold


def _top_octave_fraction(state: SpectralState) -> float:
    xi, mult = corner_grid(state.grid)
    top = mult * (xi > state.grid.xi_max / 2.0)
    worst = 0.0
    for arr in (state.u_hat, state.v_hat):
        total = _energy((arr,), mult)
        if total > 0.0:
            worst = max(worst, _energy((arr,), top) / total)
    return worst


def run(grid: GridSpec, data: InitialData, params: SystemParams,
        t_max: float, record_times: Sequence[float],
        dt: float | str = "auto", blowup_threshold: float | str = "auto",
        observers: Sequence = (), linear_only: bool = False,
        forcing: Optional[tuple[Callable, Callable]] = None) -> RunResult:
    """Advance the coupled system to t_max, recording the six norms.

    One loop steps to each event in turn: 0, the record times, the observers'
    times and t_max.  An observer has ``times`` and is called as
    ``observer(t, state)`` at each of them while the state is finite; it
    keeps what it needs, so memory does not grow with the number of events.
    The run stops with a blow-up report at the first event, or step flagged
    by the guard on ``state.energy``, where a norm crosses the threshold or
    turns non-finite.  With linear_only=True every step is the exact linear
    propagator (used for cross-validation against the whole-space oracle).
    ``config_echo`` holds dt, the threshold, the initial total norm and the
    deterministic counts ``steps`` and ``kernel_builds``.
    """
    if not 0 < t_max < math.inf:
        raise ValueError("t_max must be finite and positive")
    record_set = {float(t) for t in record_times}
    schedule = [(obs, {float(t) for t in obs.times}) for obs in observers]
    events = record_set.union({0.0, float(t_max)}, *(ts for _, ts in schedule))
    if not all(0.0 <= t <= t_max for t in events):
        raise ValueError("record_times and observer times must lie in [0, t_max]")

    dt_val = default_dt(grid, params) if dt == "auto" else float(dt)
    if not 0 < dt_val < math.inf:
        raise ValueError("dt must be finite and positive")
    if blowup_threshold != "auto" and not blowup_threshold > 0:
        raise ValueError("blowup_threshold must be positive")

    state = init(grid, data, params)
    initial_total = sum(six_norms(state).values())
    if blowup_threshold == "auto":
        threshold = 1e6 * initial_total if initial_total > 0 else 1e6
    else:
        threshold = float(blowup_threshold)

    kernel = _StepKernel(grid, params.sigma1, params.sigma2)
    # bound on every call, so that a replaced module-level step is the one used
    if linear_only:
        advance = functools.partial(linear_step, kernel=kernel)
    else:
        advance = functools.partial(duhamel_step, p=params.p, q=params.q,
                                    forcing=forcing, kernel=kernel)
    series: dict[str, list[tuple[float, float]]] = {k: [] for k in NORM_LABELS}
    warnings: list[str] = []
    blowup: Optional[dict] = None

    def handle_event(t: float) -> bool:
        """Record and observe at time t; returns False when the run should halt."""
        nonlocal blowup
        norms, peak = _checked_norms(state)
        if norms is not None:
            if t in record_set:
                for k in NORM_LABELS:
                    series[k].append((t, norms[k]))
            for observer, times in schedule:
                if t in times:
                    observer(t, state)
            if not warnings and _top_octave_fraction(state) > TAIL_ENERGY_WARN:
                warnings.append(
                    f"top-octave energy fraction exceeded {TAIL_ENERGY_WARN:.0e} at t={t:g}")
        if peak > threshold:
            blowup = {"time": t, "norm_at_detection": peak}
            return False
        return True

    pending = sorted(events, reverse=True)  # the next event last
    steps = 0
    alive = True
    while alive and pending:
        if state.time < pending[-1] - 1e-9:
            state = advance(state, min(dt_val, pending[-1] - state.time))
            steps += 1
            # cheap per-step guard between events; a nan energy fails it too
            if not math.sqrt(state.energy * grid.dV / grid.n_total) <= 4.0 * threshold:
                alive = handle_event(state.time)
        else:
            state.time = pending.pop()
            alive = handle_event(state.time)

    window = t_valid(grid, params)
    if blowup is not None and blowup["time"] > window:
        warnings.append(f"blow-up at t={blowup['time']:g} is past t_valid={window:g}, "
                        "where the torus no longer stands for the whole space")
    return RunResult(_package_series(series, params),
                     blowup,
                     {"threshold": threshold, "dt": dt_val,
                      "initial_total_norm": initial_total, "steps": steps,
                      "kernel_builds": kernel.builds},
                     window, warnings)


def _package_series(series: dict[str, list], params: SystemParams) -> dict[str, NormSeries]:
    meta = {"n": params.n, "sigma1": params.sigma1, "sigma2": params.sigma2,
            "p": params.p, "q": params.q}
    return {k: NormSeries(v, label=k, meta=dict(meta)) for k, v in series.items()}
