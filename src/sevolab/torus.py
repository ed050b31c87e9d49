"""Pseudo-spectral simulator for the coupled system on a large periodic box.

Every datum is a Gaussian centred at the origin, and both the symbol
|xi|**(2 sigma) and the pointwise |.|**p keep a field even in each
coordinate.  On the cell-centred grid x_j = -L + (j + 1/2)*dx, x -> -x maps
index j to N-1-j, so a field is fixed by its samples on the corner [-L, 0]^n,
indices 0..N/2-1 of each axis.  The state holds their DCT-II coefficients:
the DFT coefficients of the full periodic field at the frequencies [0, N/2)^n
times the phase exp(-i*pi*k/N) per axis, which are real; an even field on
this grid has no N/2 mode.  :class:`GridSpec` owns this layout and every
weight it implies.  Both components go through the same kind of propagator
and meet only in the coupling, so (u, v, u_t, v_t) is one array, on which
the propagator and the Duhamel weights act as 2x2 matrices per mode.
The linear flow is advanced exactly, mode by mode, with the multipliers
from :mod:`sevolab.multipliers`; the coupling |v|**p, |u|**q enters through
a second-order exponential integrator: the nonlinearity is evaluated in
physical space at the start of the step and at an exact-linear predictor at
its end, both stages sharing one transform pair, then combined with the
exact inhomogeneous Duhamel weights.

Since the zero mode tends to a constant on a torus, decay against the
whole-space rates is only meaningful while the diffusive spreading scale
stays well inside the box; :func:`t_valid` returns that window.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
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
    """Periodic box [-L, L)^n, a power-of-two grid of cell centres per
    dimension; its arrays cover the corner only, :meth:`unfold` the full grid.
    It is the one owner of that layout; the simulator reads of it the field
    shape ``corner_shape``, the pair ``to_physical``/``to_spectral``,
    ``radius()`` (``init``, forcing, ``Functionals``), ``spectral_weights``
    (the steps, ``six_norms``, the top-octave monitor), ``sample_weight``
    (``Functionals``), and ``half_length`` and ``xi_max`` (``t_valid``,
    ``check_profile_widths``, ``default_dt``)."""

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
    def xi_max(self) -> float:
        return math.pi / self.dx

    @property
    def corner_shape(self) -> tuple[int, ...]:
        """Samples per axis of the corner [-L, 0]^n: indices 0..N/2-1."""
        return (self.points_per_dim // 2,) * self.n_dim

    def _corner_norm(self, axis: np.ndarray) -> np.ndarray:
        """sqrt(a_j**2 + a_k**2 + ...) at each corner point from the values a
        of one axis, the squares summed in axis order as a meshgrid sum is."""
        return np.sqrt(functools.reduce(np.add.outer, [axis * axis] * self.n_dim))

    def radius(self) -> np.ndarray:
        """|x| at the corner samples x_j = -L + dx*(j + 1/2), j = 0..N/2-1."""
        j = np.arange(self.corner_shape[0])
        return self._corner_norm(-self.half_length + self.dx * (j + 0.5))

    def xi_mag(self) -> np.ndarray:
        """|xi| at the corner frequencies xi_k = 2*pi*k/(N*dx), k = 0..N/2-1."""
        k = np.arange(self.corner_shape[0])
        df = 1.0 / (self.points_per_dim * self.dx)
        return self._corner_norm(2.0 * math.pi * (k * df))

    @functools.cached_property
    def spectral_weights(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(|xi|, norm, top) at the corner frequencies, built once, read-only.
        ``norm`` is the Parseval weight: a coefficient's multiplicity, 2 for
        each axis off whose zero plane it also stands for its mirror image,
        times dV/N^n, so sum(norm * f**2) is the squared L2 norm of the field
        with coefficients f.  ``top`` is ``norm`` where |xi| > xi_max/2, else 0."""
        xi = self.xi_mag()
        axis = np.where(np.arange(self.corner_shape[0]) == 0, 1.0, 2.0)
        multiplicity = functools.reduce(np.multiply.outer, [axis] * self.n_dim)
        norm = multiplicity * (self.dV / self.points_per_dim**self.n_dim)
        top = norm * (xi > self.xi_max / 2.0)
        xi.flags.writeable = norm.flags.writeable = top.flags.writeable = False
        return xi, norm, top

    @property
    def sample_weight(self) -> float:
        """The volume a corner sample stands for: 2**n mirror images, dV each."""
        return 2 ** self.n_dim * self.dV

    def to_physical(self, w_hat: np.ndarray, overwrite: bool = False) -> np.ndarray:
        """Corner samples of the field(s) with corner coefficients ``w_hat``
        over the trailing n_dim axes, so one field or a stack of fields in one
        call; with ``overwrite`` the result may take w_hat's memory."""
        return scipy.fft.idctn(w_hat, type=2, axes=range(-self.n_dim, 0),
                               overwrite_x=overwrite)

    def to_spectral(self, w: np.ndarray, overwrite: bool = False) -> np.ndarray:
        """Corner coefficients of corner samples (trailing n_dim axes)."""
        return scipy.fft.dctn(w, type=2, axes=range(-self.n_dim, 0),
                              overwrite_x=overwrite)

    def unfold(self, w: np.ndarray) -> np.ndarray:
        """Full-grid field(s) of corner samples, reflected j -> N-1-j on each
        of the trailing n_dim axes."""
        for axis in range(-self.n_dim, 0):
            w = np.concatenate((w, np.flip(w, axis)), axis)
        return w


def _energy(f: np.ndarray, weight: np.ndarray, out: Optional[np.ndarray] = None) -> float:
    """sum(weight * f**2) over a field or a stack of fields f, with the norm
    weight of :attr:`GridSpec.spectral_weights` their squared L2 norm; inf or
    nan if f is non-finite.  The products go to ``out`` if given."""
    with np.errstate(over="ignore", invalid="ignore"):
        return float(np.vdot(f, np.multiply(weight, f, out=out)))


@dataclass(frozen=True)
class InitialData:
    """The data profiles u(0), u_t(0), v(0), v_t(0); None is the zero profile."""

    u0: Optional[GaussianProfile] = None
    u1: Optional[GaussianProfile] = None
    v0: Optional[GaussianProfile] = None
    v1: Optional[GaussianProfile] = None


@dataclass
class SpectralState:
    """Corner (DCT-II) coefficients of (u, v, u_t, v_t) plus time and symbol
    metadata: ``y``, real, of shape ``(2, 2, *corner_shape)``, is indexed
    [value or time derivative, component].  ``energy`` is the squared L2 norm
    of all four, set by the step that made the state (None at ``init``).
    ``blown_up`` stays set from the first step whose energy is not finite,
    though each norm may still be."""

    y: np.ndarray
    time: float
    grid: GridSpec
    sigma1: float
    sigma2: float
    blown_up: bool = False
    energy: Optional[float] = None


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
    """0.1 * min(1, 2*pi/omega_max), omega_max the fastest damped frequency
    at the per-axis Nyquist |xi| = pi/dx: ten steps per period there.  The
    corner's largest |xi| is sqrt(n)*(pi/dx)*(1 - 2/N), whose modes get fewer
    (about 7.1 at 256^2, L = 64, sigma = 1); the propagator is exact for them."""
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
    y = grid.to_spectral(phys, overwrite=True).reshape(2, 2, *grid.corner_shape)
    return SpectralState(y, 0.0, grid, params.sigma1, params.sigma2)


class _StepKernel:
    """Per-(grid, sigma) propagator and Duhamel weights for the last
    MAX_ENTRIES step sizes, the least recently used evicted first, and the
    work arrays of a step.

    ``get(dt)`` is ``(K, W)``, per mode the 2x2 propagator
    ``K = [[k0, k1], [dk0, dk1]]`` and Duhamel weights
    ``W = [[A - B, B], [Ad - Bd, Bd]]`` that act on the state's first axis,
    each of shape ``(2, 2, c, *corner_shape)``: c = 1 when sigma1 == sigma2,
    broadcasting over both components, else 2 with the u row first.  Record intervals are
    visited in order, so the main dt stays resident and only the final,
    shorter step of each interval is rebuilt.  ``builds`` counts the step sizes built.
    An entry is evicted after its successor is built, so MAX_ENTRIES + 1 are
    alive during a build.
    """

    MAX_ENTRIES = 2

    def __init__(self, grid: GridSpec, sigma1: float, sigma2: float):
        sigmas = (sigma1,) if sigma1 == sigma2 else (sigma1, sigma2)
        xi, self.weight, _ = grid.spectral_weights
        self.mu = np.stack([xi ** (2.0 * s) for s in sigmas])
        #: (K, W) of step dt; built over mu, not self, so that a
        #: kernel holds no reference cycle and is freed when its run ends
        self.get = functools.lru_cache(maxsize=self.MAX_ENTRIES)(
            functools.partial(self._build, self.mu))
        #: a temporary of the state's shape; each step overwrites it, and its
        #: first half is the work space of |.|**e while the couplings are evaluated
        self.tmp = np.empty((2, 2, *grid.corner_shape))

    @property
    def builds(self) -> int:
        return self.get.cache_info().misses

    @functools.cached_property
    def stages(self) -> np.ndarray:
        """The coupling buffer of a coupled step, shape ``(2, 2, *corner_shape)``
        (stage, component), transformed in place, allocated on the first one;
        each step overwrites it.  Linear steps never touch it."""
        return np.empty_like(self.tmp)

    @staticmethod
    def _build(mu: np.ndarray, dt: float) -> tuple[np.ndarray, np.ndarray]:
        """(K, W) of step dt: views of the stacks of ``propagator_arrays`` and
        :func:`duhamel_weights`, W's first column made A - B and Ad - Bd in place."""
        tables = propagator_arrays(dt, mu)
        W = duhamel_weights(dt, mu, tables).reshape(2, 2, *mu.shape)
        W[:, 0] -= W[:, 1]
        return tables.reshape(2, 2, *mu.shape), W


def _propagated(y: np.ndarray, K: np.ndarray, tmp: np.ndarray) -> np.ndarray:
    """K[:, 0]*y[0] + K[:, 1]*y[1], a new array: y advanced by K's step; ``tmp`` is work space."""
    out = np.multiply(K[:, 0], y[0])
    out += np.multiply(K[:, 1], y[1], out=tmp)
    return out


def _stepped(state: SpectralState, y: np.ndarray, dt: float,
             kernel: _StepKernel) -> SpectralState:
    """The state ``y`` one step dt after ``state``, with its ``energy`` from
    one weighted pass; a non-finite energy (overflow included) marks it as
    blown up instead of raising.  The weighted products go to ``kernel.tmp``."""
    energy = _energy(y, kernel.weight, kernel.tmp)
    return SpectralState(y, state.time + dt, state.grid, state.sigma1, state.sigma2,
                         blown_up=state.blown_up or not math.isfinite(energy),
                         energy=energy)


def linear_step(state: SpectralState, dt: float,
                kernel: Optional[_StepKernel] = None) -> SpectralState:
    """Advance the linear system exactly by dt (any dt > 0)."""
    if not 0 < dt < math.inf:
        raise ValueError("dt must be finite and positive")
    kernel = kernel or _StepKernel(state.grid, state.sigma1, state.sigma2)
    return _stepped(state, _propagated(state.y, kernel.get(dt)[0], kernel.tmp), dt, kernel)


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
    step start and at the exact-linear predictor of the step end.  The
    predictor does not depend on the first stage, so both stages are stacked
    and share one inverse and one forward transform.  ``forcing`` = (fu, fv),
    either may be None: each maps t to corner samples (values at
    ``grid.radius()``) added to the source of the u or v equation.
    """
    if not 0 < dt < math.inf:
        raise ValueError("dt must be finite and positive")
    grid = state.grid
    kernel = kernel or _StepKernel(grid, state.sigma1, state.sigma2)
    K, W = kernel.get(dt)
    tmp = kernel.tmp
    t0 = state.time
    with np.errstate(over="ignore", invalid="ignore"):
        y = _propagated(state.y, K, tmp)
        stages = kernel.stages
        stages[0] = state.y[0]
        stages[1] = y[0]
        phys = grid.to_physical(stages, overwrite=True)  # (stage, component)
        np.abs(phys, out=phys)
        _power(phys[:, 0], q, tmp[0])
        _power(phys[:, 1], p, tmp[0])
        for f, row in zip(forcing or (), (1, 0)):  # fu joins |v|**p, fv |u|**q
            if f is not None:
                phys[0, row] += f(t0)
                phys[1, row] += f(t0 + dt)
        # each stage's coupling [|v|**p, |u|**q] is its component axis reversed
        n = grid.to_spectral(phys, overwrite=True)[:, ::-1]
        y += np.multiply(W[:, 0], n[0], out=tmp)
        y += np.multiply(W[:, 1], n[1], out=tmp)

    return _stepped(state, y, dt, kernel)


def six_norms(state: SpectralState) -> dict[str, float]:
    """The six recorded L2-type norms in NORM_LABELS order, computed on the
    frequency side: ||w||, |||D|**sigma w|| and ||w_t|| of u, then of v."""
    xi, weight, _ = state.grid.spectral_weights
    norms = {}
    for name, w, wt, sigma in zip("uv", state.y[0], state.y[1], (state.sigma1, state.sigma2)):
        norms[f"{name}_l2"] = math.sqrt(_energy(w, weight))
        norms[f"{name}_dsigma"] = math.sqrt(_energy(w, weight * xi ** (2.0 * sigma)))
        norms[f"{name}_dt"] = math.sqrt(_energy(wt, weight))
    return norms


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
    """The largest share of a field's energy in the top octave, over u and v."""
    _, weight, top = state.grid.spectral_weights
    shares = [(_energy(f, top), _energy(f, weight)) for f in state.y[0]]
    return max((part / total for part, total in shares if total > 0.0), default=0.0)


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
            if not math.sqrt(state.energy) <= 4.0 * threshold:
                alive = handle_event(state.time)
        else:
            state.time = pending.pop()
            alive = handle_event(state.time)

    window = t_valid(grid, params)
    if blowup is not None and blowup["time"] > window:
        warnings.append(f"blow-up at t={blowup['time']:g} is past t_valid={window:g}, "
                        "where the torus no longer stands for the whole space")
    return RunResult({k: NormSeries(v) for k, v in series.items()},
                     blowup,
                     {"threshold": threshold, "dt": dt_val,
                      "initial_total_norm": initial_total, "steps": steps,
                      "kernel_builds": kernel.builds},
                     window, warnings)

