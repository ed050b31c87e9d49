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
import os
import sys
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from ._inputs import auto_or_positive, require
from .exponents import SystemParams
from .fitting import NormSeries
from .multipliers import duhamel_weights, propagator_arrays
from .profiles import GaussianProfile

NORM_LABELS = ("u_l2", "u_dsigma", "u_dt", "v_l2", "v_dsigma", "v_dt")

#: tolerated tail-mass fraction of an initial profile outside the box
TAIL_TOL = 1e-10
#: the largest 2**n * sum|corner samples| of an initial profile, which bounds each DCT-II
#: coefficient of its samples: pocketfft's overflowed from 0.50-0.54 of the largest float
#: on five grids, 1D to 3D, so a quarter of it leaves a 2x margin
SAMPLE_SUM_MAX = sys.float_info.max / 4
#: spectral-tail monitor: top-octave energy fraction triggering a warning
TAIL_ENERGY_WARN = 1e-6
#: corner points per field from which a coupled step runs stage 0 on a helper thread:
#: with its 85 us handoff a step took 215 -> 223 us at 64^2, 400 -> 306 at 8192 (2 vCPUs);
#: below it the step tables take the state's shape (see _StepKernel)
_SPLIT_POINTS = 2**13
_VDOT_CHUNK = 8192  # below the 10 000 elements from which OpenBLAS's dot uses threads
#: the steps' errstate (an overflow marks a blow-up): as a decorator, 0.4 us a call against 0.8
_QUIET = np.errstate(over="ignore", invalid="ignore")


@functools.cache
def _fftpack():
    """scipy.fftpack, imported on the first transform and cached after it; each
    transform call reads ``dct``/``idct`` off it, so a replaced one is used."""
    import scipy.fftpack
    return scipy.fftpack


@dataclass(frozen=True)
class GridSpec:
    """Periodic box [-L, L)^n, a power-of-two grid of cell centres per
    dimension, whose arrays cover the corner only.  It owns that layout and
    every transform; the simulator reads of it the field shape
    ``corner_shape``, the pair ``to_physical``/``to_spectral``, the coupled
    step's in-place ``stage_inverse`` and ``to_spectral(overwrite=True)`` with
    ``inverse_scale`` for its fill, ``radius()`` (``init``, ``Functionals``),
    ``spectral_weights`` (the steps, ``six_norms``, the top-octave monitor),
    ``sample_weight`` (``Functionals``), and ``half_length`` and ``xi_max``
    (``t_valid``, ``profile_misfit``, ``default_dt``)."""

    n_dim: int
    points_per_dim: int
    half_length: float

    def __post_init__(self):
        require(self.n_dim, "n_dim", 1, 3, "[]", integral=True)
        npts = require(self.points_per_dim, "points_per_dim", 16, closed="[", integral=True)
        if npts & (npts - 1) != 0:
            raise ValueError(f"points_per_dim must be a power of two, got {npts}")
        require(self.half_length, "half_length", 0.0)

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

    @functools.cached_property
    def inverse_scale(self) -> float:
        """(0.5/M)**n, M the corner length: the factor that makes
        :meth:`stage_inverse` the inverse of :meth:`to_spectral`.  It is a
        power of two, so scaling the coefficients before the inverse gives the
        bits of scaling its result."""
        return (0.5 / self.corner_shape[0]) ** self.n_dim

    def stage_inverse(self, block: np.ndarray) -> np.ndarray:
        """The unnormalised inverse DCT-II of ``block`` over the trailing n_dim
        axes, written into it.  Both directions run scipy.fft's pocketfft DCTs
        through ``scipy.fftpack``, one 1-d call per axis in ascending order,
        which skips scipy.fft's backend dispatch and the n-d call's own
        (README, "The floors")."""
        for axis in range(-self.n_dim, 0):
            block = _fftpack().idct(block, type=2, axis=axis, overwrite_x=True)
        return block

    def to_physical(self, w_hat: np.ndarray) -> np.ndarray:
        """Corner samples of the field(s) with corner coefficients ``w_hat``
        over the trailing n_dim axes, so one field or a stack of fields in one
        call: scipy.fft.idctn's bits, in a new array."""
        return self.stage_inverse(w_hat * self.inverse_scale)

    def to_spectral(self, w: np.ndarray, overwrite: bool = False) -> np.ndarray:
        """Corner coefficients of corner samples (trailing n_dim axes): dctn's bits."""
        for axis in range(-self.n_dim, 0):
            w = _fftpack().dct(w, type=2, axis=axis, overwrite_x=overwrite)
            overwrite = True
        return w


def _energy(f: np.ndarray, weight: np.ndarray, out: Optional[np.ndarray] = None) -> float:
    """sum(weight * f**2) over a field or a stack of fields f, with the norm
    weight of :attr:`GridSpec.spectral_weights` their squared L2 norm; inf or
    nan if f is non-finite, which warns unless the caller ignores over and
    invalid in ``np.errstate``.  The products go to ``out`` if given; the sum is
    one np.vdot per _VDOT_CHUNK elements (sizes are powers of two), in order."""
    wf = np.multiply(weight, f, out=out)
    if f.size <= _VDOT_CHUNK:
        return float(np.vdot(f, wf))
    return float(sum(map(np.vdot, f.reshape(-1, _VDOT_CHUNK), wf.reshape(-1, _VDOT_CHUNK))))


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
    of all four, set by the step that made the state (None at ``init``);
    it overflows to inf while each norm may still be finite."""

    y: np.ndarray
    time: float
    grid: GridSpec
    sigma1: float
    sigma2: float
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


def profile_misfit(grid: GridSpec, data: InitialData) -> Optional[tuple[str, str, str]]:
    """(name, field, reason) of the first nonzero profile of ``data`` that ``grid``
    cannot hold, else None: field "width" if more than TAIL_TOL of its mass lies
    outside the box, else "amplitude" if 2**n * the sum of its |corner samples|
    exceeds SAMPLE_SUM_MAX, so that the transform of its samples may overflow.
    The reason says which and by how much.  numpy alone, with no transform."""
    r = grid.radius()
    for name in ("u0", "u1", "v0", "v1"):
        prof = getattr(data, name)
        if prof is None or prof.amplitude == 0.0:
            continue
        frac = prof.tail_mass_fraction(grid.half_length, grid.n_dim)
        if frac > TAIL_TOL:
            return name, "width", (f"tail mass fraction {frac:.2e} of the {name} profile "
                                   f"lies outside the box (limit {TAIL_TOL:g})")
        with np.errstate(over="ignore"):  # a sum past the largest float is inf
            total = float(2**grid.n_dim * np.abs(prof.value(r)).sum())
        if total > SAMPLE_SUM_MAX:
            return name, "amplitude", (
                f"the {name} profile's transform may overflow a float: "
                f"2**n * sum|samples| = {total:.2e} (limit {SAMPLE_SUM_MAX:.2e})")
    return None


def init(grid: GridSpec, data: InitialData, params: SystemParams) -> SpectralState:
    """Spectral state at t = 0 sampling the data profiles on the corner."""
    misfit = profile_misfit(grid, data)
    if misfit is not None:
        name, _, reason = misfit
        raise ValueError(f"{name}: {reason}")
    r = grid.radius()
    phys = np.zeros((4, *grid.corner_shape))
    for row, prof in zip(phys, (data.u0, data.v0, data.u1, data.v1)):
        if prof is not None:
            row[...] = prof.value(r)
    y = grid.to_spectral(phys, overwrite=True).reshape(2, 2, *grid.corner_shape)
    return SpectralState(y, 0.0, grid, params.sigma1, params.sigma2)


def usable_cpus() -> int:
    """The CPUs this process may run on: its affinity mask's where the OS has one."""
    return len(getattr(os, "sched_getaffinity", lambda _: range(os.cpu_count() or 1))(0))


def _aligned_empty(shape: tuple[int, ...]) -> np.ndarray:
    """An uninitialised float array of ``shape`` whose data starts on a 64-byte
    boundary, a cache line.  numpy aligns to 16 bytes; with the kernel's work
    arrays, the ``out`` of most of a step's products, left to that, a 2048-point
    step took 51-52 us in some processes and 54-57 us in others (2 vCPUs)."""
    size = math.prod(shape)
    buf = np.empty(size + 7)
    start = (-buf.ctypes.data % 64) // buf.itemsize
    return buf[start:start + size].reshape(shape)


class _StepKernel:
    """Per-(grid, sigma) propagator and Duhamel weights for the last
    MAX_ENTRIES step sizes, the least recently used evicted first, and the
    work arrays of a step.  ``key`` is the (grid, sigma1, sigma2) it was built
    for; a step given it for a state of another raises ValueError.

    ``get(dt)`` is ``(K[:, 0], K[:, 1], W[:, 0], W[:, 1])``, the columns a step
    reads of the per-mode 2x2 propagator ``K = [[k0, k1], [dk0, dk1]]`` and
    Duhamel weights ``W = [[A - B, B], [Ad - Bd, Bd]]`` that act on the state's
    first axis, K and W of shape ``(2, 2, c, *corner_shape)``, the u row first;
    the views are made with the tables.  Below _SPLIT_POINTS corner points,
    where a step runs stacked on one thread, c = 2 and the energy ``weight``
    has the state's shape: numpy then runs each product of a step over the
    components and modes in fewer, longer inner loops than it runs a table
    broadcast over the components (README, "Two regimes, one cut-off").
    From _SPLIT_POINTS on, c = 1 when sigma1 == sigma2,
    broadcasting over both components, else 2, and ``weight`` is the corner's,
    which keeps the memory of large grids.  A mode's tables depend on it only
    through mu = |xi|**(2 sigma): they are built on the distinct ``symbols``
    and gathered by ``index``, of shape ``(c, *corner_shape)``, bit for bit
    the per-mode build while both table functions act elementwise in mu.
    Record intervals are visited in order, so the main dt stays resident and
    only the final, shorter step of each interval is rebuilt.  ``builds`` counts
    the step sizes built.  An entry is evicted after its successor is built, so
    MAX_ENTRIES + 1 are alive during a build.  ``helper`` runs a coupled step's
    first stage: a one-thread executor from _SPLIT_POINTS corner points when the
    process has 2 CPUs, else None.  It and the ``lanes`` are made on the first
    coupled step, so a linear run makes neither.  The kernel owns the helper,
    not the module, so a forked sweep worker starts its own thread.
    """

    MAX_ENTRIES = 2

    def __init__(self, grid: GridSpec, sigma1: float, sigma2: float):
        self.key = (grid, sigma1, sigma2)
        sigmas = (sigma1,) if sigma1 == sigma2 else (sigma1, sigma2)
        xi, self.weight, _ = grid.spectral_weights
        mu = np.stack([xi ** (2.0 * s) for s in sigmas])
        self.symbols, self.index = np.unique(mu, return_inverse=True)
        if xi.size < _SPLIT_POINTS:  # stacked: tables and weight at the state's shape
            self.index = np.broadcast_to(self.index, (2, *grid.corner_shape))
            self.weight = np.broadcast_to(self.weight, (2, 2, *grid.corner_shape)).copy()
        #: the table columns of step dt; built over the symbols, not self, so
        #: that a kernel holds no reference cycle and is freed when its run ends
        self.get = functools.lru_cache(maxsize=self.MAX_ENTRIES)(
            functools.partial(self._build, self.symbols, self.index))
        #: a temporary of the state's shape; each step overwrites it, and its
        #: first field is this thread's work space of |.|**e (see ``lanes``)
        self.tmp = _aligned_empty((2, 2, *grid.corner_shape))

    @property
    def builds(self) -> int:
        return self.get.cache_info().misses

    @functools.cached_property
    def helper(self) -> Optional[ThreadPoolExecutor]:
        split = self.tmp[0, 0].size >= _SPLIT_POINTS and usable_cpus() > 1
        return ThreadPoolExecutor(1) if split else None

    @functools.cached_property
    def lanes(self) -> tuple:
        """The views a coupled step reads of its coupling buffer, shape (stage,
        component, *corner_shape), which it overwrites: the rows, this thread's
        lane and the helper's (None without one).  A lane is what one
        :func:`_coupling` writes: its first stage, its block of stages, each
        stage's (v, u) fields (|.|**e is faster on them than on the block's
        strided halves), a work field, and inverse_scale as a 0-d array."""
        def lane(first: int, block: np.ndarray, work: np.ndarray) -> tuple:
            return first, block, [tuple(stage) for stage in block], work, scale
        stages, scale = _aligned_empty(self.tmp.shape), np.array(self.key[0].inverse_scale)
        if self.helper is None:
            return tuple(stages), lane(0, stages, self.tmp[0, 0]), None
        return (tuple(stages), lane(1, stages[1:], self.tmp[0, 0]),
                lane(0, stages[:1], np.empty_like(self.tmp[0, 0])))

    @staticmethod
    def _build(symbols: np.ndarray, index: np.ndarray, dt: float) -> tuple:
        """The columns of (K, W) of step dt: the stacks of ``propagator_arrays``
        and :func:`duhamel_weights` on the symbols, W's first column made A - B
        and Ad - Bd, each gathered onto the modes by one ``take``."""
        tables = propagator_arrays(dt, symbols)
        W = duhamel_weights(dt, symbols, tables)
        W[::2] -= W[1::2]
        K, W = (a.take(index, axis=-1).reshape(2, 2, *index.shape) for a in (tables, W))
        return K[:, 0], K[:, 1], W[:, 0], W[:, 1]


def _step_arrays(state: SpectralState, dt: float, kernel: Optional[_StepKernel],
                 out: Optional[np.ndarray]) -> tuple[_StepKernel, np.ndarray, tuple]:
    """(kernel, out, kernel's table columns of dt) of a step of ``state`` by dt > 0,
    new ones for None: a kernel built for its grid and orders, an array of its
    y's shape and dtype not sharing y's memory."""
    require(dt, "dt", 0.0)
    key = (state.grid, state.sigma1, state.sigma2)
    if kernel is None:
        kernel = _StepKernel(*key)
    elif kernel.key != key:  # item by item, each by identity first
        raise ValueError(f"kernel was built for (grid, sigma1, sigma2) = {kernel.key}, not {key}")
    y = state.y
    if out is not None and (out.shape != y.shape or out.dtype != y.dtype
                            or np.may_share_memory(out, y)):
        raise ValueError(f"out must be a {y.dtype} array of shape {y.shape}, apart from state.y")
    return kernel, np.empty_like(y) if out is None else out, kernel.get(dt)


def _stepped(state: SpectralState, y: np.ndarray, t: float, kernel: _StepKernel) -> SpectralState:
    """The state ``y`` at time ``t`` that a step of ``state`` made.  Its energy is one
    unscaled weighted pass, inf once the squares overflow (which does not warn in
    the steps' errstate); only ``run``'s guard reads it."""
    return SpectralState(y, t, state.grid, state.sigma1, state.sigma2,
                         energy=_energy(y, kernel.weight, kernel.tmp))


@_QUIET
def linear_step(state: SpectralState, dt: float, kernel: Optional[_StepKernel] = None,
                out: Optional[np.ndarray] = None) -> SpectralState:
    """Advance the linear system exactly by dt (any finite dt > 0) into ``out``,
    not ``state.y``, or a new array; the new state and energy are :func:`_stepped`'s."""
    kernel, y, (K0, K1, _, _) = _step_arrays(state, dt, kernel, out)
    np.multiply(K0, state.y[0], out=y)
    y += np.multiply(K1, state.y[1], out=kernel.tmp)
    return _stepped(state, y, state.time + dt, kernel)


def _power(x: np.ndarray, e: float, tmp: np.ndarray) -> None:
    """x**e written into x, for x >= 0; ``tmp`` is work space of x's shape.

    When 2e is an integer in [2, 12] this is a product of repeated squares of
    x and at most one sqrt, a few multiplies per element where np.power pays
    for a log and an exp; other exponents go to np.power.  Without a sqrt the
    first odd factor stays in x, squared on in tmp: x**3 is two multiplies.
    """
    halves = 2.0 * e
    if not (2.0 <= halves <= 12.0 and halves == int(halves)):
        np.power(x, e, out=x)
        return
    n, half = divmod(int(halves), 2)
    acc = np.sqrt(x, out=tmp) if half else None  # the product of the odd factors
    square = x  # x**(2**k) at the k-th bit of n
    while n > 1:
        if n & 1 and acc is None:
            acc, square = x, np.multiply(x, x, out=tmp)
        else:
            if n & 1:
                acc *= square
            square *= square
        n >>= 1
    if acc is not None:
        np.multiply(acc, square, out=x)


def _coupling(lane: tuple, sources: Sequence, grid: GridSpec, p: float, q: float) -> None:
    """The coefficients of [|v|**p, |u|**q] at the stages of ``lane``
    (:attr:`_StepKernel.lanes`), written there: stage i from the (u, v)
    coefficients ``sources[i]``, scaled by the grid's ``inverse_scale`` into
    its fields and transformed there by the grid.  The fill swaps each
    source's components, field by field (a reversed read made numpy copy the
    source), so that the result has the order of the equations it drives and
    the update multiplies forward-strided coefficients; the transforms act
    per field, to the same bits."""
    lo, block, fields, tmp, scale = lane
    for (v, u), source in zip(fields, sources[lo:]):
        np.multiply(source[1], scale, out=v)
        np.multiply(source[0], scale, out=u)
    grid.stage_inverse(block)  # (stage, [v, u]): grid.to_physical of the swapped sources
    np.abs(block, out=block)
    for v, u in fields:
        _power(u, q, tmp)
        _power(v, p, tmp)
    grid.to_spectral(block, overwrite=True)


_helper_coupling = _QUIET(_coupling)  # the helper thread enters its own errstate


@_QUIET
def duhamel_step(state: SpectralState, dt: float, p: float, q: float,
                 kernel: Optional[_StepKernel] = None,
                 out: Optional[np.ndarray] = None) -> SpectralState:
    """One second-order exponential step of the full coupled system.

    The coupling is interpolated linearly in time between its value at the
    step start and at the exact-linear predictor of the step end.  The
    predictor does not depend on the first stage, so :func:`_coupling` takes
    both stacked, sharing one transform pair, or, with the kernel's helper,
    the first on that thread while this one makes the predictor and the second,
    to the same bits.  dt must be a finite real > 0, and p and q finite
    reals > 1, as :class:`SystemParams` takes them.  The new state's ``y`` is
    ``out`` if given, which must not be ``state.y``, else a new array; the new
    state and its energy are :func:`_stepped`'s, as in :func:`linear_step`.
    """
    require(p, "p", 1.0)
    require(q, "q", 1.0)
    kernel, y, (K0, K1, W0, W1) = _step_arrays(state, dt, kernel, out)
    (n0, n1), lane, helper_lane = kernel.lanes
    tmp, grid = kernel.tmp, state.grid
    sources = state.y[0], y[0]
    if helper_lane is not None:
        first = kernel.helper.submit(_helper_coupling, helper_lane, sources, grid, p, q)
    np.multiply(K0, state.y[0], out=y)
    y += np.multiply(K1, state.y[1], out=tmp)
    _coupling(lane, sources, grid, p, q)
    if helper_lane is not None:
        first.result()
    y += np.multiply(W0, n0, out=tmp)
    y += np.multiply(W1, n1, out=tmp)
    return _stepped(state, y, state.time + dt, kernel)


@functools.lru_cache(maxsize=8)
def _dsigma_weight(grid: GridSpec, sigma: float) -> np.ndarray:
    """The norm weight times |xi|**(2 sigma), whose energy is |||D|**sigma w||**2;
    built once per (grid, sigma), read-only."""
    xi, weight, _ = grid.spectral_weights
    out = weight * xi ** (2.0 * sigma)
    out.flags.writeable = False
    return out


def six_norms(state: SpectralState) -> dict[str, float]:
    """The six recorded L2-type norms in NORM_LABELS order, computed on the
    frequency side: ||w||, |||D|**sigma w|| and ||w_t|| of u, then of v."""
    _, weight, _ = state.grid.spectral_weights
    norms = {}
    with np.errstate(over="ignore", invalid="ignore"):  # a blown-up state's norms
        for name, w, wt, sigma in zip("uv", state.y[0], state.y[1],
                                      (state.sigma1, state.sigma2)):
            norms[f"{name}_l2"] = _norm(w, weight)
            norms[f"{name}_dsigma"] = _norm(w, _dsigma_weight(state.grid, sigma))
            norms[f"{name}_dt"] = _norm(wt, weight)
    return norms


def _norm(f: np.ndarray, weight: np.ndarray) -> float:
    """sqrt(_energy(f, weight)), with f first scaled by 2**-e, e the binary
    exponent of its largest |coefficient| (0 if f is zero or not finite), and
    the root scaled back by 2**e.  Powers of two scale exactly, so tiny data
    keep the digits that their squares would lose in underflow."""
    e = math.frexp(np.max(np.abs(f)))[1]
    return float(np.ldexp(math.sqrt(_energy(np.ldexp(f, -e), weight)), e))


def _checked_norms(state: SpectralState) -> tuple[Optional[dict[str, float]], float]:
    """(six norms, the largest), or (None, inf) once a norm is not finite,
    which, as the norms scale each field first, takes an inf or nan coefficient."""
    norms = six_norms(state)
    if not all(math.isfinite(v) for v in norms.values()):
        return None, math.inf
    return norms, max(norms.values())


def detect_blowup(state: SpectralState, threshold: float) -> bool:
    """True iff any recorded norm of the state is not finite or exceeds threshold."""
    require(threshold, "threshold", 0.0, math.inf, "]")
    return _checked_norms(state)[1] > threshold


def _top_octave_fraction(state: SpectralState, norms: dict[str, float]) -> float:
    """The largest top-octave share of a field's energy over u and v, (its top
    :func:`_norm` / its L2 norm in ``norms``, the finite :func:`six_norms`)**2."""
    top = state.grid.spectral_weights[2]
    shares = [(_norm(f, top), norms[f"{name}_l2"]) for name, f in zip("uv", state.y[0])]
    return max(((part / total) ** 2 for part, total in shares if total > 0.0), default=0.0)


class _Stepper:
    """A run's step rule: dt, kernel, step and step count.  Its steps write in
    turn into two arrays, made on the first two: ``held``, the last state's,
    which ``run`` sets to None when it hands that state out, and ``spare``, a
    left state's, the next step's ``out``.  ``toward`` looks the step up in the
    module on every call, so that a replaced one is used: the bench's step
    probe and its calibration ticks see every step."""

    def __init__(self, grid: GridSpec, params: SystemParams, dt: float | str, linear_only: bool):
        dt = auto_or_positive(dt, "dt")
        self.dt = default_dt(grid, params) if dt == "auto" else dt
        self.kernel = _StepKernel(grid, params.sigma1, params.sigma2)
        self.coupling = None if linear_only else (params.p, params.q)
        self.steps = 0
        self.held = self.spare = None  # Optional[np.ndarray]

    def toward(self, state: SpectralState, t_event: float) -> SpectralState:
        """The state one step of min(dt, t_event - state.time) after ``state``."""
        dt = min(self.dt, t_event - state.time)
        self.steps += 1
        out = self.spare if self.spare is not None else _aligned_empty(state.y.shape)
        self.spare, self.held = self.held, out
        if self.coupling is None:
            return linear_step(state, dt, kernel=self.kernel, out=out)
        return duhamel_step(state, dt, *self.coupling, kernel=self.kernel, out=out)


def run(grid: GridSpec, data: InitialData, params: SystemParams,
        t_max: float, record_times: Sequence[float],
        dt: float | str = "auto", blowup_threshold: float | str = "auto",
        observers: Sequence = (), linear_only: bool = False) -> RunResult:
    """Advance the coupled system to t_max, recording the six norms.

    One loop steps to each event in turn (0, the record times, the observers'
    times and t_max) by a :class:`_Stepper`, and keeps the events, the
    per-step guard, the recorder, the observers and the top-octave monitor.
    An observer's ``observer(t, state)`` is called at each of its ``times``
    while its norms are finite; it may keep the state, which no later step
    overwrites.  The guard, ``state.energy`` over (4 threshold)**2, only ends
    the stepping; the run stops with a blow-up report at the first event or
    guarded step where a norm crosses the threshold or turns non-finite.
    linear_only=True steps by the exact linear propagator alone.  dt and
    blowup_threshold are "auto" or a finite real > 0, not a bool; the "auto"
    threshold is 1e6 times the initial total norm (1e6 if that is 0), at most
    the largest float, and data whose initial total norm is not finite raise
    ValueError before the first step.  ``config_echo`` holds dt, the
    threshold, the initial total norm and the deterministic counts ``steps``
    and ``kernel_builds``.
    """
    t_max = require(t_max, "t_max", 0.0)
    record_set = {require(t, "record_times", 0.0, t_max, "[]") for t in record_times}
    schedule = [(obs, {require(t, "observer times", 0.0, t_max, "[]") for t in obs.times})
                for obs in observers]
    events = record_set.union({0.0, t_max}, *(ts for _, ts in schedule))

    stepper = _Stepper(grid, params, dt, linear_only)
    threshold = auto_or_positive(blowup_threshold, "blowup_threshold")
    state = init(grid, data, params)
    initial_total = sum(six_norms(state).values())
    if not math.isfinite(initial_total):
        raise ValueError(f"data must have a finite initial total norm, got {initial_total!r}")
    if threshold == "auto":  # capped: past the largest float only an overflow crosses
        threshold = min(1e6 * initial_total, sys.float_info.max) if initial_total > 0 else 1e6

    limit = (4.0 * threshold) * (4.0 * threshold)  # inf above ~3.4e153: then only nan trips
    rows: list[tuple[float, dict[str, float]]] = []
    warnings: list[str] = []
    blowup: Optional[dict] = None
    for event in sorted(events):
        while state.time < event - 1e-9:
            state = stepper.toward(state, event)
            if not state.energy <= limit:  # the per-step guard; nan fails
                break  # sqrt(energy) <= 2x the largest norm, so the blow-up test ends the run
        else:
            state.time = event
        t = state.time
        norms, peak = _checked_norms(state)
        if norms is not None:
            if t in record_set:
                rows.append((t, norms))
            for observer, times in schedule:
                if t in times:
                    stepper.held = None  # the state may leave the run: no step writes into it
                    observer(t, state)
            if not warnings and _top_octave_fraction(state, norms) > TAIL_ENERGY_WARN:
                warnings.append(
                    f"top-octave energy fraction exceeded {TAIL_ENERGY_WARN:.0e} at t={t:g}")
        if peak > threshold:
            blowup = {"time": t, "norm_at_detection": peak}
            break

    window = t_valid(grid, params)
    if blowup is not None and blowup["time"] > window:
        warnings.append(f"blow-up at t={blowup['time']:g} is past t_valid={window:g}, "
                        "where the torus no longer stands for the whole space")
    series = {k: NormSeries([(t, norms[k]) for t, norms in rows]) for k in NORM_LABELS}
    return RunResult(series, blowup,
                     {"threshold": threshold, "dt": stepper.dt,
                      "initial_total_norm": initial_total, "steps": stepper.steps,
                      "kernel_builds": stepper.kernel.builds},
                     window, warnings)

