"""Exact Fourier multipliers of the damped linear flow.

On the frequency side the linear equation reduces, mode by mode, to

    w'' + w' + mu * w = 0,       mu = |xi|**(2*sigma),

whose solution map is encoded by two multipliers: k0 propagates the initial
value and k1 the initial velocity.  The discriminant d = 1 - 4*mu separates
an overdamped branch (d > 0), a double root (d = 0) and an oscillatory
branch (d < 0).  All three are evaluated here in real arithmetic through
sinhc/sinc forms that stay accurate across the seam and never overflow:

    d >= 0:  b = sqrt(d)/2
             k1 = exp(-t/2) * t * sinhc(b*t)
             k0 = exp(-t/2) * cosh(b*t) + k1/2
    d <  0:  om = sqrt(-d)/2
             k1 = exp(-t/2) * t * sinc(om*t)
             k0 = exp(-t/2) * cos(om*t) + k1/2

For b*t large the cosh form would overflow, so the overdamped branch
switches to the difference form in exp(lam1*t), exp(lam2*t) with
lam1 = -2*mu/(1 + sqrt(d)) evaluated cancellation-free.  The time
derivatives follow algebraically: dk0 = -mu*k1 and dk1 = k0 - k1.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

#: b*t below this uses the cosh/sinhc form, above the exponential-difference form
_FORM_SWITCH = 0.5
#: |x| below this evaluates sinh(x)/x by series
_SINHC_SERIES = 1e-4
#: mu*dt**2 below this (mu, when dt > 1) takes the series branch of
#: duhamel_weights; above it the closed forms lose at most ~3e-13 relative
_SMALL_MU_DT2 = 0.1
#: terms of the weight series, exact to rounding while |lam*dt| <= _SERIES_DT_MAX
_SERIES_TERMS = 30
_SERIES_DT_MAX = 2.0


@dataclass(frozen=True)
class CharacteristicRoots:
    lambda1: complex
    lambda2: complex


@dataclass(frozen=True)
class PropagatorValue:
    """Multiplier values at one (t, |xi|): k0, k1 and their time derivatives."""

    k0: float
    k1: float
    dk0: float
    dk1: float


def roots(xi_mag: float, sigma: float) -> CharacteristicRoots:
    """Characteristic roots lam_{1,2} = (-1 +- sqrt(1 - 4*|xi|**(2*sigma)))/2."""
    if xi_mag < 0:
        raise ValueError("xi_mag must be >= 0")
    mu = float(xi_mag) ** (2.0 * sigma)
    d = 1.0 - 4.0 * mu
    if d >= 0.0:
        sq = math.sqrt(d)
        lam1 = -2.0 * mu / (1.0 + sq)
        return CharacteristicRoots(complex(lam1), complex(-1.0 - lam1))
    om = math.sqrt(-d) / 2.0
    return CharacteristicRoots(complex(-0.5, om), complex(-0.5, -om))


def _sinhc(x: np.ndarray) -> np.ndarray:
    """sinh(x)/x, series near zero, equal to 1 at x = 0."""
    x = np.asarray(x, dtype=float)
    out = np.empty_like(x)
    small = np.abs(x) < _SINHC_SERIES
    xs = x[small]
    out[small] = 1.0 + xs * xs / 6.0 + xs**4 / 120.0
    xl = x[~small]
    out[~small] = np.sinh(xl) / xl
    return out


def propagator_arrays(t: float, mu: np.ndarray):
    """Vectorised multiplier tables (k0, k1, dk0, dk1) for mu = |xi|**(2*sigma).

    t is a scalar >= 0; mu an array of nonnegative symbol values.
    """
    if t < 0:
        raise ValueError("t must be >= 0")
    mu = np.asarray(mu, dtype=float)
    k0 = np.empty_like(mu)
    k1 = np.empty_like(mu)

    d = 1.0 - 4.0 * mu
    over = d >= 0.0

    if np.any(over):
        dm = d[over]
        mum = mu[over]
        sq = np.sqrt(dm)
        b = sq / 2.0
        bt = b * t
        lam1 = -2.0 * mum / (1.0 + sq)
        lam2 = -1.0 - lam1

        k0o = np.empty_like(dm)
        k1o = np.empty_like(dm)

        near = bt <= _FORM_SWITCH
        if np.any(near):
            env = math.exp(-t / 2.0)
            btn = bt[near]
            k1n = env * t * _sinhc(btn)
            k1o[near] = k1n
            k0o[near] = env * np.cosh(btn) + 0.5 * k1n
        far = ~near
        if np.any(far):
            e1 = np.exp(lam1[far] * t)
            e2 = np.exp(lam2[far] * t)
            sqf = sq[far]
            k1o[far] = (e1 - e2) / sqf
            k0o[far] = (lam1[far] * e2 - lam2[far] * e1) / sqf
        k0[over] = k0o
        k1[over] = k1o

    osc = ~over
    if np.any(osc):
        om = np.sqrt(-d[osc]) / 2.0
        env = math.exp(-t / 2.0)
        k1x = env * t * np.sinc(om * t / math.pi)
        k1[osc] = k1x
        k0[osc] = env * np.cos(om * t) + 0.5 * k1x

    dk0 = -mu * k1
    dk1 = k0 - k1
    return k0, k1, dk0, dk1


def _propagator_scalar(t: float, mu: float) -> tuple[float, float, float, float]:
    """Pure-float twin of :func:`propagator_arrays` for quadrature inner loops."""
    d = 1.0 - 4.0 * mu
    if d >= 0.0:
        sq = math.sqrt(d)
        bt = sq * t / 2.0
        lam1 = -2.0 * mu / (1.0 + sq)
        if bt <= _FORM_SWITCH:
            env = math.exp(-t / 2.0)
            if bt < _SINHC_SERIES:
                shc = 1.0 + bt * bt / 6.0 + bt**4 / 120.0
            else:
                shc = math.sinh(bt) / bt
            k1 = env * t * shc
            k0 = env * math.cosh(bt) + 0.5 * k1
        else:
            lam2 = -1.0 - lam1
            e1 = math.exp(lam1 * t)
            e2 = math.exp(lam2 * t)
            k1 = (e1 - e2) / sq
            k0 = (lam1 * e2 - lam2 * e1) / sq
    else:
        om = math.sqrt(-d) / 2.0
        env = math.exp(-t / 2.0)
        x = om * t
        if abs(x) < _SINHC_SERIES:
            snc = 1.0 - x * x / 6.0 + x**4 / 120.0
        else:
            snc = math.sin(x) / x
        k1 = env * t * snc
        k0 = env * math.cos(x) + 0.5 * k1
    return k0, k1, -mu * k1, k0 - k1


def propagator(t: float, xi_mag: float, sigma: float) -> PropagatorValue:
    """Multiplier values at one (t, |xi|, sigma); exact for any t >= 0."""
    if t < 0:
        raise ValueError("t must be >= 0")
    if xi_mag < 0:
        raise ValueError("xi_mag must be >= 0")
    mu = float(xi_mag) ** (2.0 * sigma)
    k0, k1, dk0, dk1 = _propagator_scalar(float(t), mu)
    return PropagatorValue(k0, k1, dk0, dk1)


def propagation_matrix(t: float, xi_mag: float, sigma: float) -> np.ndarray:
    """2x2 map (w, w_t)(0) -> (w, w_t)(t) for one mode."""
    v = propagator(t, xi_mag, sigma)
    return np.array([[v.k0, v.k1], [v.dk0, v.dk1]])


def ode_residual(t: float, xi_mag: float, sigma: float, h: float) -> float:
    """Centred-difference residual of the mode ODE; O(h**2) for the exact multiplier."""
    if not (t >= h > 0):
        raise ValueError("need t >= h > 0")
    mu = float(xi_mag) ** (2.0 * sigma)
    vm = _propagator_scalar(t - h, mu)
    v0 = _propagator_scalar(t, mu)
    vp = _propagator_scalar(t + h, mu)
    res = 0.0
    for i in (0, 1):  # k0 and k1 channels
        second = (vp[i] - 2.0 * v0[i] + vm[i]) / (h * h)
        first = (vp[i] - vm[i]) / (2.0 * h)
        res = max(res, abs(second + first + mu * v0[i]))
    return res


def _phi_weights(dt: float, mu: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(A, B) of :func:`duhamel_weights` by a cancellation-free series.

    With x1, x2 = lam1*dt, lam2*dt the weights are divided differences of
    the phi-functions, A = dt**2 * phi1[x1, x2] and B = dt**2 * phi2[x1, x2],
    so A = dt**2 * sum_m h_m/(m+2)! and B = dt**2 * sum_m h_m/(m+3)! with
    the real recurrence h_m = -dt*h_{m-1} - mu*dt**2*h_{m-2} (h_0 = 1).
    Longer steps are composed from two half steps.
    """
    if dt > _SERIES_DT_MAX:
        half = dt / 2.0
        A, B = _phi_weights(half, mu)
        k0, k1, _, _ = propagator_arrays(half, mu)
        return A * (1.0 + k0) + k1 * k1, 0.5 * (k0 * B + k1 * A / half + A + B)
    prod = mu * (dt * dt)
    h_prev = np.zeros_like(mu)
    h = np.ones_like(mu)
    A = np.zeros_like(mu)
    B = np.zeros_like(mu)
    fact = 2.0
    for m in range(_SERIES_TERMS):
        A += h / fact
        fact *= m + 3
        B += h / fact
        h_prev, h = h, -dt * h - prod * h_prev
    return dt * dt * A, dt * dt * B


def duhamel_weights(dt: float, mu: np.ndarray, tables=None):
    """Exact inhomogeneous weights for one exponential step.

    Returns (A, B, Ad, Bd) with
        A  = int_0^dt k1(dt - tau)            dtau
        B  = int_0^dt k1(dt - tau) * tau/dt   dtau
        Ad = int_0^dt k1'(dt - tau)           dtau
        Bd = int_0^dt k1'(dt - tau) * tau/dt  dtau
    in closed form from the step's own multipliers k0 = k0(dt), k1 = k1(dt)
    (``tables``, the output of ``propagator_arrays(dt, mu)``, built here if
    not given): Ad = k1, A = (1 - k0)/mu, Bd = A/dt and
    B = A - (A + k1 - dt*k0)/(mu*dt).  These cancel catastrophically as
    mu -> 0, so modes with mu*dt**2 below _SMALL_MU_DT2 (mu below it when
    dt > 1) take the phi-function series of :func:`_phi_weights` instead.
    """
    if dt <= 0:
        raise ValueError("dt must be positive")
    mu = np.asarray(mu, dtype=float)
    if tables is None:
        tables = propagator_arrays(dt, mu)
    k0, k1 = tables[0], tables[1]
    with np.errstate(divide="ignore", invalid="ignore"):
        A = (1.0 - k0) / mu
        B = A - (A + k1 - dt * k0) / (mu * dt)
    small = mu * (dt * dt) < _SMALL_MU_DT2 * max(1.0, dt * dt)
    if np.any(small):
        A[small], B[small] = _phi_weights(dt, mu[small])
    return A, B, k1, A / dt
