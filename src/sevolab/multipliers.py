"""Exact Fourier multipliers of the damped linear flow.

On the frequency side the linear equation reduces, mode by mode, to

    w'' + w' + mu * w = 0,       mu = |xi|**(2*sigma),

whose solution map is encoded by two multipliers: k0 propagates the initial
value and k1 the initial velocity.  The discriminant d = 1 - 4*mu separates
real roots (d >= 0, the double root d = 0 included) from complex ones
(d < 0), and each root type has one closed form in real arithmetic:

    d >= 0:  sq = sqrt(d),  lam1 = -2*mu/(1 + sq),  e1 = exp(lam1*t)
             k1 = e1 * t * g(sq*t),   g(x) = -expm1(-x)/x,  g(0) = 1
             k0 = e1 - lam1*k1
    d <  0:  om = sqrt(-d)/2
             k1 = exp(-t/2) * t * sinc(om*t)
             k0 = exp(-t/2) * cos(om*t) + k1/2

The first is k1 = (exp(lam1*t) - exp(lam2*t))/sq with exp(lam1*t) taken
out, so it needs neither a switch between forms nor a small-argument
series: e1 <= 1 and g <= 1, so nothing overflows; lam1 is formed without
a difference and both terms of k0 are >= 0, so nothing cancels; and g(x)
and sin(x)/x are accurate down to the smallest x, so x = 0 is the one
point that needs a guard.  The time derivatives follow algebraically:
dk0 = -mu*k1 and dk1 = k0 - k1.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

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


def _symbol(xi_mag: float, sigma: float) -> float:
    """mu = |xi|**(2*sigma) for a finite |xi| >= 0 and a finite sigma > 0."""
    if not 0.0 <= xi_mag < math.inf:
        raise ValueError("xi_mag must be finite and >= 0")
    if not 0.0 < sigma < math.inf:
        raise ValueError("sigma must be finite and positive")
    return float(xi_mag) ** (2.0 * sigma)


def roots(xi_mag: float, sigma: float) -> CharacteristicRoots:
    """Characteristic roots lam_{1,2} = (-1 +- sqrt(1 - 4*|xi|**(2*sigma)))/2."""
    mu = _symbol(xi_mag, sigma)
    d = 1.0 - 4.0 * mu
    if d >= 0.0:
        sq = math.sqrt(d)
        lam1 = -2.0 * mu / (1.0 + sq)
        return CharacteristicRoots(complex(lam1), complex(-1.0 - lam1))
    om = math.sqrt(-d) / 2.0
    return CharacteristicRoots(complex(-0.5, om), complex(-0.5, -om))


def propagator_arrays(t: float, mu: np.ndarray) -> np.ndarray:
    """Vectorised multiplier tables (k0, k1, dk0, dk1) for mu = |xi|**(2*sigma).

    t is a finite scalar >= 0; mu an array of nonnegative symbol values.  The
    tables come stacked in one array of shape ``(4, *mu.shape)``.
    """
    if not 0.0 <= t < math.inf:
        raise ValueError("t must be finite and >= 0")
    mu = np.asarray(mu, dtype=float)
    k0, k1, dk0, dk1 = tables = np.empty((4, *mu.shape))
    d = 1.0 - 4.0 * mu
    real = d >= 0.0

    sq = np.sqrt(d[real])
    lam1 = -2.0 * mu[real] / (1.0 + sq)
    e1 = np.exp(lam1 * t)
    x = sq * t
    g = np.divide(-np.expm1(-x), x, out=np.ones_like(x), where=x != 0.0)
    k1r = e1 * t * g
    k1[real] = k1r
    k0[real] = e1 - lam1 * k1r

    cplx = ~real
    om = np.sqrt(-d[cplx]) / 2.0
    env = math.exp(-t / 2.0)
    k1c = env * t * np.sinc(om * t / math.pi)
    k1[cplx] = k1c
    k0[cplx] = env * np.cos(om * t) + 0.5 * k1c
    dk0[...], dk1[...] = -mu * k1, k0 - k1
    return tables


def _propagator_scalar(t: float, mu: float) -> tuple[float, float, float, float]:
    """Pure-float twin of :func:`propagator_arrays`, line for line, for the
    quadrature inner loops; tables built from it would cost over ten times more."""
    d = 1.0 - 4.0 * mu
    if d >= 0.0:
        sq = math.sqrt(d)
        lam1 = -2.0 * mu / (1.0 + sq)
        e1 = math.exp(lam1 * t)
        x = sq * t
        g = -math.expm1(-x) / x if x != 0.0 else 1.0
        k1 = e1 * t * g
        k0 = e1 - lam1 * k1
    else:
        om = math.sqrt(-d) / 2.0
        env = math.exp(-t / 2.0)
        x = om * t
        k1 = env * t * (math.sin(x) / x if x != 0.0 else 1.0)
        k0 = env * math.cos(x) + 0.5 * k1
    return k0, k1, -mu * k1, k0 - k1


def propagator(t: float, xi_mag: float, sigma: float) -> PropagatorValue:
    """Multiplier values at one (t, |xi|, sigma); exact for any finite t >= 0."""
    if not 0.0 <= t < math.inf:
        raise ValueError("t must be finite and >= 0")
    mu = _symbol(xi_mag, sigma)
    k0, k1, dk0, dk1 = _propagator_scalar(float(t), mu)
    return PropagatorValue(k0, k1, dk0, dk1)


def propagation_matrix(t: float, xi_mag: float, sigma: float) -> np.ndarray:
    """2x2 map (w, w_t)(0) -> (w, w_t)(t) for one mode."""
    v = propagator(t, xi_mag, sigma)
    return np.array([[v.k0, v.k1], [v.dk0, v.dk1]])


def ode_residual(t: float, xi_mag: float, sigma: float, h: float) -> float:
    """Centred-difference residual of the mode ODE; O(h**2) for the exact multiplier."""
    if not 0 < h <= t < math.inf:
        raise ValueError("need finite t >= h > 0")
    mu = _symbol(xi_mag, sigma)
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


def duhamel_weights(dt: float, mu: np.ndarray, tables=None) -> np.ndarray:
    """Exact inhomogeneous weights for one exponential step.

    Returns (A, B, Ad, Bd), stacked in one array of shape ``(4, *mu.shape)``, with
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
    if not 0.0 < dt < math.inf:
        raise ValueError("dt must be finite and positive")
    mu = np.asarray(mu, dtype=float)
    if tables is None:
        tables = propagator_arrays(dt, mu)
    k0, k1 = tables[0], tables[1]
    small = mu * (dt * dt) < _SMALL_MU_DT2 * max(1.0, dt * dt)
    series = _phi_weights(dt, mu[small])  # first: its work arrays are the largest
    A, B, Ad, Bd = weights = np.empty((4, *mu.shape))
    with np.errstate(divide="ignore", invalid="ignore"):  # one temporary at a time
        np.divide(1.0 - k0, mu, out=A)
        np.add(A, k1, out=B)
        B -= dt * k0
        B /= mu * dt
        np.subtract(A, B, out=B)
    A[small], B[small] = series
    Ad[...], Bd[...] = k1, A / dt
    return weights
