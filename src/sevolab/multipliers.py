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

import numpy as np

from ._inputs import require

#: mu*dt**2 below this (mu, when dt > 1) takes the series branch of
#: duhamel_weights; above it the closed forms lose at most ~3e-13 relative
_SMALL_MU_DT2 = 0.1
#: most terms of the weight series, exact to rounding while |lam*dt| <= _SERIES_DT_MAX
_SERIES_TERMS = 30
_SERIES_DT_MAX = 2.0
#: the series looks at its sums once a term bound is below this, a quarter of the
#: spacing of 1: its |A| and |B| are below 1, so no larger bound can stop it
_STOP_GATE = np.spacing(1.0) / 4.0


def _symbol(xi_mag: float, sigma: float) -> float:
    """mu = |xi|**(2*sigma) for a finite |xi| >= 0 and a finite sigma > 0."""
    xi_mag = require(xi_mag, "xi_mag", 0.0, closed="[")
    return xi_mag ** (2.0 * require(sigma, "sigma", 0.0))


def propagator_arrays(t: float, mu: np.ndarray) -> np.ndarray:
    """Vectorised multiplier tables (k0, k1, dk0, dk1) for mu = |xi|**(2*sigma).

    t is a finite scalar >= 0; mu an array of nonnegative symbol values.  The
    tables come stacked in one array of shape ``(4, *mu.shape)``.
    """
    require(t, "t", 0.0, closed="[")
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


def propagator(t: float, xi_mag: float, sigma: float) -> np.ndarray:
    """The 2x2 map (w, w_t)(0) -> (w, w_t)(t) of one mode, [[k0, k1], [dk0, dk1]];
    exact for any finite t >= 0."""
    t = require(t, "t", 0.0, closed="[")
    return np.reshape(_propagator_scalar(t, _symbol(xi_mag, sigma)), (2, 2))


def ode_residual(t: float, xi_mag: float, sigma: float, h: float) -> float:
    """Centred-difference residual of the mode ODE; O(h**2) for the exact multiplier."""
    require(t, "t", require(h, "h", 0.0), closed="[")
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

    The sums stop after M terms, at most _SERIES_TERMS, with the bits of all
    _SERIES_TERMS.  As h_m = sum_i x1**i * x2**(m-i) and each |x| is at most
    rho = dt*max(1, sqrt(max mu)), |h_m| <= (m+1)*rho**m; doubled, this also
    bounds the computed h_m, whose rounding is far smaller.  The series runs
    on mu*dt**2 < _SMALL_MU_DT2*max(1, dt**2) and dt <= 2, so rho <= 2, and
    there 2*(m+1)*rho**m/(m+2)! and /(m+3)! fall with m from m = 1 on.  The
    sums stop where that bound at m = M, the next term's, is below a quarter
    of the spacing of the smallest |A| of the partial sums (|B| for B): an
    addition that small rounds back to the sum it is added to, so no
    omitted one would change a bit.
    """
    if dt > _SERIES_DT_MAX:
        half = dt / 2.0
        A, B = _phi_weights(half, mu)
        k0, k1, _, _ = propagator_arrays(half, mu)
        return A * (1.0 + k0) + k1 * k1, 0.5 * (k0 * B + k1 * A / half + A + B)
    prod = mu * (dt * dt)
    rho = dt * max(1.0, math.sqrt(np.max(mu, initial=0.0)))
    h_prev = np.zeros_like(mu)
    h = np.ones_like(mu)
    A = np.zeros_like(mu)
    B = np.zeros_like(mu)
    fact = 2.0
    for m in range(_SERIES_TERMS):
        A += h / fact
        fact *= m + 3
        B += h / fact
        bound = 2.0 * (m + 2) * rho ** (m + 1) / fact  # of A's later terms; B's is / (m + 4)
        if bound < _STOP_GATE and bound < np.spacing(np.abs(A).min(initial=1.0)) / 4.0 \
                and bound / (m + 4) < np.spacing(np.abs(B).min(initial=1.0)) / 4.0:
            break
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
    require(dt, "dt", 0.0)
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
