"""Grid-free L2-type norms of linear solutions on R^n.

By Plancherel the squared norm of a radial-data linear solution is a 1D
radial integral over frequency space,

    ||.||^2 = omega_{n-1} * int_0^inf |m(t, rho)|^2 rho^(n-1) drho,

with m built from the multipliers and the closed-form Gaussian transforms.
These values serve as ground truth both for the sharp linear decay rates
and for validating the periodic-box simulator.  Where m oscillates through
many periods inside the data's support (large sigma, moderate t), the
Fourier-weighted rule QAWO takes the oscillation (see linear_norm).
"""

from __future__ import annotations

import functools
import math
from enum import Enum
from typing import Callable, Optional, Sequence

from ._inputs import require
from .fitting import NormSeries
from .multipliers import _propagator_scalar
from .profiles import GaussianProfile, sphere_surface
from .quadutil import _accepted, adaptive_quad, quadpack


#: the split of the complex-root range starts at omega = _S1, past the seam;
#: it is taken for at least _MIN_PERIODS periods of cos(2*omega*t) up to the
#: data's support (below about 50 one call is as fast) while exp(-t) >
#: rel_tol**_DAMPED (the range can outweigh the whole norm by 1e5 and more)
_S1, _MIN_PERIODS, _DAMPED = 1.0, 64, 1.5


class NormKind(Enum):
    SOLUTION_L2 = "l2"
    HOMOGENEOUS_SIGMA = "dsigma"
    TIME_DERIVATIVE = "dt"


def _integrand(w0: Optional[GaussianProfile], w1: Optional[GaussianProfile],
               t: float, sigma: float, n: int, kind: NormKind) -> Callable[[float], float]:
    """rho -> |m(t, rho)|**2 * rho**(n-1), the radial integrand of the squared norm.

    Plain float arithmetic: QUADPACK calls it once per node, so the Gaussian
    transforms are taken apart into constants here and evaluated with
    math.exp, and the multipliers come from the scalar propagator.
    """
    a0, b0 = w0.hat_coefficients(n) if w0 is not None else (0.0, 0.0)
    a1, b1 = w1.hat_coefficients(n) if w1 is not None else (0.0, 0.0)
    two_sigma = 2.0 * sigma
    derivative = kind is NormKind.TIME_DERIVATIVE
    homogeneous = kind is NormKind.HOMOGENEOUS_SIGMA

    def integrand(rho: float) -> float:
        k0, k1, dk0, dk1 = _propagator_scalar(t, rho ** two_sigma)
        h0 = a0 * math.exp(b0 * rho * rho)
        h1 = a1 * math.exp(b1 * rho * rho)
        if derivative:
            m = dk0 * h0 + dk1 * h1
        else:
            m = k0 * h0 + k1 * h1
            if homogeneous:
                m *= rho**sigma
        return m * m * rho ** (n - 1)

    return integrand


def _amplitudes(w0: Optional[GaussianProfile], w1: Optional[GaussianProfile],
                sigma: float, n: int, kind: NormKind) -> Callable[[float], tuple]:
    """mu -> (alpha, beta) with m = exp(-t/2)*(alpha*cos(omega*t) + beta*sin(omega*t))
    for every t on the complex-root range mu > 1/4, omega = sqrt(mu - 1/4),
    the homogeneous norm's rho**sigma = sqrt(mu) included."""
    a0, b0 = w0.hat_coefficients(n) if w0 is not None else (0.0, 0.0)
    a1, b1 = w1.hat_coefficients(n) if w1 is not None else (0.0, 0.0)

    def amplitudes(mu: float) -> tuple[float, float]:
        omega = math.sqrt(mu - 0.25)
        rho2 = mu ** (1.0 / sigma)
        h0 = a0 * math.exp(b0 * rho2)
        h1 = a1 * math.exp(b1 * rho2)
        if kind is NormKind.TIME_DERIVATIVE:
            return h1, -(mu * h0 + 0.5 * h1) / omega
        scale = math.sqrt(mu) if kind is NormKind.HOMOGENEOUS_SIGMA else 1.0
        return scale * h0, scale * (0.5 * h0 + h1) / omega

    return amplitudes


def linear_norm(w0: Optional[GaussianProfile], w1: Optional[GaussianProfile],
                t: float, sigma: float, n: int, kind: NormKind,
                rel_tol: float = 1e-10) -> float:
    """Exact norm of the linear solution at time t, by radial quadrature.

    w0/w1 are the data profiles (None meaning zero).  kind selects the
    solution L2 norm, the homogeneous |D|^sigma norm, or the time-derivative
    norm.  Raises QuadratureFailure unless the error estimate is at most
    10*rel_tol of the squared integral (1e-9 at the default).  One QUADPACK
    call takes it, except where m oscillates through many periods: there,
    above omega = _S1, m**2 is a smooth mean, integrated with the range
    below, plus cos and sin(2*omega*t) parts on QAWO.
    """
    require(n, "n", 1, 3, "[]", integral=True)
    t = require(t, "t", 0.0, closed="[")
    require(sigma, "sigma", 0.0)
    require(rel_tol, "rel_tol", 0.0)
    if w0 is None and w1 is None:
        return 0.0

    widths = [p.width for p in (w0, w1) if p is not None]
    rho_max = 9.0 / min(widths)
    # breakpoints: the diffusion concentration scale and the branch seam
    rho_t = (1.0 + t) ** (-1.0 / (2.0 * sigma))
    seam = 0.25 ** (1.0 / (2.0 * sigma))
    pts = [rho_t, 5.0 * rho_t, seam]
    integrand = _integrand(w0, w1, t, sigma, n, kind)
    # the data's frequency support ends where the squared transforms
    # exp(-(width*rho)**2) fall below rel_tol**2; s_hi is omega there
    log_tol = -math.log(rel_tol)
    s_hi = math.sqrt(max((2.0 * log_tol / min(widths) ** 2) ** sigma - 0.25, 0.0))
    if not (t < _DAMPED * log_tol and t * (s_hi - _S1) > math.pi * _MIN_PERIODS):
        val = adaptive_quad(integrand, 0.0, rho_max, points=pts, rel_tol=rel_tol)
        return math.sqrt(sphere_surface(n) * max(val, 0.0))

    # above rho1, m**2 = exp(-t)*((alpha**2 + beta**2)/2 + (alpha**2 -
    # beta**2)/2*cos(2*omega*t) + alpha*beta*sin(2*omega*t)); in s = omega,
    # mu = s**2 + 1/4 and rho**(n-1)*drho/ds = rho**n*s/(sigma*mu)
    amplitudes = _amplitudes(w0, w1, sigma, n, kind)
    env = math.exp(-t)
    rho1 = (_S1 * _S1 + 0.25) ** (1.0 / (2.0 * sigma))

    def smooth(rho: float) -> float:
        if rho < rho1:
            return integrand(rho)
        alpha, beta = amplitudes(rho ** (2.0 * sigma))
        return 0.5 * env * (alpha * alpha + beta * beta) * rho ** (n - 1)

    @functools.lru_cache(maxsize=None)  # the sin part revisits the cos part's nodes
    def oscillating(s: float) -> tuple[float, float]:
        mu = s * s + 0.25
        alpha, beta = amplitudes(mu)
        scale = env * mu ** (n / (2.0 * sigma)) * s / (sigma * mu)
        return 0.5 * (alpha * alpha - beta * beta) * scale, alpha * beta * scale

    pieces = [quadpack(smooth, 0.0, rho_max, points=pts + [rho1], rel_tol=rel_tol)] + [
        quadpack(lambda s, i=i: oscillating(s)[i], _S1, s_hi, rel_tol=rel_tol,
                 weight=weight, wvar=2.0 * t) for i, weight in enumerate(("cos", "sin"))]
    val = _accepted(sum(v for v, _ in pieces), sum(e for _, e in pieces), rel_tol, 0.0)
    return math.sqrt(sphere_surface(n) * max(val, 0.0))


def decay_series(w0: Optional[GaussianProfile], w1: Optional[GaussianProfile],
                 sigma: float, n: int, kind: NormKind,
                 t_grid: Sequence[float]) -> NormSeries:
    """One linear_norm evaluation per grid time, packaged for fitting."""
    entries = [(float(t), linear_norm(w0, w1, t, sigma, n, kind)) for t in t_grid]
    return NormSeries(entries)
