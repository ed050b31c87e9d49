"""Grid-free L2-type norms of linear solutions on R^n.

By Plancherel the squared norm of a radial-data linear solution is a 1D
radial integral over frequency space,

    ||.||^2 = omega_{n-1} * int_0^inf |m(t, rho)|^2 rho^(n-1) drho,

with m built from the multipliers and the closed-form Gaussian transforms.
These values serve as ground truth both for the sharp linear decay rates
and for validating the periodic-box simulator.
"""

from __future__ import annotations

import math
from enum import Enum
from typing import Callable, Optional, Sequence

from .fitting import NormSeries
from .multipliers import _propagator_scalar
from .profiles import GaussianProfile, sphere_surface
from .quadutil import QuadratureFailure, adaptive_quad

__all__ = ["NormKind", "linear_norm", "decay_series", "QuadratureFailure"]


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


def linear_norm(w0: Optional[GaussianProfile], w1: Optional[GaussianProfile],
                t: float, sigma: float, n: int, kind: NormKind,
                rel_tol: float = 1e-10) -> float:
    """Exact norm of the linear solution at time t, by radial quadrature.

    w0/w1 are the data profiles (None meaning zero).  kind selects the
    solution L2 norm, the homogeneous |D|^sigma norm, or the time-derivative
    norm.  Raises QuadratureFailure if the adaptive scheme cannot certify
    1e-8 relative accuracy on the squared integral.
    """
    if n not in (1, 2, 3):
        raise ValueError("n must be 1, 2 or 3")
    if not 0 <= t < math.inf:
        raise ValueError("t must be finite and >= 0")
    if w0 is None and w1 is None:
        return 0.0

    widths = [p.width for p in (w0, w1) if p is not None]
    rho_max = 9.0 / min(widths)
    # breakpoints: the diffusion concentration scale and the branch seam
    rho_t = (1.0 + t) ** (-1.0 / (2.0 * sigma))
    seam = 0.25 ** (1.0 / (2.0 * sigma))
    pts = [rho_t, 5.0 * rho_t, seam]

    val = adaptive_quad(_integrand(w0, w1, t, sigma, n, kind), 0.0, rho_max,
                        points=pts, rel_tol=rel_tol)
    return math.sqrt(sphere_surface(n) * max(val, 0.0))


def decay_series(w0: Optional[GaussianProfile], w1: Optional[GaussianProfile],
                 sigma: float, n: int, kind: NormKind,
                 t_grid: Sequence[float]) -> NormSeries:
    """One linear_norm evaluation per grid time, packaged for fitting."""
    entries = [(float(t), linear_norm(w0, w1, float(t), sigma, n, kind))
               for t in t_grid]
    return NormSeries(entries, label=f"linear_{kind.value}",
                      meta={"sigma": sigma, "n": n, "kind": kind.value})
