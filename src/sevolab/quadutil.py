"""Thin wrapper around adaptive quadrature with an explicit failure mode."""

from __future__ import annotations

import math
import warnings

from scipy.integrate import IntegrationWarning, quad


class QuadratureFailure(RuntimeError):
    """Adaptive quadrature could not meet its tolerance within budget."""


def adaptive_quad(fn, a: float, b: float, *, points=None, rel_tol: float = 1e-10,
                  limit: int = 200, err_scale: float = 0.0) -> float:
    """Integrate fn on [a, b]; raise QuadratureFailure if the estimate is untrusted.

    ``points`` are interior breakpoints guiding the subdivision (silently
    clipped to the open interval).  QUADPACK's own convergence complaints
    are suppressed; acceptance is decided from the returned error estimate:
    below rel_tol relative to max(|value|, err_scale), the scale letting
    callers accept integrals that legitimately cancel to zero.  A value or
    error estimate that is not finite is never accepted.
    """
    pts = None
    if points is not None:
        pts = sorted(p for p in points if a < p < b)
        if not pts:
            pts = None
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", IntegrationWarning)
        val, err = quad(fn, a, b, points=pts, limit=limit,
                        epsabs=1e-300, epsrel=rel_tol)
    scale = max(abs(val), err_scale)
    if not (math.isfinite(val) and math.isfinite(err)) or \
            err > max(rel_tol * scale * 10.0, 1e-250):
        raise QuadratureFailure(
            f"quadrature error {err:.3e} too large for value {val:.6e}")
    return val
