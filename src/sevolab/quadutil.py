"""Adaptive quadrature with an explicit failure mode, on two engines.

``adaptive_quad`` wraps QUADPACK, which calls the integrand once per node,
for closures over floats: the oracle's integrand (about 1 us a node) and
integrands that are quadratures themselves; ``quadpack`` gives its value
and error estimate unjudged, and QAWO for a cos or sin weight, to a caller
that sums pieces (the oracle's oscillatory split).
``gauss_kronrod_estimates`` runs QUADPACK's 21-point rule on a batch of
integrals, each with its own interval and breakpoints under one limit and
one tolerance, and evaluates one round of bisections of every unfinished
integral in one call of an array integrand; it serves arithmetic on
arrays (``testfn``'s sphere sums and Bessel-K transforms), whose cost per
call is numpy dispatch, not nodes.  That is also why it takes batches: the
ten points of an envelope bound took 3.5 ms as twenty integrals one at a
time and 1.9 ms as two batches of ten.  ``gauss_kronrod`` is the batch of one, at the cost
of the one-integral loop it replaced (within 3 % over the bench catalogue).
All accept by one rule.
QUADPACK's module, scipy.integrate, is imported on the first ``quadpack``
call: its import tree (about 0.3 s) is paid only by processes that integrate.
"""

from __future__ import annotations

import functools
import math
import warnings

import numpy as np

from ._inputs import require


class QuadratureFailure(RuntimeError):
    """Adaptive quadrature could not meet its tolerance within budget."""


def _breakpoints(points, a: float, b: float) -> list:
    """The breakpoints inside the open interval (a, b), sorted."""
    return sorted(p for p in points or () if a < p < b)


def _accepted(val: float, err: float, rel_tol: float, err_scale: float) -> float:
    """val, unless its error estimate exceeds 10*rel_tol*max(|val|, err_scale)
    or either is not finite: then QuadratureFailure."""
    scale = max(abs(val), err_scale)
    if not (math.isfinite(val) and math.isfinite(err)) or \
            err > max(rel_tol * scale * 10.0, 1e-250):
        raise QuadratureFailure(
            f"quadrature error {err:.3e} too large for value {val:.6e}")
    return val


@functools.cache
def _integrate():
    """scipy.integrate, imported on the first call and cached after it."""
    import scipy.integrate
    return scipy.integrate


def quadpack(fn, a: float, b: float, *, points=None, rel_tol: float = 1e-10,
             weight=None, wvar=None) -> tuple[float, float]:
    """QUADPACK's value and error estimate of fn on [a, b] in at most 200
    intervals, its warnings suppressed.  ``weight`` "cos"/"sin" integrates
    fn(x)*cos/sin(wvar*x) on QAWO, whose modified Chebyshev moments take the
    oscillation exactly."""
    rel_tol = require(rel_tol, "rel_tol", 0.0)
    integrate = _integrate()
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", integrate.IntegrationWarning)
        return integrate.quad(fn, a, b, points=_breakpoints(points, a, b) or None,
                              limit=200, epsabs=1e-300, epsrel=rel_tol,
                              weight=weight, wvar=wvar)[:2]


def adaptive_quad(fn, a: float, b: float, *, points=None, rel_tol: float = 1e-10) -> float:
    """Integrate fn on [a, b]; raise QuadratureFailure if the estimate is untrusted.

    ``points`` are interior breakpoints guiding the subdivision (silently
    clipped to the open interval).  QUADPACK's own convergence complaints
    are suppressed; acceptance is decided from the returned error estimate:
    below rel_tol relative to |value|.  A value or error estimate that is
    not finite is never accepted.
    """
    val, err = quadpack(fn, a, b, points=points, rel_tol=rel_tol)
    return _accepted(val, err, rel_tol, 0.0)


#: QUADPACK's qk21: Kronrod nodes in [0, 1), their weights, and the 10-point
#: Gauss weights (0 on the nodes that are not Gauss nodes)
_XK = np.array([0.9956571630258081, 0.9739065285171717, 0.9301574913557082, 0.8650633666889845,
                0.7808177265864169, 0.6794095682990244, 0.5627571346686047, 0.4333953941292472,
                0.2943928627014602, 0.14887433898163122, 0.0])
_WK = np.array([0.011694638867371874, 0.032558162307964725, 0.054755896574351995,
                0.07503967481091996, 0.0931254545836976, 0.10938715880229764, 0.12349197626206584,
                0.13470921731147334, 0.14277593857706009, 0.14773910490133849, 0.1494455540029169])
_WG = np.array([0.0, 0.06667134430868814, 0.0, 0.1494513491505806, 0.0, 0.21908636251598204,
                0.0, 0.26926671930999635, 0.0, 0.29552422471475287, 0.0])
_NODES = np.concatenate([-_XK, _XK[-2::-1]])
_KRONROD, _GAUSS = (np.concatenate([w, w[-2::-1]]) for w in (_WK, _WG))
_EPS = np.finfo(float).eps
#: the rounding floor 50*eps*resabs, and the resabs below which it is not taken
_FLOOR = 50.0 * _EPS
_FLOOR_MIN = np.finfo(float).tiny / _FLOOR


def _panels(fn, lo: np.ndarray, hi: np.ndarray, index: np.ndarray) -> np.ndarray:
    """Rows lo, hi, integral, error estimate and its rounding floor of fn on
    each [lo_i, hi_i]: QUADPACK's qk21 on every interval from one call of fn,
    which gets the nodes and each node's integral index (``index``).
    Bisection cannot shrink an error at its floor, 50*eps*int |fn|."""
    half = 0.5 * (hi - lo)
    abs_half = np.abs(half)
    nodes = 0.5 * (lo + hi)[:, None] + half[:, None] * _NODES
    f = np.asarray(fn(nodes.ravel(), index), dtype=float).reshape(nodes.shape)
    resk = f @ _KRONROD
    resabs = np.abs(f) @ _KRONROD * abs_half
    resasc = np.abs(f - 0.5 * resk[:, None]) @ _KRONROD * abs_half
    err = np.abs((resk - f @ _GAUSS) * half)
    err = np.where((resasc != 0.0) & (err != 0.0),
                   resasc * np.minimum(1.0, (200.0 * err / resasc) ** 1.5), err)
    floor = _FLOOR * resabs
    err = np.where(resabs > _FLOOR_MIN, np.maximum(floor, err), err)
    return np.array([lo, hi, resk * half, err, floor])


def gauss_kronrod_estimates(fn, a, b, *, points=None, rel_tol: float = 1e-10,
                            limit: int = 200) -> tuple[np.ndarray, np.ndarray]:
    """The value and error estimate of each of a batch of integrals, unjudged.

    Integral i runs over [a[i], b[i]] with the breakpoints points[i] (None
    or a sequence, clipped as adaptive_quad clips them); ``points`` None
    gives none to any.  One rel_tol and one limit hold for the whole batch.
    fn maps a 1-D array of nodes and the same-shaped array of their
    integral indices to the integrand values.  Each round, for each
    unfinished integral, picks the intervals of largest error that together
    cover the excess of its summed error over rel_tol*|sum|, and bisects
    them all in one call of fn; an integral is finished when there is no
    excess, or ``limit`` intervals, or only errors at their rounding floor.
    There is no extrapolation.  An integral's intervals, sums and choices
    are those it would have alone; only the rows of the shared node table
    move, which can change its last bit.
    """
    k = len(a)
    points = points or (None,) * k
    if not len(b) == len(points) == k:
        raise ValueError("a batch needs one b and one points entry per integral")
    rel_tol = require(rel_tol, "rel_tol", 0.0)
    limit = require(limit, "limit", 1, closed="[", integral=True)
    edges = [[lo, *_breakpoints(pts, lo, hi), hi] for lo, hi, pts in zip(a, b, points)]
    #: the intervals to integrate this round, and the integrals they belong to
    #: with their counts
    todo_lo = np.array([x for e in edges for x in e[:-1]], dtype=float)
    todo_hi = np.array([x for e in edges for x in e[1:]], dtype=float)
    todo = [(i, len(e) - 1) for i, e in enumerate(edges)]
    kept = [np.empty((5, 0))] * k
    values, errors = [0.0] * k, [0.0] * k
    with np.errstate(all="ignore"):
        while todo:
            index, end = np.empty(todo_lo.size * _NODES.size, dtype=np.intp), 0
            for i, count in todo:
                index[end:end + count * _NODES.size] = i
                end += count * _NODES.size
            new = _panels(fn, todo_lo, todo_hi, index)
            lo_parts, hi_parts, later, end = [], [], [], 0
            for i, count in todo:
                panels = np.concatenate([kept[i], new[:, end:end + count]], axis=1)
                end += count
                lo, hi, val, err, floor = panels
                total, total_err = float(val.sum()), float(err.sum())
                values[i], errors[i] = total, total_err
                excess = total_err - rel_tol * abs(total)
                reducible = (err > floor).nonzero()[0]
                if not (excess > 0.0 and math.isfinite(total) and reducible.size
                        and lo.size < limit):
                    continue
                order = reducible[err[reducible].argsort()[::-1]]
                count = int(err[order].cumsum().searchsorted(excess)) + 1
                split = order[:min(count, limit - lo.size)]
                keep = np.ones(lo.size, dtype=bool)
                keep[split] = False
                kept[i] = panels[:, keep]
                left, right = lo[split], hi[split]
                mid = 0.5 * (left + right)
                lo_parts += [left, mid]
                hi_parts += [mid, right]
                later.append((i, 2 * split.size))
            if later:
                todo_lo, todo_hi = np.concatenate(lo_parts), np.concatenate(hi_parts)
            todo = later
    return np.array(values), np.array(errors)


def gauss_kronrod(fn, a: float, b: float, *, points=None, rel_tol: float = 1e-10,
                  limit: int = 200, err_scale: float = 0.0) -> float:
    """Integrate the array integrand fn on [a, b]; raise QuadratureFailure if
    the estimate is untrusted.

    fn maps a 1-D array of nodes to its values.  The batch of one of
    gauss_kronrod_estimates: each round bisects, in one call of fn, the
    intervals of largest error that together cover the excess of the summed
    error over rel_tol*|sum|, in at most ``limit`` intervals.  The estimate
    is accepted below rel_tol relative to max(|value|, err_scale), the scale
    letting callers accept integrals that legitimately cancel to zero; a
    value or error estimate that is not finite never is.
    """
    (val,), (err,) = gauss_kronrod_estimates(lambda x, _: fn(x), (a,), (b,), points=(points,),
                                             rel_tol=rel_tol, limit=limit)
    return float(_accepted(val, err, rel_tol, err_scale))
