"""Test-function machinery for the blow-up analysis.

Japanese-bracket functions <x>**(-l) = (1+|x|^2)**(-l/2) are closed under
the negative Laplacian,

    -Lap <x>**(-l) = l*(n-l-2) <x>**(-l-2) + l*(l+2) <x>**(-l-4),

so integer powers of -Lap reduce to two-term recursions on (coefficient,
exponent) lists.  The fractional remainder (-Lap)**s with s in (0,1) is
evaluated through the normalised hypersingular integral

    (-Lap)**s f(x) = -C(n,s) * int_0^inf rho**(-1-2s) [S_f(rho) - w_{n-1} f(x)] drho,

where S_f is the spherical sum of f over the radius-rho sphere centred at x
(for n = 1 simply f(x+rho) + f(x-rho)) and C(n,s) is the constant making
the Fourier symbol |xi|**(2s).  A Bessel-K frequency-side evaluator provides
an independent cross-check in one dimension.

The hypersingular evaluator takes a float or an array of points.  Its two
quadrature ranges are one batch each on quadutil's Gauss-Kronrod engine, a
float being the batch of one: a round's cost there is numpy dispatch, not
nodes, so envelope_ratio's ten points took 3.5 ms as twenty integrals and
take 1.9 ms as two batches.

One cutoff eta = chi**lam, chi a fixed quintic transition exactly 1 below
1/2 and exactly 0 above 1, serves as the time cutoff at t/T and as the
compactly supported space cutoff of integer orders at |x|/R.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from fractions import Fraction
from functools import lru_cache
from typing import Callable, Sequence

import numpy as np

from ._inputs import dimension, require, require_reals
from .exponents import SystemParams, _cmp
from .profiles import GaussianProfile, sphere_surface
from .quadutil import _accepted, adaptive_quad, gauss_kronrod, gauss_kronrod_estimates


# --------------------------------------------------------------------------
# bracket combinations and the integer Laplacian recursion
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class BracketCombo:
    """Sum of Japanese-bracket terms: sum_i c_i <x>**(-l_i), all l_i > 0."""

    terms: tuple[tuple[float, float], ...]

    def value(self, radius, scale: float = 1.0):
        """The combo at radius (floats or arrays alike)."""
        base = 1.0 + (radius / scale) ** 2
        return sum(c * base ** (-ell / 2.0) for c, ell in self.terms)

    def neg_laplacian(self, n: int) -> "BracketCombo":
        """-Lap of the combo in R^n by the one-step recursion, zero terms dropped."""
        merged: dict[float, float] = {}
        for c, ell in self.terms:
            for cc, ee in ((c * ell * (n - ell - 2.0), ell + 2.0),
                           (c * ell * (ell + 2.0), ell + 4.0)):
                merged[ee] = merged.get(ee, 0.0) + cc
        terms = sorted(((c, e) for e, c in merged.items() if c != 0.0),
                       key=lambda item: item[1])
        return BracketCombo(tuple(terms))


def integer_laplacian_bracket(r: float, m: int, n: int) -> BracketCombo:
    """(-Lap)**m <x>**(-r) by iterating the one-step recursion m times."""
    combo = BracketCombo(((1.0, require(r, "r", 0.0)),))
    for _ in range(require(m, "m", 1, closed="[", integral=True)):
        combo = combo.neg_laplacian(n)
    return combo


# --------------------------------------------------------------------------
# hypersingular evaluation of the fractional part
# --------------------------------------------------------------------------

def frac_lap_normalization(n: int, s: float) -> float:
    """C(n, s) = 4**s Gamma(n/2+s) / (pi**(n/2) |Gamma(-s)|).

    Under this convention the Fourier symbol of (-Lap)**s is |xi|**(2s);
    the choice is validated by the Bessel-K cross-check.
    """
    s = require(s, "s", 0.0, 1.0)
    return (4.0**s * math.gamma(n / 2.0 + s)
            / (math.pi ** (n / 2.0) * abs(math.gamma(-s))))


@lru_cache(maxsize=2)
def _sphere_rule(n: int) -> tuple[np.ndarray, np.ndarray]:
    """(c, w): the 64-node Gauss-Legendre rule of the sphere integral in R^n,
    n = 2 or 3, about a radial point x >= 0,

        int_{S^{n-1}} f(|x + rho*omega|) domega = sum_j w_j f(sqrt(x**2 + rho**2 + 2*x*rho*c_j)),

    with the nodes in the polar angle theta in (0, pi) (c = cos theta) for
    n = 2 and in its cosine for n = 3.
    """
    nodes, weights = np.polynomial.legendre.leggauss(64)
    if n == 2:  # 2 * int_0^pi f dtheta
        return np.cos((nodes + 1.0) * (math.pi / 2.0)), weights * math.pi
    return nodes, weights * (2.0 * math.pi)  # 2*pi * int_{-1}^{1} f dmu


def _sphere_sum(combo: BracketCombo, n: int, scale: float) -> Callable:
    """(x, rho) -> int_{S^{n-1}} f(x + rho*omega) domega for the combo f at
    the given scale and radial points x >= 0 (for n = 1 simply
    f(x+rho) + f(x-rho)), on floats or same-shaped arrays of points and
    radii alike.

    For n = 2, 3 the 64-node rule of :func:`_sphere_rule` is evaluated on
    squared radii: one pow over the (radius, node) table per term and one
    weighted sum, with the coefficients folded into the weights.
    """
    if n == 1:
        return lambda x, rho: combo.value(x + rho, scale) + combo.value(x - rho, scale)
    cos, weights = _sphere_rule(n)
    terms = [(-ell / 2.0, c * weights) for c, ell in combo.terms]
    s2 = scale * scale

    def total(x, rho):
        x, rho = np.asarray(x)[..., None], np.asarray(rho, dtype=float)[..., None]
        base = (1.0 + (x * x + rho * rho) / s2) + (2.0 * x * rho / s2) * cos
        return sum(base**power @ w for power, w in terms)

    return total


def _sphere_taylor(combo: BracketCombo, n: int, scale: float) -> Callable:
    """x -> (t2, t4) with S_f(rho) - omega*f(x) = t2 rho**2 + t4 rho**4 + O(rho**6)
    for the combo f at the given scale, by Pizzetti's formula
    omega * (rho**2 Lap f / (2n) + rho**4 Lap**2 f / (8n(n+2)) + ...); the two
    Laplacian combos are built once, here."""
    omega = sphere_surface(n)
    lap = combo.neg_laplacian(n)
    lap2 = lap.neg_laplacian(n)
    return lambda x: (-omega * lap.value(x, scale) / (2.0 * n * scale**2),
                      omega * lap2.value(x, scale) / (8.0 * n * (n + 2) * scale**4))


def _split_point(combo: BracketCombo, taylor: Callable, s: float, x: float, n: int,
                 scale: float) -> tuple[float, float, float, float, float, float]:
    """The hypersingular split at the radial point x >= 0: (omega*f(x),
    h_sw, lo_cut, big, head, tail), with the quadrature ranges [h_sw, lo_cut]
    and [lo_cut, big] in rho, and the integrals below h_sw (head) and beyond
    big (tail) in closed form; ``taylor`` is the combo's :func:`_sphere_taylor`."""
    omega = sphere_surface(n)
    fx = combo.value(x, scale)
    taylor2, taylor4 = taylor(x)
    # Taylor error ~ rho**6 * Lap**3 f relative to rho**2 * Lap f: below h_sw
    # the closed-form head of t2*rho**2 + t4*rho**4 stands for the sphere sum
    h_sw = 1e-3 * scale * (1.0 + x / scale)
    lo_cut = max(scale, x / 8.0)
    big = max(200.0 * (x + scale), 1e3 * scale)
    head = (taylor2 * h_sw ** (2.0 - 2.0 * s) / (2.0 - 2.0 * s)
            + taylor4 * h_sw ** (4.0 - 2.0 * s) / (4.0 - 2.0 * s))
    # analytic tail: the -omega*f(x) part exactly, the bracket part to leading order
    tail = -omega * fx * big ** (-2.0 * s) / (2.0 * s)
    for c, ell in combo.terms:
        tail += (omega * c * scale**ell
                 * big ** (-ell - 2.0 * s) / (ell + 2.0 * s))
    return omega * fx, h_sw, lo_cut, big, head, tail


def fractional_laplacian_bracket(combo: BracketCombo, s: float, x, n: int,
                                 scale: float = 1.0, rel_tol: float = 1e-10):
    """(-Lap)**s of sum_i c_i <y/scale>**(-l_i) at the (radial) point x, a
    float, or at each point of an array of them (an array of values).

    Hypersingular quadrature split at the singularity.  Below a small radius
    h_sw the symmetrised difference is its Taylor form (second differences
    of O(1) values cancel catastrophically there), integrated against
    rho**(-1-2s) in closed form.  [h_sw, lo_cut] and [lo_cut, big] are
    adaptive in log(rho), which makes the decades of rho**(-2s) and of the
    power-law decay equal intervals, the latter with breakpoints at
    log(c*|x|), c = 1/2, 1, 2, 4.  Each range is one batch of
    :func:`gauss_kronrod_estimates` over all the points, whose array
    integrand takes the sphere sums of all of a round's nodes at once; a
    point's value is the one it has alone but for last bits.  The far tail
    is integrated in closed form from the bracket decay.  No step raises to
    a power of 1/(1-s), so orders near an integer are as stable as any.
    rel_tol governs both quadratures; far past the bracket scale the pieces
    cancel, so the achievable relative accuracy of the final value degrades
    with x.  Quadratures are judged point by point, the inner range before
    the middle one, and the first untrusted one raises its
    QuadratureFailure, as one call per point would.
    """
    n = dimension(n, "n")
    s = require(s, "s", 0.0, 1.0)
    xs = np.abs(require_reals(x, "x"))
    flat = xs.ravel().tolist()
    scale = require(scale, "scale", 0.0)
    taylor = _sphere_taylor(combo, n, scale)
    omega_fx, h_sw, lo_cut, big, head, tail = zip(
        *[_split_point(combo, taylor, s, z, n, scale) for z in flat])
    points, omega_fx = xs.ravel(), np.array(omega_fx)
    sphere = _sphere_sum(combo, n, scale)

    def in_log(v, index):
        """(S_f(rho) - omega*f(x)) * rho**(-2s) at rho = e**v, the integrand
        in rho times drho/dv, at each node's point."""
        return (sphere(points[index], np.exp(v)) - omega_fx[index]) * np.exp(-2.0 * s * v)

    log_cut = [math.log(c) for c in lo_cut]
    inner = gauss_kronrod_estimates(in_log, [math.log(h) for h in h_sw], log_cut,
                                    rel_tol=rel_tol)
    mid = gauss_kronrod_estimates(
        in_log, log_cut, [math.log(b) for b in big],
        points=[[math.log(c * z) for c in (0.5, 1, 2, 4)] if z else None for z in flat],
        rel_tol=rel_tol, limit=500)
    norm = frac_lap_normalization(n, s)
    out = [-norm * (h + _accepted(i_val, i_err, rel_tol, 0.0)
                    + _accepted(m_val, m_err, rel_tol, 0.0) + t)
           for h, t, i_val, i_err, m_val, m_err in zip(head, tail, *inner, *mid)]
    return np.array(out).reshape(xs.shape) if xs.ndim else float(out[0])


# --------------------------------------------------------------------------
# Fourier-side evaluator (independent cross-check, n = 1)
# --------------------------------------------------------------------------

def _combo_transform(combo: BracketCombo, scale: float) -> Callable:
    """xi -> the non-unitary 1D transform of the combo at the given scale, for
    xi >= 0, on a float or an array alike: each <y>**(-l), l > 1, gives
    coef * xi**nu * K_nu(xi) with nu = (l-1)/2, and below xi = 1e-8 the
    limit 2**(nu-1) Gamma(nu) of xi**nu * K_nu(xi) avoids the K_nu overflow.
    K_nu, testfn's one scipy call, is imported here, by the processes that use it."""
    from scipy.special import kv
    terms = []
    for c, ell in combo.terms:
        if ell <= 1.0:
            raise ValueError("bracket transform implemented for exponents > 1")
        nu = (ell - 1.0) / 2.0
        coef = math.sqrt(2.0 * math.pi) / (2.0 ** ((ell - 2.0) / 2.0) * math.gamma(ell / 2.0))
        terms.append((c * scale * coef, nu, 2.0 ** (nu - 1.0) * math.gamma(nu)))

    def fhat(xi):
        y = scale * np.asarray(xi, dtype=float)
        small = y < 1e-8
        y = np.maximum(y, 1e-8)
        return sum(np.where(small, a * limit, a * y**nu * kv(nu, y)) for a, nu, limit in terms)

    return fhat


def fractional_laplacian_fourier(combo: BracketCombo, s: float, x: float) -> float:
    """Frequency-side evaluation of (-Lap)**s for n = 1.

    Uses (-Lap)**s f(x) = (1/pi) * int_0^inf xi**(2s) fhat(xi) cos(x xi) dxi
    with the closed-form Bessel-K transform of each bracket term; completely
    independent of the hypersingular route.
    """
    s = require(s, "s", 0.0, 1.0)
    x = require(x, "x")
    fhat = _combo_transform(combo, 1.0)
    two_s = 2.0 * s

    def integrand(xi):
        return xi**two_s * fhat(xi) * np.cos(x * xi)

    # K_nu decays like exp(-xi); resolve each cosine oscillation up to the
    # cutoff 80.  The oscillatory integral may cancel to zero, so the error
    # is judged against the non-oscillatory envelope.
    envelope = gauss_kronrod(lambda xi: np.abs(xi**two_s * fhat(xi)),
                             0.0, 80.0, points=[1.0], rel_tol=1e-6)
    n_osc = 1 + int(abs(x) * 80.0 / (2.0 * math.pi))
    val = gauss_kronrod(integrand, 0.0, 80.0, points=[0.1, 1.0], rel_tol=1e-10,
                        limit=max(200, 30 * n_osc), err_scale=1e-2 * envelope)
    return val / math.pi


# --------------------------------------------------------------------------
# scaled test functions and the full (-Lap)**gamma evaluator
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class TestFunctionSpec:
    """Scaled bracket test function <x/R>**(-r) with Laplacian order gamma, split once
    as gamma = int_part + s: round(gamma) and 0 where the exponents' tie rule finds
    the two equal, else floor(gamma) and s in (0, 1)."""

    __test__ = False  # not a pytest class despite the name

    gamma: float
    r: float
    R: float
    int_part: int = field(init=False, repr=False)
    s: float = field(init=False, repr=False)

    def __post_init__(self):
        gamma = require(self.gamma, "gamma", 1.0, closed="[")
        whole, floor = round(gamma), math.floor(gamma)
        split = (whole, 0.0) if _cmp(gamma, whole) == 0 else (floor, gamma - floor)
        held = (gamma, require(self.r, "r", 0.0), require(self.R, "R", 0.0), *split)
        for name, value in zip(("gamma", "r", "R", "int_part", "s"), held):
            object.__setattr__(self, name, value)

    @classmethod
    def for_blowup(cls, params: SystemParams, R: float) -> "TestFunctionSpec":
        """The equation's spec: gamma = sigma, r = n + 2*theta, theta = sigma - [sigma] = s,
        with sigma the common order of ``params`` (WrongRegimeError for unequal orders)."""
        spec = cls(gamma=params.common_order(), r=params.n, R=R)
        return replace(spec, r=params.n + 2.0 * spec.s)


def fractional_laplacian_gamma(spec: TestFunctionSpec, x, n: int,
                               factored: bool = False,
                               rel_tol: float = 1e-10):
    """(-Lap)**gamma of <x/R>**(-r) at x: a float at a number, an array of
    values at a sequence or array of points (one batch per quadrature range).

    The integer part is the exact bracket recursion (its R-scaling is forced
    by the chain rule); the fractional remainder is evaluated directly on
    the R-scaled combo.  With factored=True the remainder is instead
    computed at x/R on the unit-scale combo and multiplied by R**(-2s);
    comparing both routes exercises the scaling identity nontrivially.
    """
    x = require_reals(x, "x")
    x = x if x.ndim else float(x)
    m = spec.int_part
    s = spec.s
    combo = integer_laplacian_bracket(spec.r, m, n)
    pref = spec.R ** (-2.0 * m)
    if s == 0.0:
        return pref * combo.value(abs(x), scale=spec.R)
    if factored:
        return (pref * spec.R ** (-2.0 * s)
                * fractional_laplacian_bracket(combo, s, x / spec.R, n,
                                               scale=1.0, rel_tol=rel_tol))
    return pref * fractional_laplacian_bracket(combo, s, x, n, scale=spec.R,
                                               rel_tol=rel_tol)


# --------------------------------------------------------------------------
# cutoffs in time and space
# --------------------------------------------------------------------------

def _chi(tau):
    """chi at t = 1/2 + tau for tau in [0, 1/2], on floats or arrays alike."""
    return 1.0 - tau * tau * tau * (80.0 - tau * (240.0 - 192.0 * tau))


def eta(x, lam: float):
    """The cutoff chi(x)**lam: 1 on [0,1/2], decreasing, 0 beyond 1.

    The time cutoff at x = t/T and the space cutoff at x = |y|/R; floats
    give a float, arrays an array.
    """
    lam = require(lam, "lam", 1.0, closed="[")
    chi = _chi(np.clip(require_reals(x, "x") - 0.5, 0.0, 0.5))
    out = np.maximum(chi, 0.0) ** lam  # chi rounds to about -1e-16 just below 1
    return out if out.shape else float(out)


def eta_derivs(t: float, lam: float) -> tuple[float, float, float]:
    """(eta, eta', eta'') at t in closed form; lam = 1 gives (chi, chi', chi'').

    chi is the C^2 quintic transition, exactly 1 on [0,1/2] and exactly 0
    on [1,inf).  On (1/2, 1), with tau = t - 1/2:
        chi = 1 - 80 tau^3 + 240 tau^4 - 192 tau^5,
    whose derivative is -960 tau^2 (1/2 - tau)^2 <= 0.
    """
    lam = require(lam, "lam", 1.0, closed="[")
    t = require(t, "t")
    if t <= 0.5:
        return 1.0, 0.0, 0.0
    tau = min(t, 1.0) - 0.5
    chi = _chi(tau)
    if chi <= 0.0:  # t >= 1, or chi rounded to <= 0 below it: chi**(lam-2) fails there
        return 0.0, 0.0, 0.0
    c1 = -960.0 * tau**2 * (0.5 - tau) ** 2
    c2 = -1920.0 * tau * (0.5 - tau) * (0.5 - 2.0 * tau)
    e = chi**lam
    e1 = lam * chi ** (lam - 1.0) * c1
    e2 = lam * (lam - 1.0) * chi ** (lam - 2.0) * c1 * c1 + lam * chi ** (lam - 1.0) * c2
    return e, e1, e2


def eta_ratio_sup(lam: float, kappa: float) -> float:
    """sup over [1/2, 1] of eta**(-k'/k) (|eta'|**k' + |eta''|**k').

    Finite by construction whenever lam >= 2*k' (k' the conjugate of kappa).
    """
    kappa = require(kappa, "kappa", 1.0)
    kp = kappa / (kappa - 1.0)
    worst = 0.0
    for t in np.linspace(0.5, 1.0, 20001)[:-1]:
        e, e1, e2 = eta_derivs(t, lam)
        if e == 0.0:
            continue
        worst = max(worst, e ** (-kp / kappa) * (abs(e1) ** kp + abs(e2) ** kp))
    return worst


def fd_neg_laplacian(fn: Callable[[float], float], x: float, n: int,
                     m: int = 1, h: float = 1e-2) -> float:
    """(-Lap)**m of a radial profile by nested 4th-order centred differences
    of step h, in R^n for n = 1, 2, 3; m = 0 gives fn(x).

    fn maps a (possibly negative) radial coordinate to the profile value;
    used as the independent oracle for the bracket recursion and for the
    integer-order cutoff.
    """
    n = dimension(n, "n")
    m = require(m, "m", 0, closed="[", integral=True)
    h = require(h, "h", 0.0)
    x = require(x, "x")

    def lap_once(g: Callable[[float], float]) -> Callable[[float], float]:
        def out(y: float) -> float:
            f2 = (-g(y + 2 * h) + 16 * g(y + h) - 30 * g(y) + 16 * g(y - h)
                  - g(y - 2 * h)) / (12 * h * h)
            if n == 1:
                return -f2
            f1 = (-g(y + 2 * h) + 8 * g(y + h) - 8 * g(y - h) + g(y - 2 * h)) / (12 * h)
            if abs(y) < 1e-12:
                return -(n * f2)
            return -(f2 + (n - 1) * f1 / y)
        return out

    g = fn
    for _ in range(m):
        g = lap_once(g)
    return g(x)


# --------------------------------------------------------------------------
# decay-envelope bounds and the duality pairing check
# --------------------------------------------------------------------------

def envelope_ratio(gamma: float, r: float, n: int,
                   x_samples: Sequence[float]) -> tuple[str, float]:
    """Max ratio of |(-Lap)**gamma <x>**(-r)| to its decay envelope.

    The envelope depends on how r + 2*[gamma] compares with n by the exponents'
    tie rule: below n it is <x>**(-r-2*gamma); at n it gains a log factor on
    top of <x>**(-n-2s); above n it is <x>**(-n-2s).  Returns (case label, bound).
    """
    spec = TestFunctionSpec(gamma=gamma, r=r, R=1.0)
    gamma, r, s = spec.gamma, spec.r, spec.s
    if s == 0.0:
        raise ValueError("the envelope bound concerns fractional gamma")
    key = Fraction(r) + 2 * spec.int_part  # exact, as the tie rule compares
    n = dimension(n, "n")
    case = {-1: "below", 0: "log", 1: "above"}[_cmp(key, n)]
    xs = require_reals(x_samples, "x_samples")
    # bound-constant reporting; the far tail does not need tight quads
    vals = np.abs(fractional_laplacian_gamma(spec, xs, n, rel_tol=1e-6))
    env = np.sqrt(1.0 + xs * xs) ** -(r + 2.0 * gamma if case == "below" else n + 2.0 * s)
    if case == "log":
        env *= np.log(math.e + np.abs(xs))
    return case, float(np.max(vals / env, initial=0.0))


def plancherel_pairing(spec: TestFunctionSpec, g: GaussianProfile) -> tuple[float, float]:
    """Both sides of int psi_R (-Lap)**gamma g = int ((-Lap)**gamma psi_R) g, n = 1,
    with gamma = ``spec.gamma``.

    The left side is computed on the frequency side from closed-form
    transforms, the right side in physical space through the hypersingular
    evaluator; the two routes share no code.
    """
    R = spec.R
    psi_transform = _combo_transform(BracketCombo(((1.0, spec.r),)), R)
    a, b = g.hat_coefficients(1)

    def lhs_integrand(xi):
        psi_hat = psi_transform(xi) / math.sqrt(2.0 * math.pi)
        return psi_hat * xi ** (2.0 * spec.gamma) * (a * np.exp(b * xi * xi))

    lhs = 2.0 * gauss_kronrod(lhs_integrand, 0.0, 80.0 / min(R, 1.0) + 10.0 / g.width,
                              points=[0.5 / R, 2.0 / R], rel_tol=1e-9)

    def rhs_integrand(x: float) -> float:
        return fractional_laplacian_gamma(spec, x, 1) * float(g.value(x))

    rhs = 2.0 * adaptive_quad(rhs_integrand, 0.0, 9.0 * g.width,
                              points=[g.width, 3.0 * g.width], rel_tol=1e-7)
    return lhs, rhs


# --------------------------------------------------------------------------
# blow-up functionals on simulation output
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class FunctionalValues:
    I_R: float
    J_R: float
    I_R_t: float
    J_R_t: float


class Functionals:
    """Run observer streaming the blow-up functionals I_R, J_R (and their
    late-window variants) of one or more test-function specs.

    I_R integrates |v|**p and J_R |u|**q against the space cutoff and the
    time cutoff eta over [0, R**(2*sigma)].  Called as ``observer(t, state)``
    at each of its ``times``, it keeps only t and, per spec, the integrals of
    |v|**p and |u|**q against the cutoff: sums over the corner samples, each
    weighted by ``grid.sample_weight``.  :meth:`values` integrates them in time
    by the trapezoid rule, the late-window variants over the window's second half.
    sigma is the common order of ``params`` (WrongRegimeError for unequal orders);
    for an integer order the compactly supported cutoff is used, otherwise the bracket <x/R>**(-r).
    """

    def __init__(self, grid, params: SystemParams,
                 specs: Sequence[TestFunctionSpec], times: Sequence[float]):
        self.params = params
        self.specs = tuple(specs)
        self.times = sorted(require(t, "times") for t in times)
        self._lam = 2.0 * max(params.p / (params.p - 1.0), params.q / (params.q - 1.0))
        radius = grid.radius()
        integer = TestFunctionSpec.for_blowup(params, 1.0).s == 0.0
        cutoffs = [eta(radius / spec.R, self._lam) if integer
                   else (1.0 + (radius / spec.R) ** 2) ** (-spec.r / 2.0)
                   for spec in self.specs]
        #: (spec, *corner_shape) cutoffs times the volume a sample stands for
        self._weights = np.stack(cutoffs) * grid.sample_weight
        #: per observed time: t, then the |v|**p sum of each spec, then the |u|**q ones
        self._rows: list[list[float]] = []

    def __call__(self, t: float, state) -> None:
        u, v = np.abs(state.grid.to_physical(state.y[0]))
        self._rows.append([t, *np.tensordot(self._weights, v**self.params.p, u.ndim),
                           *np.tensordot(self._weights, u**self.params.q, u.ndim)])

    def values(self) -> tuple[FunctionalValues, ...]:
        """The functionals of each spec, in order; ValueError when the
        observed times leave a gap over 10% of a spec's window, as a run that
        stops before the window's end does."""
        k = len(self.specs)
        rows = np.array(self._rows).reshape(-1, 1 + 2 * k)
        out = []
        for spec, i_all, j_all in zip(self.specs, rows[:, 1:k + 1].T, rows[:, k + 1:].T):
            T = spec.R ** (2.0 * self.params.common_order())
            kept = rows[:, 0] <= T * (1.0 + 1e-9)
            t_arr = rows[kept, 0]
            gaps = np.diff(np.concatenate([[0.0], t_arr, [T]]))
            if np.max(gaps) > 0.1 * T + 1e-12:
                raise ValueError(
                    f"observed-time gap {np.max(gaps):.3g} exceeds 10% of window {T:.3g}")
            eta_vals = eta(t_arr / T, self._lam)
            i_vals, j_vals = i_all[kept] * eta_vals, j_all[kept] * eta_vals
            late = t_arr >= T / 2.0 - 1e-12
            out.append(FunctionalValues(*(
                float(np.trapezoid(vals[window], t_arr[window]))
                for window in (slice(None), late) for vals in (i_vals, j_vals))))
        return tuple(out)
