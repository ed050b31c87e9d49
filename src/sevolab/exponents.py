"""Admissibility conditions, regime classification and predicted decay exponents.

Everything in this module is plain arithmetic over the system tuple
(n, sigma1, sigma2, p, q, eps).  Inequalities are evaluated with exact
rational arithmetic (floats are dyadic rationals, so the conversion is
lossless) and a relative tolerance band of 1e-12 decides ties, so that
boundary cases such as p == 1 + 2*sigma2/n are classified deterministically.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum
from fractions import Fraction
from typing import Union

Number = Union[int, float, Fraction]

#: relative tolerance used to decide equality in boundary comparisons
REL_TOL = Fraction(1, 10**12)


class WrongRegimeError(ValueError):
    """Theoretical rates requested outside the existence regimes."""


class SigmaMismatchError(ValueError):
    """An operation requiring sigma1 == sigma2 was called with distinct orders."""


class InvalidRangeError(ValueError):
    """Interpolation exponent fell outside its admissible range."""


class NoSolutionError(ValueError):
    """No finite critical exponent exists for the requested parameters."""


def _frac(x: Number) -> Fraction:
    if isinstance(x, Fraction):
        return x
    return Fraction(x)


def _cmp(a: Fraction, b: Fraction) -> int:
    """Compare with a relative tolerance band: -1, 0 (tie) or +1."""
    diff = a - b
    scale = max(Fraction(1), abs(a), abs(b))
    if abs(diff) <= REL_TOL * scale:
        return 0
    return -1 if diff < 0 else 1


def _le(a: Fraction, b: Fraction) -> bool:
    return _cmp(a, b) <= 0


def _lt(a: Fraction, b: Fraction) -> bool:
    return _cmp(a, b) < 0


@dataclass(frozen=True)
class SystemParams:
    """The tuple (n, sigma1, sigma2, p, q) plus the slack eps.

    n is the space dimension, sigma1/sigma2 the fractional orders of the two
    equations, p/q the nonlinearity powers, and eps the small positive slack
    entering the loss-of-decay exponents.
    """

    n: int
    sigma1: float
    sigma2: float
    p: float
    q: float
    eps: float = 0.01

    def __post_init__(self):
        if int(self.n) != self.n or self.n < 1:
            raise ValueError(f"n must be a positive integer, got {self.n}")
        if not (1 <= self.sigma1 < math.inf and 1 <= self.sigma2 < math.inf):
            raise ValueError("sigma1 and sigma2 must be finite and >= 1")
        if not (1 < self.p < math.inf and 1 < self.q < math.inf):
            raise ValueError("p and q must be finite and > 1")
        if not 0 < self.eps < math.inf:
            raise ValueError("eps must be finite and positive")

    @property
    def sigma_min(self) -> float:
        return min(self.sigma1, self.sigma2)

    def equal_orders(self) -> bool:
        return _cmp(_frac(self.sigma1), _frac(self.sigma2)) == 0


@dataclass(frozen=True)
class ConditionReport:
    """One evaluated inequality: ``identifier`` with its two sides."""

    identifier: str
    holds: bool
    lhs: float
    rhs: float


class Regime(str, Enum):
    EXISTENCE_THM11 = "ExistenceThm11"
    EXISTENCE_THM12 = "ExistenceThm12"
    BLOWUP_THM13 = "BlowupThm13"
    UNCLASSIFIED = "Unclassified"


@dataclass(frozen=True)
class RegimeVerdict:
    regime: Regime
    report: tuple[ConditionReport, ...] = field(default_factory=tuple)

    @property
    def failing(self) -> tuple[ConditionReport, ...]:
        return tuple(r for r in self.report if not r.holds)


@dataclass(frozen=True)
class TheoreticalRates:
    """Predicted decay exponents: norms behave like (1+t)**rate.

    f1/f2/f3 belong to ||u||, |||D|^s1 u|| and ||u_t||; g1/g2/g3 to the
    v-side.  The half/one gaps f2 = f1 - 1/2, f3 = f1 - 1 are structural.
    """

    f1: float
    f2: float
    f3: float
    g1: float
    g2: float
    g3: float


@dataclass(frozen=True)
class GNExponent:
    theta: float


def _rec(identifier: str, holds: bool, lhs: Fraction | float, rhs: Fraction | float) -> ConditionReport:
    return ConditionReport(identifier, bool(holds), float(lhs), float(rhs))


def _family(tag: str, n: Fraction, sa: Fraction, sb: Fraction, a: Fraction,
            b: Fraction, names: tuple[str, str]) -> list[ConditionReport]:
    """The records of one theorem family: the first theorem's with orders
    (sa, sb) = (sigma1, sigma2) and powers (a, b) = (p, q) named ``names``,
    the second's with (sigma2, sigma1, q, p).  The GN block is sorted by
    identifier; its upper bounds n/(n - 2*sigma) all have n > 2*sigma.
    """
    two = Fraction(2)
    if _le(n, 2 * sb):
        branch, uppers = "A1", {}
    elif _le(n, 2 * sa):
        branch, uppers = "A2", {names[0]: sb}
    elif _le(n, 4 * sb):
        branch, uppers = "A3", {names[0]: sb, names[1]: sa}
    else:
        branch = None
    records = []
    if branch is None:
        records.append(_rec(f"GN{tag}.range", False, n, max(2 * sa, 4 * sb)))
    else:
        for name, value in sorted(zip(names, (a, b))):
            ident = f"GN{tag}{branch}.{name}"
            records.append(_rec(f"{ident}_lower", _le(two, value), value, two))
            if name in uppers:
                upper = n / (n - 2 * uppers[name])
                records.append(_rec(f"{ident}_upper", _le(value, upper), value, upper))

    exp = f"exponent{tag}"
    lhs = (1 + b) / ((b - 1) * (sb / sa - 1) + a * b - 1)
    bound_a, bound_b = 1 + 2 * sb / n, 1 + 2 * sa / n
    records += [
        _rec(f"{exp}A1", _lt(lhs, n / (2 * sb)), lhs, n / (2 * sb)),
        _rec(f"{exp}A2.{names[0]}", _le(a, bound_a), a, bound_a),
        _rec(f"{exp}A2.order", _le(bound_a, bound_b), bound_a, bound_b),
        _rec(f"{exp}A2.{names[1]}", _lt(bound_b, b), bound_b, b),
    ]
    return records


def check_conditions(params: SystemParams) -> list[ConditionReport]:
    """Evaluate every admissibility inequality of both theorem families.

    Returns one record per elementary inequality; compound conditions are
    split into suffixed sub-records (``.p_lower``, ``.order`` and so on).
    """
    n, s1, s2, p, q = (_frac(x) for x in (params.n, params.sigma1, params.sigma2,
                                          params.p, params.q))
    return (_family("11", n, s1, s2, p, q, ("p", "q"))
            + _family("12", n, s2, s1, q, p, ("q", "p")))


def blowup_condition(params: SystemParams) -> ConditionReport:
    """The blow-up inequality (1 + max(p,q))/(pq - 1) >= n/(2*sigma).

    Only meaningful for sigma1 == sigma2; the record is still computed with
    sigma = sigma1 otherwise so callers can inspect it.
    """
    n = _frac(params.n)
    s = _frac(params.sigma1)
    p = _frac(params.p)
    q = _frac(params.q)
    lhs = (1 + max(p, q)) / (p * q - 1)
    rhs = n / (2 * s)
    return _rec("optimal13.2", _cmp(lhs, rhs) >= 0, lhs, rhs)


def classify_regime(params: SystemParams) -> RegimeVerdict:
    """Place the parameter tuple into one of the proved regimes.

    Existence of the first kind requires sigma1 >= sigma2 and the whole
    first family of conditions; the second kind mirrors it.  Blow-up is
    reported only for equal orders, when the critical inequality holds.
    Anything else is Unclassified, with the full condition report attached.
    """
    records = check_conditions(params)
    s1 = _frac(params.sigma1)
    s2 = _frac(params.sigma2)

    fam11 = [r for r in records if r.identifier.startswith(("GN11", "exponent11"))]
    fam12 = [r for r in records if r.identifier.startswith(("GN12", "exponent12"))]

    report = list(records)
    equal = _cmp(s1, s2) == 0
    if equal:
        blow = blowup_condition(params)
        report.append(blow)
    else:
        blow = None

    if _cmp(s1, s2) >= 0 and all(r.holds for r in fam11):
        return RegimeVerdict(Regime.EXISTENCE_THM11, tuple(report))
    if _cmp(s2, s1) >= 0 and all(r.holds for r in fam12):
        return RegimeVerdict(Regime.EXISTENCE_THM12, tuple(report))
    if equal and blow is not None and blow.holds:
        return RegimeVerdict(Regime.BLOWUP_THM13, tuple(report))
    return RegimeVerdict(Regime.UNCLASSIFIED, tuple(report))


def critical_q(n: int, sigma: Number, p: Number) -> float:
    """Solve (1 + q)/(pq - 1) = n/(2*sigma) for q, assuming q >= p.

    Returns +inf when the solution exists but lies below p (every q >= p is
    then on the existence side of the curve).  Raises NoSolutionError when
    n*p <= 2*sigma, where the equation has no finite solution at all.
    """
    if p <= 1:
        raise ValueError("p must be > 1")
    nf = _frac(n)
    sf = _frac(sigma)
    pf = _frac(p)
    denom = nf * pf - 2 * sf
    if _cmp(denom, Fraction(0)) <= 0:
        raise NoSolutionError(
            f"no finite critical q for n={n}, sigma={sigma}, p={p}: "
            f"n*p - 2*sigma = {float(denom)} <= 0")
    q_star = (nf + 2 * sf) / denom
    if _cmp(q_star, pf) < 0:
        return math.inf
    return float(q_star)


def loss_of_decay(params: SystemParams, side: str) -> float:
    """Loss-of-decay exponent: eps(p, sigma2) on the u side, eps(q, sigma1) on v.

    The value is 1 - n*(p-1)/(2*sigma2) + eps (resp. with q, sigma1); at the
    integrability boundary p == 1 + 2*sigma2/n it equals eps exactly.
    """
    n = _frac(params.n)
    e = _frac(params.eps)
    if side == "u":
        val = 1 - n * (_frac(params.p) - 1) / (2 * _frac(params.sigma2)) + e
    elif side == "v":
        val = 1 - n * (_frac(params.q) - 1) / (2 * _frac(params.sigma1)) + e
    else:
        raise ValueError(f"side must be 'u' or 'v', got {side!r}")
    return float(val)


def theoretical_rates(params: SystemParams) -> TheoreticalRates:
    """Predicted (1+t) decay exponents for the six solution norms.

    In the first existence regime the u side carries the loss of decay; in
    the second the v side does.  Raises WrongRegimeError otherwise.
    """
    verdict = classify_regime(params)
    n = _frac(params.n)
    s1 = _frac(params.sigma1)
    s2 = _frac(params.sigma2)
    base_f = -n / (4 * s1)
    base_g = -n / (4 * s2)
    if verdict.regime is Regime.EXISTENCE_THM11:
        f1 = float(base_f) + loss_of_decay(params, "u")
        g1 = float(base_g)
    elif verdict.regime is Regime.EXISTENCE_THM12:
        f1 = float(base_f)
        g1 = float(base_g) + loss_of_decay(params, "v")
    else:
        raise WrongRegimeError(f"no theoretical rates in regime {verdict.regime.value}")
    return TheoreticalRates(f1, f1 - 0.5, f1 - 1.0, g1, g1 - 0.5, g1 - 1.0)


def gn_theta(p: Number, p0: Number, p1: Number, s: Number, sigma: Number, n: int) -> GNExponent:
    """Interpolation exponent of the fractional Gagliardo-Nirenberg inequality.

    theta = (1/p0 - 1/p + s/n) / (1/p0 - 1/p1 + sigma/n), admissible when
    s/sigma <= theta <= 1.  Raises InvalidRangeError outside that range.
    """
    if not (1 < p and 1 < p0 and 1 < p1):
        raise ValueError("p, p0, p1 must all be > 1")
    sf, sigf = _frac(s), _frac(sigma)
    if not (0 <= sf <= sigf):
        raise ValueError("need 0 <= s <= sigma")
    nf = _frac(n)
    theta = (1 / _frac(p0) - 1 / _frac(p) + sf / nf) / \
            (1 / _frac(p0) - 1 / _frac(p1) + sigf / nf)
    lo = sf / sigf
    if _cmp(theta, lo) < 0 or _cmp(theta, Fraction(1)) > 0:
        raise InvalidRangeError(
            f"theta={float(theta)} outside [{float(lo)}, 1]")
    return GNExponent(float(theta))


def gamma_exponents(params: SystemParams) -> tuple[float, float]:
    """Scaling exponents (gamma1, gamma2) of the blow-up functionals.

    With p' = p/(p-1), q' = q/(q-1):
        gamma1 = (-2s + (n+2s)/p')/q - 2s + (n+2s)/q'
        gamma2 = (-2s + (n+2s)/q')/p - 2s + (n+2s)/p'
    For q >= p, gamma2 <= 0 is equivalent to the blow-up inequality.
    Requires sigma1 == sigma2.
    """
    if not params.equal_orders():
        raise SigmaMismatchError(
            f"gamma exponents need sigma1 == sigma2, got {params.sigma1} != {params.sigma2}")
    n = _frac(params.n)
    s = _frac(params.sigma1)
    p = _frac(params.p)
    q = _frac(params.q)
    p_conj = p / (p - 1)
    q_conj = q / (q - 1)
    m = n + 2 * s
    gamma1 = (-2 * s + m / p_conj) / q - 2 * s + m / q_conj
    gamma2 = (-2 * s + m / q_conj) / p - 2 * s + m / p_conj
    return float(gamma1), float(gamma2)
