"""Admissibility conditions, regime classification and predicted decay exponents.

Everything in this module is plain arithmetic over the system tuple
(n, sigma1, sigma2, p, q, eps).  Inequalities are evaluated with exact
rational arithmetic (floats are dyadic rationals, so the conversion is
lossless) and a relative tolerance band of 1e-12 decides ties, so that
boundary cases such as p == 1 + 2*sigma2/n are classified deterministically.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from fractions import Fraction

from ._inputs import require

#: relative tolerance used to decide equality in boundary comparisons
REL_TOL = Fraction(1, 10**12)


class WrongRegimeError(ValueError):
    """Theoretical rates requested outside the existence regimes."""


def _cmp(a: Fraction, b: Fraction) -> int:
    """Compare with a relative tolerance band: -1, 0 (tie) or +1."""
    diff = a - b
    scale = max(Fraction(1), abs(a), abs(b))
    if abs(diff) <= REL_TOL * scale:
        return 0
    return -1 if diff < 0 else 1


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
        require(self.n, "n", 1, closed="[", integral=True)
        for name, lo, closed in (("sigma1", 1.0, "["), ("sigma2", 1.0, "["), ("p", 1.0, ""),
                                 ("q", 1.0, ""), ("eps", 0.0, "")):
            require(getattr(self, name), name, lo, closed=closed)

    @property
    def sigma_min(self) -> float:
        return min(self.sigma1, self.sigma2)

    def equal_orders(self) -> bool:
        return _cmp(Fraction(self.sigma1), Fraction(self.sigma2)) == 0


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
    if _cmp(n, 2 * sb) <= 0:
        branch, uppers = "A1", {}
    elif _cmp(n, 2 * sa) <= 0:
        branch, uppers = "A2", {names[0]: sb}
    elif _cmp(n, 4 * sb) <= 0:
        branch, uppers = "A3", {names[0]: sb, names[1]: sa}
    else:
        branch = None
    records = []
    if branch is None:
        records.append(_rec(f"GN{tag}.range", False, n, max(2 * sa, 4 * sb)))
    else:
        for name, value in sorted(zip(names, (a, b))):
            ident = f"GN{tag}{branch}.{name}"
            records.append(_rec(f"{ident}_lower", _cmp(two, value) <= 0, value, two))
            if name in uppers:
                upper = n / (n - 2 * uppers[name])
                records.append(_rec(f"{ident}_upper", _cmp(value, upper) <= 0, value, upper))

    exp = f"exponent{tag}"
    lhs = (1 + b) / ((b - 1) * (sb / sa - 1) + a * b - 1)
    bound_a, bound_b = 1 + 2 * sb / n, 1 + 2 * sa / n
    records += [
        _rec(f"{exp}A1", _cmp(lhs, n / (2 * sb)) < 0, lhs, n / (2 * sb)),
        _rec(f"{exp}A2.{names[0]}", _cmp(a, bound_a) <= 0, a, bound_a),
        _rec(f"{exp}A2.order", _cmp(bound_a, bound_b) <= 0, bound_a, bound_b),
        _rec(f"{exp}A2.{names[1]}", _cmp(bound_b, b) < 0, bound_b, b),
    ]
    return records


def _families(params: SystemParams) -> tuple[list[ConditionReport], list[ConditionReport]]:
    """The records of the Theorem 1.1 family and of the Theorem 1.2 family,
    one per elementary inequality: a compound condition is split into
    suffixed sub-records (``.p_lower``, ``.order`` and so on)."""
    n, s1, s2, p, q = map(Fraction, (params.n, params.sigma1, params.sigma2, params.p, params.q))
    return (_family("11", n, s1, s2, p, q, ("p", "q")),
            _family("12", n, s2, s1, q, p, ("q", "p")))


def blowup_condition(params: SystemParams) -> ConditionReport:
    """The blow-up inequality (1 + max(p,q))/(pq - 1) >= n/(2*sigma).

    Only meaningful for sigma1 == sigma2; the record is still computed with
    sigma = sigma1 otherwise so callers can inspect it.
    """
    n, s, p, q = map(Fraction, (params.n, params.sigma1, params.p, params.q))
    lhs = (1 + max(p, q)) / (p * q - 1)
    rhs = n / (2 * s)
    return _rec("optimal13.2", _cmp(lhs, rhs) >= 0, lhs, rhs)


def classify_regime(params: SystemParams) -> RegimeVerdict:
    """Place the parameter tuple into one of the proved regimes.

    Existence of the first kind requires sigma1 >= sigma2 and the whole
    first family of conditions; the second kind mirrors it.  Blow-up is
    reported only for equal orders, when the critical inequality holds.
    Anything else is Unclassified, with the full condition report attached:
    both families, then for equal orders the blow-up record.
    """
    fam11, fam12 = _families(params)
    report = fam11 + fam12
    order = _cmp(Fraction(params.sigma1), Fraction(params.sigma2))
    if order == 0:
        report.append(blowup_condition(params))
    if order >= 0 and all(r.holds for r in fam11):
        regime = Regime.EXISTENCE_THM11
    elif order <= 0 and all(r.holds for r in fam12):
        regime = Regime.EXISTENCE_THM12
    elif order == 0 and report[-1].holds:
        regime = Regime.BLOWUP_THM13
    else:
        regime = Regime.UNCLASSIFIED
    return RegimeVerdict(regime, tuple(report))


def loss_of_decay(params: SystemParams, side: str) -> float:
    """Loss-of-decay exponent: eps(p, sigma2) on the u side, eps(q, sigma1) on v.

    The value is 1 - n*(p-1)/(2*sigma2) + eps (resp. with q, sigma1); at the
    integrability boundary p == 1 + 2*sigma2/n it equals eps exactly.
    """
    n = Fraction(params.n)
    e = Fraction(params.eps)
    if side == "u":
        val = 1 - n * (Fraction(params.p) - 1) / (2 * Fraction(params.sigma2)) + e
    elif side == "v":
        val = 1 - n * (Fraction(params.q) - 1) / (2 * Fraction(params.sigma1)) + e
    else:
        raise ValueError(f"side must be 'u' or 'v', got {side!r}")
    return float(val)


def linear_rates(n, sigma, loss: float = 0.0) -> tuple[float, float, float]:
    """Exponents (l2, dsigma, dt) of the linear flow's ||w||, |||D|^sigma w|| and ||w_t||:
    (f, f - 1/2, f - 1) with f = -n/(4 sigma), exact, plus ``loss``."""
    f = float(-Fraction(n) / (4 * Fraction(sigma))) + loss
    return f, f - 0.5, f - 1.0


def theoretical_rates(params: SystemParams) -> TheoreticalRates:
    """Predicted (1+t) decay exponents for the six solution norms.

    In the first existence regime the u side carries the loss of decay; in
    the second the v side does.  Raises WrongRegimeError otherwise.
    """
    verdict = classify_regime(params)
    if verdict.regime is Regime.EXISTENCE_THM11:
        loss_u, loss_v = loss_of_decay(params, "u"), 0.0
    elif verdict.regime is Regime.EXISTENCE_THM12:
        loss_u, loss_v = 0.0, loss_of_decay(params, "v")
    else:
        raise WrongRegimeError(f"no theoretical rates in regime {verdict.regime.value}")
    return TheoreticalRates(*linear_rates(params.n, params.sigma1, loss_u),
                            *linear_rates(params.n, params.sigma2, loss_v))


def gamma_exponents(params: SystemParams) -> tuple[float, float]:
    """Scaling exponents (gamma1, gamma2) of the blow-up functionals.

    With p' = p/(p-1), q' = q/(q-1):
        gamma1 = (-2s + (n+2s)/p')/q - 2s + (n+2s)/q'
        gamma2 = (-2s + (n+2s)/q')/p - 2s + (n+2s)/p'
    For q >= p, gamma2 <= 0 is equivalent to the blow-up inequality.
    Requires sigma1 == sigma2.
    """
    if not params.equal_orders():
        raise ValueError(
            f"gamma exponents need sigma1 == sigma2, got {params.sigma1} != {params.sigma2}")
    n, s, p, q = map(Fraction, (params.n, params.sigma1, params.p, params.q))
    p_conj = p / (p - 1)
    q_conj = q / (q - 1)
    m = n + 2 * s
    gamma1 = (-2 * s + m / p_conj) / q - 2 * s + m / q_conj
    gamma2 = (-2 * s + m / q_conj) / p - 2 * s + m / p_conj
    return float(gamma1), float(gamma2)
