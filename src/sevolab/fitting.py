"""Power-law regression on norm time series.

Fits are least-squares lines through (log(1+t), log value); the abscissa is
log(1+t) rather than log t so that series generated as (1+t)**a reproduce
the exponent a exactly, matching how the predicted rates are normalised.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ._inputs import require


class FitError(ValueError):
    """No fit on the window: too few points in it, or a value in it not positive."""


MIN_POINTS = 8


@dataclass
class NormSeries:
    """Time-stamped values of one norm; t strictly increasing, t and values finite."""

    entries: list[tuple[float, float]]

    def __post_init__(self):
        self.entries = [(require(t, "times"), require(v, "values")) for t, v in self.entries]
        if any(b <= a for (a, _), (b, _) in zip(self.entries, self.entries[1:])):
            raise ValueError("time stamps must be strictly increasing")

    def times(self) -> np.ndarray:
        return np.array([t for t, _ in self.entries])

    def values(self) -> np.ndarray:
        return np.array([v for _, v in self.entries])


@dataclass(frozen=True)
class DecayFit:
    exponent: float
    intercept: float
    r_squared: float


def fit_power_law(series: NormSeries, window: tuple[float, float]) -> DecayFit:
    """Fit value ~ C * (1+t)**exponent on the given time window."""
    t_lo, t_hi = window
    ts = series.times()
    vs = series.values()
    mask = (ts >= t_lo) & (ts <= t_hi)
    ts, vs = ts[mask], vs[mask]
    if ts.size < MIN_POINTS:
        raise FitError(
            f"{ts.size} points in window [{t_lo}, {t_hi}], need >= {MIN_POINTS}")
    if np.any(vs <= 0):
        raise FitError("all values in the fit window must be positive")
    x = np.log1p(ts)
    y = np.log(vs)
    slope, intercept = np.polyfit(x, y, 1)
    resid = y - (slope * x + intercept)
    ss_tot = float(np.sum((y - y.mean()) ** 2))
    if ss_tot == 0.0:
        r2 = 1.0
    else:
        r2 = 1.0 - float(np.sum(resid**2)) / ss_tot
    return DecayFit(float(slope), float(intercept), min(max(r2, 0.0), 1.0))


def compare_rates(fit: DecayFit, predicted: float, tol: float,
                  one_sided: bool = False) -> bool:
    """Check a fitted exponent against a predicted rate.

    Two-sided: |fit - predicted| <= tol.  One-sided (for rates that are only
    upper bounds, e.g. those carrying the arbitrary small loss-of-decay
    slack): pass when the observed decay is at least as fast, within tol,
    i.e. fit <= predicted + tol.
    """
    tol = require(tol, "tol", 0.0)
    if one_sided:
        return fit.exponent <= predicted + tol
    return abs(fit.exponent - predicted) <= tol
