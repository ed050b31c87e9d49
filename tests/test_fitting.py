import numpy as np
import pytest

from sevolab.fitting import (
    DecayFit,
    FitError,
    NormSeries,
    compare_rates,
    fit_power_law,
)


def power_series(exponent, coef=5.0, t_grid=None, noise=None, rng=None):
    t_grid = np.geomspace(1, 1e4, 30) if t_grid is None else t_grid
    vals = coef * (1 + t_grid) ** exponent
    if noise is not None:
        vals = vals * (1 + noise * rng.standard_normal(len(t_grid)))
    return NormSeries(list(zip(t_grid, vals)))


class TestFitPowerLaw:
    def test_exact_power_law(self):
        fit = fit_power_law(power_series(-0.25), (1, 1e4))
        assert fit.exponent == pytest.approx(-0.25, abs=1e-10)
        assert fit.r_squared == pytest.approx(1.0, abs=1e-12)

    def test_noisy_power_law_monte_carlo(self):
        rng = np.random.default_rng(7)
        slopes = []
        for _ in range(20):
            series = power_series(-0.25, noise=0.01, rng=rng)
            slopes.append(fit_power_law(series, (1, 1e4)).exponent)
        assert np.mean(slopes) == pytest.approx(-0.25, abs=0.01)
        assert max(abs(s + 0.25) for s in slopes) < 0.02

    def test_constant_series(self):
        series = NormSeries([(t, 3.0) for t in np.linspace(1, 100, 12)])
        fit = fit_power_law(series, (1, 100))
        assert fit.exponent == pytest.approx(0.0, abs=1e-14)

    def test_insufficient_data(self):
        with pytest.raises(FitError, match=r"^3 points in window \[1, 2\], need >= 8$"):
            fit_power_law(power_series(-1.0), (1, 2))

    def test_nonpositive_values(self):
        series = NormSeries([(float(t), 1.0 - 0.2 * t) for t in range(10)])
        with pytest.raises(FitError, match="^all values in the fit window must be positive$"):
            fit_power_law(series, (0, 9))

    def test_scale_equivariance(self):
        base = fit_power_law(power_series(-1.3), (1, 1e4))
        scaled = fit_power_law(power_series(-1.3, coef=5.0 * 17.0), (1, 1e4))
        assert scaled.exponent == pytest.approx(base.exponent, abs=1e-12)
        assert scaled.intercept != pytest.approx(base.intercept)

    @pytest.mark.parametrize("a", [-3.0, -1.7, -0.5, -0.1, 0.0])
    def test_log1p_abscissa_reproduces_exact_exponent(self, a):
        fit = fit_power_law(power_series(a), (1, 1e4))
        assert fit.exponent == pytest.approx(a, abs=1e-10)

    def test_subwindow_gives_same_exponent(self):
        series = power_series(-0.8, t_grid=np.geomspace(1, 1e4, 60))
        full = fit_power_law(series, (1, 1e4))
        sub = fit_power_law(series, (10, 1e3))
        assert sub.exponent == pytest.approx(full.exponent, abs=1e-10)

    def test_strictly_increasing_times_enforced(self):
        with pytest.raises(ValueError):
            NormSeries([(1.0, 1.0), (1.0, 2.0)])


class TestCompareRates:
    def test_two_sided_pass(self):
        fit = DecayFit(-0.26, 0.0, 1.0)
        assert compare_rates(fit, -0.25, 0.05)

    def test_two_sided_fail(self):
        fit = DecayFit(-0.10, 0.0, 1.0)
        assert not compare_rates(fit, -0.25, 0.05)

    def test_one_sided_band(self):
        predicted = -0.24  # upper bound with slack
        assert compare_rates(DecayFit(-0.30, 0, 1), predicted, 0.05,
                             one_sided=True)
        assert compare_rates(DecayFit(-0.20, 0, 1), predicted, 0.05,
                             one_sided=True)
        assert not compare_rates(DecayFit(-0.10, 0, 1), predicted, 0.05,
                                 one_sided=True)
