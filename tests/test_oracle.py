import math

import numpy as np
import pytest

from sevolab.fitting import fit_power_law
from sevolab.multipliers import propagator_arrays
from sevolab.oracle import NormKind, _integrand, decay_series, linear_norm
from sevolab.profiles import GaussianProfile


G = GaussianProfile(1.0, 1.0)


class TestPlancherelConsistency:
    def test_solution_norm_at_zero_is_data_norm(self):
        got = linear_norm(G, None, 0.0, 1.0, 1, NormKind.SOLUTION_L2)
        assert got == pytest.approx(math.pi**0.25, rel=1e-10)

    def test_velocity_norm_at_zero(self):
        got = linear_norm(None, G, 0.0, 1.0, 1, NormKind.TIME_DERIVATIVE)
        assert got == pytest.approx(math.pi**0.25, rel=1e-10)

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_closed_form_l2_all_dimensions(self, n):
        prof = GaussianProfile(0.7, 1.3)
        got = linear_norm(prof, None, 0.0, 1.5, n, NormKind.SOLUTION_L2)
        assert got == pytest.approx(prof.l2(n), rel=1e-10)

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_homogeneous_norm_at_zero_matches_gamma_form(self, n):
        prof = GaussianProfile(1.0, 0.9)
        got = linear_norm(prof, None, 0.0, 1.5, n, NormKind.HOMOGENEOUS_SIGMA)
        assert got == pytest.approx(prof.dsigma_l2(1.5, n), rel=1e-10)


class TestDecaySeries:
    def test_degenerate_grid(self):
        series = decay_series(G, None, 1.0, 1, NormKind.SOLUTION_L2, [5.0])
        assert len(series.entries) == 1

    def test_slope_example_sigma15_n2(self):
        t_grid = np.geomspace(1e1, 1e5, 15)
        series = decay_series(G, None, 1.5, 2, NormKind.HOMOGENEOUS_SIGMA, t_grid)
        fit = fit_power_law(series, (1e2, 1e5))
        assert fit.exponent == pytest.approx(-2 / (4 * 1.5) - 0.5, abs=0.05)

    def test_slope_example_sigma2_n1_dt(self):
        t_grid = np.geomspace(1e2, 1e5, 12)
        series = decay_series(G, None, 2.0, 1, NormKind.TIME_DERIVATIVE, t_grid)
        fit = fit_power_law(series, (1e2, 1e5))
        assert fit.exponent == pytest.approx(-1 / 8 - 1.0, abs=0.05)

    def test_short_slope_within_003(self):
        vals = [linear_norm(G, None, t, 1.0, 1, NormKind.SOLUTION_L2)
                for t in (1e2, 1e3, 1e4)]
        slope = (math.log(vals[-1]) - math.log(vals[0])) / \
            (math.log(1 + 1e4) - math.log(1 + 1e2))
        assert slope == pytest.approx(-0.25, abs=0.03)

    def test_monotone_tail(self):
        t_grid = np.geomspace(1e2, 1e5, 12)
        series = decay_series(G, None, 1.0, 1, NormKind.SOLUTION_L2, t_grid)
        vals = series.values()
        assert np.all(np.diff(vals) < 0)

    def test_velocity_data_same_rate(self):
        t_grid = np.geomspace(1e2, 1e5, 10)
        series = decay_series(None, G, 1.0, 1, NormKind.SOLUTION_L2, t_grid)
        fit = fit_power_law(series, (1e2, 1e5))
        assert fit.exponent == pytest.approx(-0.25, abs=0.05)


class TestQuadratureStability:
    def test_tolerance_refinement(self):
        for t in (0.0, 1e3):
            base = linear_norm(G, None, t, 1.5, 2, NormKind.SOLUTION_L2,
                               rel_tol=1e-9)
            tight = linear_norm(G, None, t, 1.5, 2, NormKind.SOLUTION_L2,
                                rel_tol=1e-12)
            assert abs(base - tight) / tight < 1e-8


class TestFloatIntegrand:
    @pytest.mark.parametrize("n", [1, 2, 3])
    @pytest.mark.parametrize("kind", list(NormKind))
    def test_matches_array_formula(self, n, kind):
        w0 = GaussianProfile(0.7, 1.3)
        rho = np.geomspace(1e-3, 9.0 / 0.8, 200)
        for w1 in (GaussianProfile(0.4, 0.8), None):
            for t, sigma in ((0.0, 1.0), (0.3, 2.0), (7.5, 1.25), (1e3, 1.5)):
                k0, k1, dk0, dk1 = propagator_arrays(t, rho ** (2.0 * sigma))
                h0 = w0.hat(rho, n)
                h1 = w1.hat(rho, n) if w1 is not None else 0.0
                if kind is NormKind.TIME_DERIVATIVE:
                    m = dk0 * h0 + dk1 * h1
                else:
                    m = k0 * h0 + k1 * h1
                    if kind is NormKind.HOMOGENEOUS_SIGMA:
                        m = m * rho**sigma
                want = m * m * rho ** (n - 1)
                integrand = _integrand(w0, w1, t, sigma, n, kind)
                got = np.array([integrand(float(r)) for r in rho])
                # relative to the peak: the array and scalar multipliers use
                # different sin/cos forms, which differ by ulps near their zeros
                assert np.max(np.abs(got - want)) <= 1e-14 * np.max(want)
