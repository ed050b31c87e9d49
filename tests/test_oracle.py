import importlib
import itertools
import math
import pathlib
import warnings

import numpy as np
import pytest
from scipy.integrate import IntegrationWarning, quad

from sevolab import quadutil
from sevolab.fitting import fit_power_law
from sevolab.multipliers import propagator_arrays
from sevolab.oracle import NormKind, _integrand, decay_series, linear_norm
from sevolab.profiles import GaussianProfile, sphere_surface
from sevolab.quadutil import adaptive_quad


G = GaussianProfile(1.0, 1.0)
BENCH = pathlib.Path(__file__).resolve().parents[1] / "bench"


def brute_force(w0, w1, t, sigma, n, kind, pieces=2000):
    """The norm from QUADPACK on `pieces` equal pieces of [0, 9/width] at
    epsrel 1e-13: no breakpoints and no split, every period resolved by
    the pieces alone.  A rough whole (one call at epsrel 1e-6) sets each
    piece's absolute tolerance, 1e-13 of it over `pieces`, so that pieces
    where the integrand is at rounding level are not refined for nothing."""
    integrand = _integrand(w0, w1, t, sigma, n, kind)
    rho_max = 9.0 / min(p.width for p in (w0, w1) if p is not None)
    edges = np.linspace(0.0, rho_max, pieces + 1)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", IntegrationWarning)
        rough = abs(quad(integrand, 0.0, rho_max, epsrel=1e-6, limit=pieces)[0])
        squared = math.fsum(quad(integrand, a, b, epsabs=1e-13 * rough / pieces,
                                 epsrel=1e-13)[0] for a, b in zip(edges[:-1], edges[1:]))
    return math.sqrt(sphere_surface(n) * squared)


def single_call(w0, w1, t, sigma, n, kind):
    """linear_norm without the split: one QUADPACK call over [0, 9/width]."""
    rho_t = (1.0 + t) ** (-1.0 / (2.0 * sigma))
    points = [rho_t, 5.0 * rho_t, 0.25 ** (1.0 / (2.0 * sigma))]
    rho_max = 9.0 / min(p.width for p in (w0, w1) if p is not None)
    val = adaptive_quad(_integrand(w0, w1, t, sigma, n, kind), 0.0, rho_max, points=points)
    return math.sqrt(sphere_surface(n) * max(val, 0.0))


def counted_quad(monkeypatch):
    """Wrap QUADPACK so that each call appends (its weight, its integrand calls)."""
    calls = []

    def counting(fn, *args, **kwargs):
        entry = [kwargs.get("weight"), 0]
        calls.append(entry)

        def integrand(x):
            entry[1] += 1
            return fn(x)
        return quad(integrand, *args, **kwargs)

    monkeypatch.setattr(quadutil._integrate(), "quad", counting)
    return calls


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
                a0, b0 = w0.hat_coefficients(n)
                h0 = a0 * np.exp(b0 * rho * rho)
                h1 = 0.0
                if w1 is not None:
                    a1, b1 = w1.hat_coefficients(n)
                    h1 = a1 * np.exp(b1 * rho * rho)
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


class TestOscillatorySplit:
    """Above omega = 1 the complex-root range is a smooth mean plus
    cos/sin(2*omega*t) parts on QAWO, where the single call resolves
    hundreds of periods."""

    @pytest.mark.parametrize("sigma,t,n", list(itertools.product((2.5, 3.0), (3.16, 10.0, 31.6),
                                                                  (1, 3))))
    def test_matches_brute_force(self, sigma, t, n):
        for kind, w1 in itertools.product(NormKind, (None, G)):
            want = brute_force(G, w1, t, sigma, n, kind)
            got = linear_norm(G, w1, t, sigma, n, kind)
            assert abs(got - want) <= 1e-10 * want, (kind, w1)

    @pytest.mark.parametrize("rel_tol", [1e-8, 1e-12])
    def test_unequal_widths_and_other_tolerances(self, rel_tol, monkeypatch):
        # the support follows the narrower transform, the bounds follow
        # rel_tol; the contract is 10*rel_tol on the squared norm
        w0, w1 = GaussianProfile(0.7, 1.3), GaussianProfile(-0.4, 0.8)
        calls = counted_quad(monkeypatch)
        for kind in NormKind:
            calls.clear()
            got = linear_norm(w0, w1, 8.0, 3.0, 2, kind, rel_tol=rel_tol)
            assert [weight for weight, _ in calls] == [None, "cos", "sin"]
            want = brute_force(w0, w1, 8.0, 3.0, 2, kind)
            assert abs(got - want) <= 5.0 * rel_tol * want, kind

    def test_takes_qawo_and_few_calls(self, monkeypatch):
        # the single call needs over 8000 integrand calls here and fails
        calls = counted_quad(monkeypatch)
        got = linear_norm(G, None, 10.0, 3.0, 1, NormKind.TIME_DERIVATIVE)
        assert [weight for weight, _ in calls] == [None, "cos", "sin"]
        assert sum(count for _, count in calls) <= 2500
        assert got == pytest.approx(brute_force(G, None, 10.0, 3.0, 1, NormKind.TIME_DERIVATIVE),
                                    rel=1e-10)

    def test_qawo_is_not_trusted_on_its_first_interval(self):
        # asked for rel_tol*|mean| in absolute terms, QAWO stops here after
        # one 25-point panel over [1, 194], claims an error of 6e-12 and is
        # 1.3e-9 off; each part is held to rel_tol of itself instead
        want = brute_force(G, None, 10.0, 2.75, 2, NormKind.SOLUTION_L2)
        assert linear_norm(G, None, 10.0, 2.75, 2, NormKind.SOLUTION_L2) == \
            pytest.approx(want, rel=1e-10)

    def test_direct_path_is_the_single_call(self, monkeypatch):
        # few periods inside the data's support (small sigma, short times) or
        # exp(-t) far below rel_tol: the one QUADPACK call of old, bit for bit
        calls = counted_quad(monkeypatch)
        direct = 0
        for sigma, n, kind, k, w1 in itertools.product(
                (1.0, 1.5, 2.0, 2.5, 3.0), (1, 3), NormKind, (0, 4, 12, 13, 24, 40), (None, G)):
            t = 10.0 ** (k / 8.0)
            calls.clear()
            got = linear_norm(G, w1, t, sigma, n, kind)
            if len(calls) == 1:
                direct += 1
                calls.clear()
                assert got == single_call(G, w1, t, sigma, n, kind)
            else:
                assert k <= 12
        assert direct >= 0.75 * 5 * 2 * 3 * 6 * 2


class TestBenchCatalogue:
    """Every oracle entry of the benchmark's quadrature catalogue with
    sigma >= 2, where the split is taken, gives its frozen reference output,
    and none fails: 31 of them failed when the reference was written."""

    def test_sigma_two_and_up_matches_the_reference(self, monkeypatch):
        monkeypatch.syspath_prepend(str(BENCH))
        workloads = importlib.import_module("workloads")
        reference = workloads.load_reference("quadrature")
        jobs = [workloads.run_quad_job(spec)
                for spec in workloads.quad_catalogue()["oracle"] if spec[1] >= 2.0]
        mismatches = {job.key: workloads.check(job, reference)[0] for job in jobs}
        assert {key: why for key, why in mismatches.items() if why} == {}
        assert [job.key for job in jobs if job.error] == []
