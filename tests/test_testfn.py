import importlib
import math
import pathlib
import tracemalloc

import numpy as np
import pytest
from scipy.integrate import quad

from sevolab import quadutil, testfn
from sevolab.exponents import SystemParams, WrongRegimeError, gamma_exponents
from sevolab.profiles import GaussianProfile, sphere_surface
from sevolab.quadutil import QuadratureFailure
from sevolab.testfn import (
    BracketCombo,
    Functionals,
    TestFunctionSpec,
    _combo_transform,
    _sphere_sum,
    _sphere_taylor,
    envelope_ratio,
    eta,
    eta_derivs,
    eta_ratio_sup,
    fd_neg_laplacian,
    frac_lap_normalization,
    fractional_laplacian_bracket,
    fractional_laplacian_fourier,
    fractional_laplacian_gamma,
    integer_laplacian_bracket,
    plancherel_pairing,
)
from sevolab.torus import GridSpec, InitialData, SpectralState, run
from test_torus import Snapshots, unfold

#: a batch moves the rows of its shared node table, which changes the last
#: bits of each quadrature; the pieces of a value cancel by up to a few decades
REL_BATCH = 1000.0 * np.finfo(float).eps


class TestBracketRecursion:
    def test_one_step_at_origin(self):
        combo = integer_laplacian_bracket(2.0, 1, 1)
        # -f''(0) = 2 for f = (1+x^2)^{-1}
        assert combo.value(0.0) == pytest.approx(2.0)
        fd = fd_neg_laplacian(lambda y: 1.0 / (1.0 + y * y), 0.0, 1, m=1, h=5e-3)
        assert combo.value(0.0) == pytest.approx(fd, abs=1e-8)

    def test_one_radial_step_at_origin(self):
        # at y = 0 the radial difference takes the limit f'(y)/y -> f''(0):
        # -Lap f(0) = -n f''(0) = 6 for f = (1+|x|^2)^{-1} in three dimensions
        combo = integer_laplacian_bracket(2.0, 1, 3)
        assert combo.value(0.0) == pytest.approx(6.0)
        fd = fd_neg_laplacian(lambda y: 1.0 / (1.0 + y * y), 0.0, 3, m=1, h=5e-3)
        assert combo.value(0.0) == pytest.approx(fd, abs=1e-7)

    @pytest.mark.parametrize("ell,n", [(1.0, 1), (2.5, 2), (4.0, 3)])
    def test_coefficient_sum_is_ell_n(self, ell, n):
        combo = integer_laplacian_bracket(ell, 1, n)
        assert sum(c for c, _ in combo.terms) == pytest.approx(ell * n)
        assert combo.value(0.0) == pytest.approx(ell * n)

    def test_degenerate_coefficient(self):
        # ell = n - 2 kills the first term
        combo = integer_laplacian_bracket(1.0, 1, 3)
        assert len(combo.terms) == 1
        assert combo.terms[0] == (3.0, 5.0)

    def test_two_steps_against_nested_differences(self):
        combo = integer_laplacian_bracket(1.0, 2, 1)
        fd = fd_neg_laplacian(lambda y: (1.0 + y * y) ** -0.5, 1.0, 1, m=2, h=7e-3)
        assert combo.value(1.0) == pytest.approx(fd, abs=1e-6)

    def test_two_step_exponent_set(self):
        for r in (1.0, 2.5):
            combo = integer_laplacian_bracket(r, 2, 1)
            assert [e for _, e in combo.terms] == [r + 4, r + 6, r + 8]

    def test_taylor_expansion_matches_sphere_sum(self):
        # the two-term expansion leaves an O(rho**6) remainder: halving rho
        # divides it by about 64, where a missing rho**4 term gives 16, so
        # the bound is their geometric mean
        for n in (1, 2, 3):
            for combo, x, scale in [(BracketCombo(((1.0, 2.0),)), 0.0, 1.0),
                                    (integer_laplacian_bracket(1.5, 1, n), 0.7, 1.0),
                                    (BracketCombo(((2.0, 3.4), (-0.5, 1.0))), 5.0, 3.0)]:
                sphere = _sphere_sum(combo, n, scale)
                t2, t4 = _sphere_taylor(combo, n, scale)(x)
                f_x = combo.value(x, scale) * sphere_surface(n)

                def remainder(rho):
                    return abs(sphere(x, rho) - f_x - (t2 * rho**2 + t4 * rho**4))

                rho = 0.1 * scale
                assert remainder(rho) / remainder(rho / 2) > 32.0, (n, x)


def absolute(combo: BracketCombo) -> BracketCombo:
    """The combo with |c_i|: the scale of its rounding errors, free of cancellation."""
    return BracketCombo(tuple((abs(c), ell) for c, ell in combo.terms))


class TestFloatEvaluation:
    COMBOS = [(1.5, 1, 1), (2.0, 2, 3), (0.5, 1, 2), (2.0, 1, 3)]

    @pytest.mark.parametrize("r,m,n", COMBOS)
    def test_value_on_floats_matches_arrays(self, r, m, n):
        combo = integer_laplacian_bracket(r, m, n)
        radii = np.linspace(-4.0, 40.0, 23)
        for scale in (1.0, 7.3):
            arr = combo.value(radii, scale)
            floats = [combo.value(float(x), scale) for x in radii]
            assert all(type(v) is float for v in floats)
            assert np.all(np.abs(np.array(floats) - arr)
                          <= 1e-15 * absolute(combo).value(radii, scale))

    GAUSS_LEGENDRE_64 = np.polynomial.legendre.leggauss(64)

    def per_rho_sphere_sum(self, combo, x, rho, n, scale):
        """The sphere sum as it was written per radius: 64 Gauss-Legendre
        nodes, square roots of the radii, the combo on them, and a sum."""
        nodes, weights = self.GAUSS_LEGENDRE_64
        if n == 2:
            theta = (nodes + 1.0) * (math.pi / 2.0)
            radii = np.sqrt(x * x + 2.0 * x * rho * np.cos(theta) + rho * rho)
            return 2.0 * np.sum(weights * (math.pi / 2.0) * combo.value(radii, scale))
        radii = np.sqrt(x * x + 2.0 * x * rho * nodes + rho * rho)
        return 2.0 * math.pi * np.sum(weights * combo.value(radii, scale))

    @pytest.mark.parametrize("n", [2, 3])
    @pytest.mark.parametrize("r,m", [(1.5, 1), (2.0, 2), (0.5, 1)])
    def test_hoisted_sphere_sum_matches_per_rho_formula(self, r, m, n):
        combo = integer_laplacian_bracket(r, m, n)
        for scale in (1.0, 7.3):
            for x in (0.0, 0.7, 5.3, 40.0):
                sphere = _sphere_sum(combo, n, scale)
                for rho in np.geomspace(1e-3, 1e4, 40):
                    rho = float(rho)
                    want = self.per_rho_sphere_sum(combo, x, rho, n, scale)
                    # relative to the sum of |terms|: mixed-sign combos cancel
                    bound = self.per_rho_sphere_sum(absolute(combo), x, rho, n, scale)
                    assert abs(sphere(x, rho) - want) <= 1e-13 * bound

    def test_one_dimensional_sphere_sum_is_two_points(self):
        combo = integer_laplacian_bracket(1.5, 1, 1)
        sphere = _sphere_sum(combo, 1, 3.0)
        for rho in (0.01, 0.7, 2.0, 50.0):
            assert sphere(0.7, rho) == combo.value(0.7 + rho, 3.0) + combo.value(0.7 - rho, 3.0)


def bracket_transform(ell, xi):
    """The 1D transform of the single bracket <y>**(-ell) at xi."""
    return _combo_transform(BracketCombo(((1.0, ell),)), 1.0)(xi)


class TestFractionalEvaluators:
    single = BracketCombo(((1.0, 2.0),))

    def test_half_laplacian_closed_form(self):
        # f = 1/(1+x^2) is pi * the Poisson kernel at t = 1, so
        # (-Lap)^(1/2) f = -d/dt [t/(t^2+x^2)] at t=1 = (1-x^2)/(1+x^2)^2
        for x in (0.0, 0.5, 2.0, 7.0):
            expect = (1 - x * x) / (1 + x * x) ** 2
            got = fractional_laplacian_bracket(self.single, 0.5, x, 1)
            assert got == pytest.approx(expect, abs=1e-10)

    def test_two_methods_agree(self):
        for s, x in [(0.3, 0.0), (0.5, 1.0), (0.7, 4.0)]:
            hyper = fractional_laplacian_bracket(self.single, s, x, 1)
            fourier = fractional_laplacian_fourier(self.single, s, x)
            assert hyper == pytest.approx(fourier, rel=1e-5, abs=1e-12)

    def test_small_s_is_near_identity(self):
        got = fractional_laplacian_bracket(self.single, 1e-4, 1.0, 1)
        assert got == pytest.approx(self.single.value(1.0), rel=0.01)

    def test_linearity(self):
        doubled = BracketCombo(((2.0, 2.0), (3.0, 4.0)))
        base = BracketCombo(((1.0, 2.0), (1.5, 4.0)))
        a = fractional_laplacian_bracket(doubled, 0.4, 0.7, 1)
        b = fractional_laplacian_bracket(base, 0.4, 0.7, 1)
        assert a == pytest.approx(2.0 * b, rel=1e-13)

    def test_transform_closed_form_against_known_pairs(self):
        # the transforms of <y>^-2 and <y>^-4 are elementary; xi = 0 takes
        # the small-xi limit
        for xi in (0.0, 0.3, 1.0, 4.0):
            assert bracket_transform(2.0, xi) == \
                pytest.approx(math.pi * math.exp(-xi), rel=1e-12)
            assert bracket_transform(4.0, xi) == \
                pytest.approx(math.pi / 2 * (1 + xi) * math.exp(-xi), rel=1e-12)

    def test_transform_closed_form_against_direct_quadrature(self):
        # fractional exponent: validate against a long truncated cosine integral
        for xi in (0.5, 1.5):
            direct, _ = quad(lambda y: (1 + y * y) ** (-3.5 / 2) * math.cos(xi * y),
                             0, 400, limit=2000)
            direct *= 2.0
            closed = bracket_transform(3.5, xi)
            assert closed == pytest.approx(direct, rel=1e-6)

    def test_composition_consistency_at_integer_order(self):
        # (-Lap)^(1+s) with s -> 0 approaches the pure recursion result
        combo = integer_laplacian_bracket(2.0, 1, 1)
        via_small_s = fractional_laplacian_bracket(combo, 1e-4, 0.8, 1)
        assert via_small_s == pytest.approx(combo.value(0.8), rel=0.01)

    @pytest.mark.parametrize("n", [2, 3])
    def test_higher_dimension_scaling_consistency(self, n):
        spec = TestFunctionSpec(gamma=1.5, r=0.9 * n, R=3.0)
        direct = fractional_laplacian_gamma(spec, 2.0, n, factored=False)
        factored = fractional_laplacian_gamma(spec, 2.0, n, factored=True)
        assert direct == pytest.approx(factored, rel=1e-6)


def linear_middle_reference(combo, s, x, n, scale=1.0, rel_tol=1e-10):
    """An earlier form of fractional_laplacian_bracket: the middle range
    [lo_cut, big] integrated in rho itself rather than in log(rho), and the
    inner range [0, lo_cut] in u = rho**(2-2s), with the Taylor form below
    h_sw, rather than in closed form plus log(rho).  It integrates on the
    evaluator's engine, looked up on ``testfn`` as the evaluator does."""
    x = abs(float(x))
    omega = sphere_surface(n)
    fx = combo.value(x, scale)
    taylor2, taylor4 = _sphere_taylor(combo, n, scale)(x)
    sphere = _sphere_sum(combo, n, scale)
    h_sw = 1e-3 * scale * (1.0 + x / scale)

    def centred(rho):
        return np.where(rho < h_sw, taylor2 * rho * rho + taylor4 * rho**4,
                        sphere(x, rho) - omega * fx)

    alpha = 1.0 / (2.0 - 2.0 * s)

    def inner(u):
        rho = u**alpha
        return centred(rho) * rho ** (-1.0 - 2.0 * s) * alpha * u ** (alpha - 1.0)

    lo_cut = max(scale, x / 8.0)
    big = max(200.0 * (x + scale), 1e3 * scale)
    i_inner = testfn.gauss_kronrod(inner, 0.0, lo_cut ** (2.0 - 2.0 * s),
                                   points=[h_sw ** (2.0 - 2.0 * s)], rel_tol=0.1 * rel_tol)
    i_mid = testfn.gauss_kronrod(lambda rho: centred(rho) * rho ** (-1.0 - 2.0 * s),
                                 lo_cut, big, points=[x / 2.0, x, 2.0 * x, 4.0 * x],
                                 rel_tol=rel_tol, limit=500)
    i_tail = -omega * fx * big ** (-2.0 * s) / (2.0 * s)
    for c, ell in combo.terms:
        i_tail += omega * c * scale**ell * big ** (-ell - 2.0 * s) / (ell + 2.0 * s)
    return -frac_lap_normalization(n, s) * (i_inner + i_mid + i_tail)


class TestLogMiddleRange:
    """The middle range in log(rho) gives the linear-variable values with fewer
    integrand nodes."""

    @pytest.mark.parametrize("n", [1, 2, 3])
    @pytest.mark.parametrize("s", [0.25, 0.5, 0.75])
    def test_matches_linear_variable_form(self, n, s):
        combo = integer_laplacian_bracket(2.0, 1, n)
        for scale in (1.0, 7.3):
            for z in (0.0, 0.7, 5.3, 40.0):
                got = fractional_laplacian_bracket(combo, s, z * scale, n, scale)
                want = linear_middle_reference(combo, s, z * scale, n, scale)
                assert got == pytest.approx(want, rel=1e-9), (scale, z)

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_envelope_needs_three_quarters_of_the_calls(self, n, monkeypatch):
        # the evaluator batches on testfn's engine, the reference calls
        # gauss_kronrod, a batch of one on quadutil's: both are counted
        nodes = [0]
        original = quadutil.gauss_kronrod_estimates

        def counted(fn, a, b, **kwargs):
            def integrand(v, index):
                nodes[0] += np.size(v)
                return fn(v, index)
            return original(integrand, a, b, **kwargs)

        def envelope_nodes():
            nodes[0] = 0
            envelope_ratio(1.5, 1.0, n, [0.0] + list(np.geomspace(0.1, 1e3, 9)))
            return nodes[0]

        monkeypatch.setattr(testfn, "gauss_kronrod_estimates", counted)
        monkeypatch.setattr(quadutil, "gauss_kronrod_estimates", counted)
        log_form = envelope_nodes()

        def reference(combo, s, x, n, **kwargs):
            return np.array([linear_middle_reference(combo, s, z, n, **kwargs) for z in x])

        monkeypatch.setattr(testfn, "fractional_laplacian_bracket", reference)
        assert 0 < log_form <= 0.75 * envelope_nodes()


class TestArrayPoints:
    """An array of points gives each point's scalar value from one batch per
    quadrature range, and its first failure in the scalar order."""

    @pytest.mark.parametrize("n", [1, 2, 3])
    @pytest.mark.parametrize("s", [0.25, 0.75])
    def test_array_matches_scalar_calls(self, n, s):
        # the bench catalogue's points
        combo = integer_laplacian_bracket(2.0, 1, n)
        for scale in (1.0, 7.3):
            xs = scale * np.array([0.0, 0.7, 5.3, 40.0])
            got = fractional_laplacian_bracket(combo, s, xs, n, scale)
            want = [fractional_laplacian_bracket(combo, s, x, n, scale) for x in xs]
            assert got.shape == xs.shape
            assert got == pytest.approx(want, rel=REL_BATCH), scale

    def test_gamma_keeps_the_array_shape(self):
        spec = TestFunctionSpec(gamma=1.5, r=2.0, R=3.0)
        xs = np.array([[0.0, 0.7], [5.3, 40.0]])
        for factored in (False, True):
            got = fractional_laplacian_gamma(spec, xs, 2, factored=factored)
            want = [fractional_laplacian_gamma(spec, x, 2, factored=factored)
                    for x in xs.ravel()]
            assert got.shape == xs.shape
            assert got.ravel() == pytest.approx(want, rel=REL_BATCH)

    @pytest.mark.parametrize("gamma,factored", [(2.0, False), (2.0, True), (1.5, True)])
    def test_gamma_takes_a_list(self, gamma, factored):
        # gamma = 2 takes the integer route whether factored or not
        spec = TestFunctionSpec(gamma=gamma, r=2.0, R=4.0)
        got = fractional_laplacian_gamma(spec, [0.5, 1, 5.3], 2, factored=factored)
        want = fractional_laplacian_gamma(spec, np.array([0.5, 1.0, 5.3]), 2, factored=factored)
        assert isinstance(got, np.ndarray) and np.array_equal(got, want)
        one = fractional_laplacian_gamma(spec, 1, 2, factored=factored)
        assert type(one) is float and one == fractional_laplacian_gamma(spec, 1.0, 2, factored)

    def test_first_failing_point_raises(self):
        # x = 1e3 fails in the middle range at gamma = 2.5, r = 1, n = 1
        spec = TestFunctionSpec(gamma=2.5, r=1.0, R=1.0)
        with pytest.raises(QuadratureFailure) as scalar:
            fractional_laplacian_gamma(spec, 1e3, 1, rel_tol=1e-6)
        with pytest.raises(QuadratureFailure) as batch:
            fractional_laplacian_gamma(spec, np.array([0.7, 1e3, 3e3]), 1, rel_tol=1e-6)
        assert str(batch.value) == str(scalar.value)

    def test_failures_raise_point_by_point_inner_first(self, monkeypatch):
        # spoil the inner range at point 1 and the middle range at point 0:
        # the scalar calls would meet point 0's middle range first
        original = testfn.gauss_kronrod_estimates
        values_seen = []

        def spoiled(fn, a, b, **kwargs):
            values, errors = original(fn, a, b, **kwargs)
            errors[1 - len(values_seen)] = math.inf
            values_seen.append(values)
            return values, errors

        monkeypatch.setattr(testfn, "gauss_kronrod_estimates", spoiled)
        combo = integer_laplacian_bracket(2.0, 1, 2)
        with pytest.raises(QuadratureFailure) as failure:
            fractional_laplacian_bracket(combo, 0.5, np.array([0.7, 5.3]), 2)
        inner, middle = values_seen
        assert str(failure.value).endswith(f"for value {middle[0]:.6e}")
        assert f"{middle[0]:.6e}" != f"{inner[1]:.6e}"

    def test_envelope_returns_case_and_float(self):
        case, const = envelope_ratio(1.5, 1.0, 2, [0.0] + list(np.geomspace(0.1, 1e3, 9)))
        assert isinstance(case, str) and isinstance(const, float)
        assert case == "above" and 0.0 < const < math.inf


class TestNearIntegerOrders:
    """Fractional parts close to 1, where the inner range once overflowed
    under the substitution rho = u**(1/(2-2s)), give finite values that tend
    to -Lap as s -> 1; those close to 0 tend to the identity.  Both ends go to
    within 1e-10 of an integer: a gamma that close to an integer is fractional
    under the exponents' tie rule, so its spec evaluates such an s."""

    ORDERS = [0.96, 0.975, 0.99, 0.999, 0.99999, 1.0 - 1e-10]
    single = BracketCombo(((1.0, 2.0),))

    @pytest.mark.parametrize("s", ORDERS + [1e-10])
    def test_one_dimension_matches_fourier(self, s):
        got = fractional_laplacian_bracket(self.single, s, 1.0, 1)
        assert math.isfinite(got)
        assert got == pytest.approx(fractional_laplacian_fourier(self.single, s, 1.0),
                                    abs=1e-10)

    @pytest.mark.parametrize("n", [2, 3, 1])
    @pytest.mark.parametrize("s", ORDERS)
    def test_tends_to_the_laplacian(self, n, s):
        # -Lap <x>**(-2) at x = 1 is (n - 2)/2: -0.5 in 1D, 0 in 2D, 0.5 in 3D
        laplacian = integer_laplacian_bracket(2.0, 1, n).value(1.0)
        got = fractional_laplacian_bracket(self.single, s, 1.0, n)
        assert math.isfinite(got)
        assert abs(got - laplacian) <= 2.0 * (1.0 - s)

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_tends_to_the_function(self, n):
        s = 1e-10
        got = fractional_laplacian_bracket(self.single, s, 1.0, n)
        assert abs(got - self.single.value(1.0)) <= 2.0 * s


class TestBenchCatalogue:
    """Every test-function entry of the benchmark's quadrature catalogue gives
    its frozen reference output, and the entries failing there fail here."""

    FAILING = {"envelope": {"envelope|2.5|0.5|1", "envelope|2.5|1|1", "envelope|2.5|2|1"}}

    @pytest.mark.parametrize("kind", ["fraclap", "fourier", "envelope"])
    def test_matches_the_reference(self, kind, monkeypatch):
        monkeypatch.syspath_prepend(str(pathlib.Path(__file__).resolve().parents[1] / "bench"))
        workloads = importlib.import_module("workloads")
        reference = workloads.load_reference("quadrature")
        jobs = [workloads.run_quad_job(spec) for spec in workloads.quad_catalogue()[kind]]
        mismatches = {job.key: workloads.check(job, reference)[0] for job in jobs}
        assert {key: why for key, why in mismatches.items() if why} == {}
        assert {job.key for job in jobs if job.error} == self.FAILING.get(kind, set())


class TestGammaEvaluator:
    def test_integer_order_matches_fd(self):
        spec = TestFunctionSpec(gamma=2.0, r=1.0, R=1.0)
        got = fractional_laplacian_gamma(spec, 1.0, 1)
        fd = fd_neg_laplacian(lambda y: (1.0 + y * y) ** -0.5, 1.0, 1, m=2, h=7e-3)
        assert got == pytest.approx(fd, abs=1e-6)

    def test_integer_order_scaled(self):
        spec = TestFunctionSpec(gamma=1.0, r=2.0, R=5.0)
        combo = integer_laplacian_bracket(2.0, 1, 1)
        assert fractional_laplacian_gamma(spec, 3.0, 1) == \
            pytest.approx(combo.value(3.0 / 5.0) / 25.0, rel=1e-12)

    def test_scaling_identity_nondyadic(self):
        spec = TestFunctionSpec(gamma=1.5, r=2.0, R=3.0)
        for x in (0.0, 0.7, 5.3, 40.0):
            direct = fractional_laplacian_gamma(spec, x, 1, factored=False)
            factored = fractional_laplacian_gamma(spec, x, 1, factored=True)
            assert direct == pytest.approx(factored, rel=1e-8)

    def test_envelope_bounded_for_blowup_construction(self):
        # gamma = 1.5, r = n + 2s = 2: decay envelope <x>^(-n-2s)
        case, const = envelope_ratio(1.5, 2.0, 1,
                                     [0.0] + list(np.geomspace(0.1, 1e3, 8)))
        assert case == "above"
        assert math.isfinite(const)
        assert const > 0

    @pytest.mark.parametrize("r,case", [
        (1.0 + 1.5e-12, "log"), (1.0 - 1.5e-12, "log"),
        (1.0 + 3e-11, "above"), (1.0 - 3e-11, "below"),
        (np.float32(1.0), "log"),  # a numpy scalar, which require takes
    ])
    def test_envelope_case_ties_in_the_orders_band(self, r, case):
        # r + 2*[gamma] = r + 2 against n = 3: n*(1 +- 5e-13) ties within the
        # relative band of 1e-12 that decides equal orders
        # (test_one_tie_band_for_the_orders), n*(1 +- 1e-11) does not
        assert envelope_ratio(1.5, r, 3, [0.0, 1.0])[0] == case

    def test_blowup_spec_construction(self):
        params = SystemParams(1, 1.5, 1.5, 2, 2)
        spec = TestFunctionSpec.for_blowup(params, 8.0)
        assert spec.gamma == 1.5
        assert spec.r == pytest.approx(1 + 2 * 0.5)

    def test_blowup_spec_takes_theta_from_the_integer_order_rule(self):
        # within the spec's integer band theta = s = 0, on both sides of 2
        specs = [TestFunctionSpec.for_blowup(SystemParams(1, sigma, sigma, 2, 2), 8.0)
                 for sigma in (2 - 1e-12, 2.0, 2 + 1e-12)]
        assert [(spec.s, spec.int_part, spec.r) for spec in specs] == [(0.0, 2, 1.0)] * 3

    @pytest.mark.parametrize("gamma,int_part,s", [
        (2 + 5e-13, 2, 0.0), (2 - 5e-13, 2, 0.0),
        (2 + 5e-10, 2, 5e-10), (2 - 5e-10, 1, 1 - 5e-10), (3 - 1e-10, 2, 1 - 1e-10),
        (np.float32(1.5), 1, 0.5),  # a numpy scalar, held as the float require returns
    ])
    def test_integer_part_by_the_exponents_tie_rule(self, gamma, int_part, s):
        # gamma ties its nearest integer within the relative band of 1e-12 that
        # decides every tie between exponents; 5e-10 off it is fractional
        spec = TestFunctionSpec(gamma=gamma, r=1.0, R=1.0)
        assert type(spec.gamma) is float and spec.gamma == gamma
        assert (spec.int_part, spec.s) == (int_part, pytest.approx(s, rel=1e-6, abs=0.0))
        assert type(spec.int_part) is int
        assert spec.s == 0.0 or spec.int_part + spec.s == spec.gamma

    def test_blowup_spec_just_off_an_integer_order_is_fractional(self):
        params = SystemParams(1, 2 + 5e-10, 2 + 5e-10, 2, 2)
        spec = TestFunctionSpec.for_blowup(params, 8.0)
        assert (spec.int_part, spec.r) == (2, 1 + 2 * spec.s)
        assert spec.s == pytest.approx(5e-10, rel=1e-6)

    def test_unequal_orders_are_refused_as_the_gamma_exponents_refuse_them(self):
        # Theorem 1.3 has one order: no spec or functional is built from sigma1 alone
        params = SystemParams(1, 1.5, 1.0, 2, 2)
        with pytest.raises(WrongRegimeError) as gammas:
            gamma_exponents(params)
        spec = TestFunctionSpec(gamma=1.5, r=2.0, R=3.0)
        for build in (lambda: TestFunctionSpec.for_blowup(params, 3.0),
                      lambda: Functionals(GridSpec(1, 16, 10.0), params, [spec], [0.0])):
            with pytest.raises(WrongRegimeError) as refused:
                build()
            assert str(refused.value) == str(gammas.value)


class TestCutoffs:
    def test_eta_plateaus(self):
        assert eta(0.3, 4.0) == 1.0
        assert eta(0.0, 4.0) == 1.0
        assert eta(1.2, 4.0) == 0.0

    def test_eta_monotone_nonincreasing(self):
        lam = 4.0
        ts = np.linspace(0.0, 1.0, 2001)
        vals = [eta(float(t), lam) for t in ts]
        assert all(b <= a + 1e-15 for a, b in zip(vals, vals[1:]))

    def test_eta_derivatives_match_numerics(self):
        lam = 4.0
        h = 1e-6
        for t in (0.55, 0.7, 0.9):
            e, e1, e2 = eta_derivs(t, lam)
            num1 = (eta(t + h, lam) - eta(t - h, lam)) / (2 * h)
            num2 = (eta(t + h, lam) - 2 * e + eta(t - h, lam)) / (h * h)
            assert e1 == pytest.approx(num1, rel=1e-6, abs=1e-9)
            assert e2 == pytest.approx(num2, rel=1e-4, abs=1e-6)

    def test_chi_is_c2_at_junctions(self):
        # chi'' is Lipschitz with constant < 1000; values across each
        # junction may differ by that times the probe offset
        probe = 1e-10
        for t0 in (0.5, 1.0):
            inside = eta_derivs(t0 + probe if t0 == 0.5 else t0 - probe, 1.0)
            outside = eta_derivs(t0 - probe if t0 == 0.5 else t0 + probe, 1.0)
            for a, b in zip(inside, outside):
                assert a == pytest.approx(b, abs=1000 * probe)

    def test_cutoff_real_and_nonnegative_just_below_one(self):
        # chi rounds to about +-1e-16 for 1 - x below 3e-6, where a negative
        # value to a non-integer power is NaN or complex
        xs = 1.0 - np.geomspace(1e-15, 1e-5, 400)
        vals = eta(xs, 1.5)
        assert np.all((vals >= 0.0) & (vals < 1e-18))  # chi < 1e-12 here
        for x in xs:
            derivs = eta_derivs(float(x), 1.5)
            assert all(type(d) is float and math.isfinite(d) for d in derivs)

    def test_eta_ratio_sup_reported_finite(self):
        # kappa = p = 2, conjugate 2: lam = 2 * max(p', q') = 4 suffices
        sup = eta_ratio_sup(4.0, 2.0)
        assert math.isfinite(sup)
        assert sup > 0

    def test_compact_cutoff_support(self):
        assert eta(0.3, 4.0) == 1.0
        assert eta(1.1, 4.0) == 0.0
        vals = eta(np.array([0.6, 0.8]), 4.0)
        assert np.all((0 < vals) & (vals < 1))
        # the array path agrees with chi(|x|)**lam from the closed-form chi on a 2D grid
        x = np.linspace(-1.2, 1.2, 97)
        rho = np.hypot(*np.meshgrid(x, x))
        scalar = np.array([eta_derivs(float(r), 1.0)[0] ** 4.0 for r in rho.ravel()])
        np.testing.assert_allclose(eta(rho, 4.0).ravel(), scalar,
                                   rtol=0, atol=1e-15)


class TestPlancherelPairing:
    def test_fractional_pairing(self):
        spec = TestFunctionSpec(gamma=1.5, r=2.0, R=4.0)
        lhs, rhs = plancherel_pairing(spec, GaussianProfile(1.0, 1.0))
        assert abs(lhs - rhs) / abs(lhs) < 1e-6

    def test_pairing_other_order(self):
        spec = TestFunctionSpec(gamma=1.25, r=1.5, R=2.0)
        lhs, rhs = plancherel_pairing(spec, GaussianProfile(0.5, 1.2))
        assert abs(lhs - rhs) / abs(lhs) < 1e-6


def frozen_values(grid, params, specs, times, u_value, v_value):
    """Functionals of each spec over fields frozen at constant values,
    observed at ``times``."""
    observer = Functionals(grid, params, specs, times)
    corner = np.multiply.outer([u_value, v_value], np.ones(grid.corner_shape))
    y = np.stack((grid.to_spectral(corner), np.zeros_like(corner)))
    state = SpectralState(y, 0.0, grid, params.sigma1, params.sigma2)
    for t in observer.times:
        observer(t, state)
    return observer.values()


def snapshot_functionals(snaps, grid, spec, params):
    """(I_R, J_R, I_R_t, J_R_t) of an integer order from stored full-grid
    snapshots: full-grid sums and trapezoids, the reference of the streamed
    corner sums."""
    T = spec.R ** (2.0 * params.sigma1)
    snaps = [s for s in snaps if s[0] <= T * (1.0 + 1e-9)]
    lam = 2.0 * max(params.p / (params.p - 1.0), params.q / (params.q - 1.0))
    weight = eta(unfold(grid, grid.radius()) / spec.R, lam)
    t_arr = np.array([t for t, _, _ in snaps])
    eta_vals = np.array([eta(t / T, lam) for t in t_arr])
    i_vals = np.array([np.sum(np.abs(v) ** params.p * weight) * grid.dV
                       for _, _, v in snaps]) * eta_vals
    j_vals = np.array([np.sum(np.abs(u) ** params.q * weight) * grid.dV
                       for _, u, _ in snaps]) * eta_vals
    late = t_arr >= T / 2.0 - 1e-12
    return (np.trapezoid(i_vals, t_arr), np.trapezoid(j_vals, t_arr),
            np.trapezoid(i_vals[late], t_arr[late]), np.trapezoid(j_vals[late], t_arr[late]))


class TestFunctionals:
    grid = GridSpec(1, 2048, 40.0)

    def test_zero_fields(self):
        params = SystemParams(1, 1, 1, 2, 2)
        spec = TestFunctionSpec(gamma=1.0, r=2.0, R=3.0)
        T = 9.0
        values, = frozen_values(self.grid, params, [spec], np.linspace(0, T, 65), 0.0, 0.0)
        assert values.I_R == 0.0 and values.J_R == 0.0

    def test_frozen_field_separable_product_compact(self):
        # integer order: compact cutoff; independent 1D quadratures for both factors
        params = SystemParams(1, 1, 1, 2, 2)
        R = 3.0
        spec = TestFunctionSpec(gamma=1.0, r=2.0, R=R)
        T = R**2
        values, = frozen_values(self.grid, params, [spec], np.linspace(0, T, 129), 0.0, 1.0)
        lam = 2.0 * max(2.0, 2.0)
        time_int, _ = quad(lambda t: eta(t / T, lam), 0, T, limit=200)
        space_int, _ = quad(lambda x: eta(x / R, lam), 0, R, limit=200)
        assert values.I_R == pytest.approx(time_int * 2 * space_int, rel=1e-6)

    def test_frozen_field_separable_product_bracket(self):
        params = SystemParams(1, 1.5, 1.5, 2, 2)
        R = 3.0
        spec = TestFunctionSpec.for_blowup(params, R)
        T = R**3
        values, = frozen_values(self.grid, params, [spec], np.linspace(0, T, 129), 0.0, 1.0)
        lam = 4.0
        time_int, _ = quad(lambda t: eta(t / T, lam), 0, T, limit=200)
        L = self.grid.half_length
        space_int, _ = quad(lambda x: (1 + (x / R) ** 2) ** (-spec.r / 2), 0, L,
                            limit=300)
        assert values.I_R == pytest.approx(time_int * 2 * space_int, rel=1e-4)

    def test_monotone_in_scale(self):
        params = SystemParams(1, 1, 1, 2, 2)
        times = np.linspace(0, 16.0, 257)
        specs = [TestFunctionSpec(gamma=1.0, r=2.0, R=R) for R in (2.0, 3.0, 4.0)]
        vals = [v.I_R for v in frozen_values(self.grid, params, specs, times, 1.0, 1.0)]
        assert vals[0] < vals[1] < vals[2]

    def test_insufficient_snapshots(self):
        params = SystemParams(1, 1, 1, 2, 2)
        spec = TestFunctionSpec(gamma=1.0, r=2.0, R=4.0)
        with pytest.raises(ValueError, match="gap"):  # window is [0, 16]
            frozen_values(self.grid, params, [spec], np.linspace(0, 8.0, 65), 1.0, 1.0)

    @pytest.mark.parametrize("n_dim,npts,sigma", [(1, 64, 1.0), (2, 32, 1.0),
                                                  (3, 16, 1.0), (2, 32, 1.5)])
    def test_grid_sums_match_the_unfolded_full_grid(self, n_dim, npts, sigma):
        # random corner samples weight every corner point differently, so each
        # sample's weight is checked against the points it stands for on the
        # full grid, whatever the corner layout
        grid = GridSpec(n_dim, npts, 10.0)
        params = SystemParams(n_dim, sigma, sigma, 2.5, 3.0)
        specs = [TestFunctionSpec.for_blowup(params, R) for R in (3.0, 6.0)]
        observer = Functionals(grid, params, specs, [0.0])
        rng = np.random.default_rng(n_dim)
        samples = rng.standard_normal((2, *grid.corner_shape))
        y = np.stack((grid.to_spectral(samples), np.zeros_like(samples)))
        state = SpectralState(y, 0.0, grid, params.sigma1, params.sigma2)
        observer(0.0, state)
        u, v = unfold(grid, grid.to_physical(state.y[0]))
        r = unfold(grid, grid.radius())
        cutoffs = [eta(r / spec.R, observer._lam) if sigma == 1.0
                   else (1.0 + (r / spec.R) ** 2) ** (-spec.r / 2.0) for spec in specs]
        expected = [0.0, *(grid.dV * np.sum(c * np.abs(v) ** params.p) for c in cutoffs),
                    *(grid.dV * np.sum(c * np.abs(u) ** params.q) for c in cutoffs)]
        np.testing.assert_allclose(observer._rows[0], expected, rtol=1e-13, atol=0)

    def test_positivity(self):
        params = SystemParams(1, 1, 1, 2, 2)
        spec = TestFunctionSpec(gamma=1.0, r=2.0, R=3.0)
        values, = frozen_values(self.grid, params, [spec], np.linspace(0, 9.0, 65), 0.5, 0.25)
        assert values.I_R >= 0 and values.J_R >= 0
        assert values.I_R_t >= 0 and values.J_R_t >= 0
        assert values.I_R_t <= values.I_R


class TestFunctionalGrowthEcho:
    def test_rescaled_functional_bounded_while_growing(self):
        # Small positive-mass data in the blow-up region: the solution is
        # still alive on every window here, so the rescaled combination
        # J_R**((pq-1)/pq) * R**(-gamma2) must stay below the derivation's
        # O(1) constant even though J_R itself grows with the window.
        from sevolab.exponents import gamma_exponents

        params = SystemParams(1, 1, 1, 2, 2)
        grid = GridSpec(1, 512, 40.0)
        g = GaussianProfile(1e-2, 1.0)
        data = InitialData(u1=g, v1=g)
        radii = (4.0, 8.0, 16.0)
        snap_times = sorted(set(
            float(t) for R in radii for t in np.linspace(0.0, R**2, 65)))
        specs = [TestFunctionSpec(gamma=1.0, r=2.0, R=R) for R in radii]
        streamed, snaps = Functionals(grid, params, specs, snap_times), Snapshots(snap_times)
        result = run(grid, data, params, 256.0, [256.0], observers=[streamed, snaps])
        assert result.blowup is None

        _, gamma2 = gamma_exponents(params)
        assert gamma2 == pytest.approx(-0.75)
        exponent = (params.p * params.q - 1) / (params.p * params.q)
        j_values = []
        rescaled = []
        for R, spec, vals in zip(radii, specs, streamed.values()):
            j_values.append(vals.J_R)
            rescaled.append(vals.J_R**exponent * R**(-gamma2))
            # the corner sums match the full-grid formula on the same run
            reference = snapshot_functionals(snaps.fields, grid, spec, params)
            got = (vals.I_R, vals.J_R, vals.I_R_t, vals.J_R_t)
            np.testing.assert_allclose(got, reference, rtol=1e-12, atol=0)
        assert j_values[0] < j_values[1] < j_values[2]
        assert max(rescaled) < 1.0


class TestStreamedFunctionals:
    def test_run_ending_before_the_window_is_insufficient(self):
        # L = 20 and amplitude 3 blow up near t = 3.4, inside the window [0, 9]
        grid = GridSpec(1, 256, 20.0)
        params = SystemParams(1, 1, 1, 2, 2)
        g = GaussianProfile(3.0, 1.0)
        data = InitialData(u1=g, v1=g)
        observer = Functionals(grid, params, [TestFunctionSpec(gamma=1.0, r=2.0, R=3.0)],
                               np.linspace(0.0, 9.0, 65))
        result = run(grid, data, params, 9.0, [9.0], observers=[observer])
        assert result.blowup["time"] < 4.0
        with pytest.raises(ValueError, match="gap"):
            observer.values()

    def test_memory_does_not_grow_with_observed_times(self):
        # two full-grid fields per stored time were 1 MiB at 256**2; an
        # observer keeps scalars, so 40 times peak like 10
        grid = GridSpec(2, 256, 20.0)
        params = SystemParams(2, 1, 1, 3, 3)
        g = GaussianProfile(1e-2, 1.0)
        data = InitialData(g, g, g, g)
        specs = [TestFunctionSpec(gamma=1.0, r=2.0, R=1.0)]

        def observed_run(count):
            observer = Functionals(grid, params, specs, np.linspace(1.0 / count, 1.0, count))
            run(grid, data, params, 1.0, [1.0], dt=0.025, observers=[observer])
            assert len(observer.values()) == 1

        # untraced: the first run builds the per-grid caches the others reuse
        observed_run(10)
        peaks = []
        for count in (10, 40):
            tracemalloc.start()
            try:
                observed_run(count)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert abs(peaks[1] - peaks[0]) <= 0.5 * 2**20
