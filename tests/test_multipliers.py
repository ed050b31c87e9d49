import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

from sevolab.multipliers import (
    _SMALL_MU_DT2,
    _propagator_scalar,
    duhamel_weights,
    ode_residual,
    propagation_matrix,
    propagator,
    propagator_arrays,
    roots,
)


class TestRoots:
    def test_zero_frequency(self):
        r = roots(0.0, 1.7)
        assert r.lambda1 == 0.0
        assert r.lambda2 == -1.0

    def test_real_branch_perfect_square(self):
        r = roots(0.3, 1.0)  # discriminant 1 - 0.36 = 0.64
        assert r.lambda1 == pytest.approx(-0.1)
        assert r.lambda2 == pytest.approx(-0.9)

    def test_oscillatory_branch(self):
        r = roots(math.sqrt(0.5), 1.0)  # discriminant -1
        assert r.lambda1 == pytest.approx(complex(-0.5, 0.5))
        assert r.lambda2 == pytest.approx(complex(-0.5, -0.5))

    @given(xi=st.floats(0, 5), sigma=st.floats(1, 3))
    @settings(max_examples=200, deadline=None)
    def test_root_invariants(self, xi, sigma):
        r = roots(xi, sigma)
        assert r.lambda1 + r.lambda2 == pytest.approx(-1.0, abs=1e-12)
        assert r.lambda1 * r.lambda2 == pytest.approx(xi ** (2 * sigma), rel=1e-10, abs=1e-12)
        assert r.lambda1.real <= 1e-15 and r.lambda2.real <= 1e-15


class TestPropagator:
    def test_initial_conditions_exact(self):
        for xi in (0.0, 0.2, 0.25**0.5, 0.9, 4.0):
            v = propagator(0.0, xi, 1.3)
            assert v.k0 == 1.0
            assert v.k1 == 0.0
            assert v.dk0 == 0.0
            assert v.dk1 == 1.0

    def test_zero_frequency_limit(self):
        for t in (0.1, 1.0, 10.0, 500.0):
            v = propagator(t, 0.0, 2.0)
            assert v.k0 == pytest.approx(1.0, abs=1e-14)
            assert v.k1 == pytest.approx(1.0 - math.exp(-t), abs=1e-14)

    def test_oscillatory_closed_form(self):
        # |xi|^2 = 1/2, sigma = 1, t = pi: k1 = 2 exp(-pi/2) sin(pi/2)
        v = propagator(math.pi, math.sqrt(0.5), 1.0)
        assert v.k1 == pytest.approx(2.0 * math.exp(-math.pi / 2.0), rel=1e-13)

    def test_double_root_closed_form(self):
        # |xi|^(2 sigma) = 1/4: k1 = t exp(-t/2), k0 = (1 + t/2) exp(-t/2)
        for sigma in (1.0, 1.5, 2.0):
            xi = 0.25 ** (1.0 / (2.0 * sigma))
            v = propagator(2.0, xi, sigma)
            assert v.k1 == pytest.approx(2.0 * math.exp(-1.0), rel=1e-10)
            assert v.k0 == pytest.approx(2.0 * math.exp(-1.0), rel=1e-10)

    def test_derivative_identities(self):
        for t in (0.0, 0.3, 2.0, 40.0):
            for xi in (0.0, 0.1, 0.5, 0.25**0.5, 3.0):
                v = propagator(t, xi, 1.2)
                mu = xi ** 2.4
                assert v.dk1 == v.k0 - v.k1
                assert v.dk0 == pytest.approx(-mu * v.k1, rel=1e-14, abs=1e-300)

    def test_scalar_and_array_twins_agree(self):
        mus = np.array([0.0, 1e-14, 1e-6, 0.2, 0.25, 0.2500001, 0.5, 40.0])
        for t in (0.0, 0.5, 3.0, 200.0):
            k0, k1, dk0, dk1 = propagator_arrays(t, mus)
            for i, mu in enumerate(mus):
                s = _propagator_scalar(t, float(mu))
                assert k0[i] == pytest.approx(s[0], rel=1e-15, abs=1e-300)
                assert k1[i] == pytest.approx(s[1], rel=1e-15, abs=1e-300)
                assert dk0[i] == pytest.approx(s[2], rel=1e-15, abs=1e-300)
                assert dk1[i] == pytest.approx(s[3], rel=1e-15, abs=1e-300)

    @pytest.mark.parametrize("t", [0.0, 1e-9, 0.0391, 0.5, 1.0, 3.0, 10.0, 40.0])
    def test_determinant_identity(self, t):
        # the propagation matrix has trace -1, so k0*dk1 - k1*dk0 = exp(-t);
        # mu crosses the double root from both sides and spans [1e-12, 1e4]
        seam = [0.25 + s * 10.0**-k for k in range(1, 17) for s in (1, -1)]
        mus = np.array([0.0, 1e-300, 0.25, *seam, *np.logspace(-12, 4, 161)])
        tables = np.array(propagator_arrays(t, mus))
        for i, mu in enumerate(mus):
            for k0, k1, dk0, dk1 in (tables[:, i], _propagator_scalar(t, float(mu))):
                tol = 1e-15 * (1 + t * math.sqrt(mu)) * (k0**2 + abs(k0 * k1) + mu * k1**2)
                assert abs(k0 * dk1 - k1 * dk0 - math.exp(-t)) <= tol, (t, mu)

    def test_seam_continuity(self):
        # multiplier values on both sides of the double root agree to 1e-6
        for t in (0.5, 2.0, 25.0):
            lo = propagator_arrays(t, np.array([0.25 - 1e-9]))
            hi = propagator_arrays(t, np.array([0.25 + 1e-9]))
            for a, b in zip(lo, hi):
                assert abs(a[0] - b[0]) < 1e-6

    def test_envelope_and_decay(self):
        for t in (0.1, 1.0, 5.0, 30.0):
            for xi in (0.05, 0.3, 0.25**0.5, 1.0, 2.0):
                v = propagator(t, xi, 1.0)
                assert abs(v.k0) <= 1.0 + t * math.exp(-t / 2.0) + 1e-12
        for xi in (0.05, 0.7, 2.0):
            # decay time of the slow branch is 1/|xi|^(2 sigma)
            t_late = 40.0 / min(xi**2, 1.0)
            late = propagator(t_late, xi, 1.0)
            assert abs(late.k0) < 1e-8
            assert abs(late.k1) < 1e-8

    def test_all_finite_at_extreme_times(self):
        mus = np.array([0.0, 1e-10, 0.2499999999, 0.25, 0.2500000001, 1e4])
        for t in (0.0, 1e-8, 1.0, 1e5):
            for arr in propagator_arrays(t, mus):
                assert np.all(np.isfinite(arr))


class TestSemigroup:
    @given(t=st.floats(0.01, 20), s=st.floats(0.01, 20),
           xi=st.floats(0, 3), sigma=st.floats(1, 2.5))
    @settings(max_examples=150, deadline=None)
    def test_composition(self, t, s, xi, sigma):
        full = propagation_matrix(t + s, xi, sigma)
        split = propagation_matrix(t, xi, sigma) @ propagation_matrix(s, xi, sigma)
        scale = max(1e-30, np.max(np.abs(full)))
        assert np.max(np.abs(full - split)) / scale < 1e-10


class TestOdeResidual:
    def test_zero_frequency(self):
        assert ode_residual(1.0, 0.0, 1.0, 1e-3) <= 1e-6

    def test_second_order_convergence(self):
        r1 = ode_residual(1.0, math.sqrt(0.5), 1.0, 1e-3)
        r2 = ode_residual(1.0, math.sqrt(0.5), 1.0, 5e-4)
        assert r1 / r2 == pytest.approx(4.0, rel=0.2)

    def test_double_root_seam(self):
        assert ode_residual(0.5, 0.25**0.5, 1.0, 1e-3) <= 1e-5

    def test_sampled_grid(self):
        # truncation constant scales with |xi|**(4 sigma); sample the
        # moderate-frequency range where the 1e-6 budget applies
        for t in (0.1, 1.0, 10.0):
            for xi in (0.0, 0.2, 0.25**0.5, 1.0):
                for sigma in (1.0, 1.5, 2.0):
                    assert ode_residual(t, xi, sigma, 1e-3) <= 1e-6


WEIGHT_DTS = [0.02, 0.1, 0.5]
WEIGHT_MUS = [0.0, 1e-12, 0.1, 0.25, 0.2500001, 0.7, 50.0]
#: just below and just above the series/closed-form switch of each dt, and a
#: step over many fast oscillations
WEIGHT_SWITCH_CASES = [(dt, f * _SMALL_MU_DT2 / dt**2)
                       for dt in WEIGHT_DTS for f in (0.999, 1.001)] + [(0.5, 5e3)]


class TestDuhamelWeights:
    def quad_oracle(self, dt, mu, moment):
        def fn(tau):
            k1 = _propagator_scalar(dt - tau, mu)[1]
            return k1 * (tau / dt if moment else 1.0)
        val, _ = quad(fn, 0, dt, epsabs=1e-16, epsrel=1e-13)
        return val

    @pytest.mark.parametrize("dt,mu", [(dt, mu) for dt in WEIGHT_DTS for mu in WEIGHT_MUS]
                             + WEIGHT_SWITCH_CASES)
    def test_weights_match_quadrature(self, mu, dt):
        A, B, Ad, Bd = duhamel_weights(dt, np.array([mu]))
        assert A[0] == pytest.approx(self.quad_oracle(dt, mu, False), rel=1e-11, abs=1e-16)
        assert B[0] == pytest.approx(self.quad_oracle(dt, mu, True), rel=1e-11, abs=1e-16)

    @pytest.mark.parametrize("mu", [0.0, 1e-6, 0.05, 3.0])
    def test_long_step_composed_from_half_steps(self, mu):
        dt = 7.0  # beyond the direct range of the series branch
        A, B, Ad, Bd = duhamel_weights(dt, np.array([mu]))
        assert A[0] == pytest.approx(self.quad_oracle(dt, mu, False), rel=1e-11)
        assert B[0] == pytest.approx(self.quad_oracle(dt, mu, True), rel=1e-11)
        assert Bd[0] == pytest.approx(A[0] / dt, rel=1e-15)
        assert Ad[0] == pytest.approx(_propagator_scalar(dt, mu)[1], rel=1e-12)

    def test_given_tables_are_used(self):
        mu = np.array([0.0, 0.3, 40.0])
        tables = propagator_arrays(0.1, mu)
        for a, b in zip(duhamel_weights(0.1, mu, tables), duhamel_weights(0.1, mu)):
            assert np.array_equal(a, b)

    def test_closed_forms(self):
        dt = 0.25
        A, _, Ad, _ = duhamel_weights(dt, np.array([0.0, 0.25, 0.5]))
        # mu = 0: k1 = 1 - exp(-s); integral T - 1 + exp(-T)
        assert A[0] == pytest.approx(dt - 1 + math.exp(-dt), rel=1e-12)
        # double root: k1 = s exp(-s/2); integral 4 - (2T + 4) exp(-T/2)
        assert A[1] == pytest.approx(4 - (2 * dt + 4) * math.exp(-dt / 2), rel=1e-12)
        # mu = 1/2: k1 = 2 exp(-s/2) sin(s/2); integral 2 - 2 exp(-T/2)(sin + cos)(T/2)
        expected = 2 - 2 * math.exp(-dt / 2) * (math.sin(dt / 2) + math.cos(dt / 2))
        assert A[2] == pytest.approx(expected, rel=1e-12)
        # derivative channel: integral of k1' is k1(dt) - k1(0) = k1(dt)
        for i, mu in enumerate((0.0, 0.25, 0.5)):
            assert Ad[i] == pytest.approx(_propagator_scalar(dt, mu)[1], rel=1e-12)
