import math

import numpy as np
import pytest

from sevolab import quadutil
from sevolab.quadutil import (
    QuadratureFailure,
    _accepted,
    adaptive_quad,
    gauss_kronrod,
    gauss_kronrod_estimates,
)


def counting(fn, sizes):
    """fn, appending the number of nodes of each call to sizes."""
    def integrand(x):
        sizes.append(np.size(x))
        return fn(x)
    return integrand


class TestAdaptiveQuad:
    """The behaviours both engines share; TestGaussKronrod runs them on the other."""

    integrate = staticmethod(adaptive_quad)

    def test_breakpoints_outside_the_interval_are_clipped(self):
        # with the one interior breakpoint the piecewise-linear integrand is
        # exact on the first two 21-node panels, and no node leaves (0, 1)
        def nodes_seen(fn, points):
            seen = []

            def recorded(x):
                seen.append(np.atleast_1d(x))
                return fn(x)

            value = self.integrate(recorded, 0.0, 1.0, points=points)
            return value, np.concatenate(seen)

        got, nodes = nodes_seen(lambda x: np.abs(x - 0.3), [2.0, 0.3, -1.0, 0.0, 1.0])
        assert got == pytest.approx(0.3**2 / 2 + 0.7**2 / 2, rel=1e-12)
        assert nodes.size == 42 and 0.0 < nodes.min() and nodes.max() < 1.0
        _, nodes = nodes_seen(np.exp, [-1.0, 1.0, 5.0])
        assert nodes.size == 21 and 0.0 < nodes.min() and nodes.max() < 1.0

    def test_exhausted_budget_raises(self):
        # 3183 periods on [0, 10] outrun either engine's 200 intervals; 80 do not
        with pytest.raises(QuadratureFailure):
            self.integrate(lambda x: np.cos(2000.0 * x), 0.0, 10.0)
        assert self.integrate(lambda x: np.cos(50.0 * x), 0.0, 10.0) == \
            pytest.approx(math.sin(500.0) / 50.0, rel=1e-10)

    @pytest.mark.parametrize("value", [math.nan, math.inf])
    def test_non_finite_integral_raises(self, value):
        with pytest.raises(QuadratureFailure):
            self.integrate(lambda x: 0.0 * x + value, 0.0, 1.0)

    @pytest.mark.parametrize("rel_tol", [math.nan, math.inf, 0.0, -1e-10])
    def test_rel_tol_must_be_finite_and_positive(self, rel_tol):
        # a NaN or infinite tolerance once accepted one panel of cos(50x) on
        # [0, 10]: 0.6134 against sin(500)/50 = -0.00936
        with pytest.raises(ValueError):
            self.integrate(lambda x: np.cos(50.0 * x), 0.0, 10.0, rel_tol=rel_tol)

    def test_error_at_the_rounding_floor_stops_the_subdivision(self):
        # int_0^2pi sin cancels to rounding on the first panel, whose error
        # is then 50*eps*int |sin|: bisection cannot reduce it, and the
        # estimate, far above rel_tol*|value|, is rejected
        sizes = []
        with pytest.raises(QuadratureFailure):
            self.integrate(counting(np.sin, sizes), 0.0, 2.0 * math.pi)
        assert sum(sizes) == 21


class TestGaussKronrod(TestAdaptiveQuad):
    integrate = staticmethod(gauss_kronrod)

    def test_err_scale_accepts_an_integral_that_cancels(self):
        # int_0^2pi sin = 0: the error estimate dwarfs the value itself
        with pytest.raises(QuadratureFailure):
            gauss_kronrod(np.sin, 0.0, 2.0 * math.pi)
        sizes = []
        assert abs(gauss_kronrod(counting(np.sin, sizes), 0.0, 2.0 * math.pi,
                                 err_scale=1.0)) < 1e-12
        assert sum(sizes) == 21

    @pytest.mark.parametrize("degree", [0, 1, 10, 19, 20, 29])
    def test_one_panel_is_exact_for_polynomials(self, degree):
        # the 21-point Kronrod rule integrates degree 31 exactly; the
        # embedded 10-point Gauss rule, and so the error estimate, only
        # degree 19, hence the loose rel_tol of the one-panel estimate
        poly = np.polynomial.Polynomial(np.random.default_rng(degree).uniform(0.0, 1.0,
                                                                              degree + 1))
        want = poly.integ()(1.3) - poly.integ()(0.2)
        got = gauss_kronrod(poly, 0.2, 1.3, limit=1, rel_tol=1e-6)
        assert got == pytest.approx(want, rel=1e-14)

    @pytest.mark.parametrize("fn,a,b,points", [
        (lambda x: np.exp(-((x - 0.4) / 0.01) ** 2), 0.0, 1.0, None),
        (lambda x: np.abs(x - 0.3), 0.0, 1.0, [0.3]),
        (lambda x: np.cos(50.0 * x), 0.0, 10.0, None),
    ], ids=["narrow_gaussian", "kink_at_breakpoint", "oscillation"])
    def test_agrees_with_quadpack(self, fn, a, b, points):
        assert gauss_kronrod(fn, a, b, points=points) == \
            pytest.approx(adaptive_quad(fn, a, b, points=points), rel=1e-12)

    def test_bisects_several_intervals_per_call(self):
        # as many nodes as QUADPACK's calls, in a handful of calls
        quadpack, rounds = [], []
        adaptive_quad(counting(lambda x: np.cos(50.0 * x), quadpack), 0.0, 10.0)
        gauss_kronrod(counting(lambda x: np.cos(50.0 * x), rounds), 0.0, 10.0)
        assert len(rounds) <= 10 and sum(rounds) <= 1.1 * len(quadpack)


def by_index(fns, sizes=None):
    """The batch integrand that evaluates fns[i] on the nodes of integral i,
    appending the number of nodes of each call to sizes if given."""
    def integrand(x, index):
        if sizes is not None:
            sizes.append(x.size)
        out = np.empty_like(x)
        for i, fn in enumerate(fns):
            mine = index == i
            out[mine] = fn(x[mine])
        return out
    return integrand


def judged(values, errors):
    """Each estimate judged as gauss_kronrod judges its one, in order: the
    first untrusted one raises its QuadratureFailure."""
    return [_accepted(val, err, 1e-10, 0.0) for val, err in zip(values, errors)]


class TestBatch:
    """A batch integrates each integral as its scalar call does."""

    # different intervals and breakpoints, one limit; the third exhausts its budget
    FNS = [lambda x: np.exp(-((x - 0.4) / 0.01) ** 2), lambda x: np.abs(x - 0.3),
           lambda x: np.cos(2000.0 * x), lambda x: np.cos(50.0 * x)]
    A, B = [0.0, -1.0, 0.0, 0.0], [1.0, 1.0, 10.0, 10.0]
    POINTS = [None, [0.3, 5.0], None, [2.5]]
    LIMIT = 200

    def scalar(self, i):
        return gauss_kronrod(self.FNS[i], self.A[i], self.B[i], points=self.POINTS[i],
                             limit=self.LIMIT)

    def test_values_are_the_scalar_calls(self):
        # the batch shares each round's node table, whose rows move: the last
        # bits of a value may differ, its intervals do not
        values, errors = gauss_kronrod_estimates(by_index(self.FNS), self.A, self.B,
                                                 points=self.POINTS, limit=self.LIMIT)
        for i in (0, 1, 3):
            assert values[i] == pytest.approx(self.scalar(i), rel=1e-14, abs=1e-300)
        with pytest.raises(QuadratureFailure) as scalar:
            self.scalar(2)
        with pytest.raises(QuadratureFailure) as batch:
            judged(values, errors)
        assert str(batch.value) == str(scalar.value)

    def test_one_call_per_round(self):
        # each round bisects every unfinished integral in one call, so the
        # batch makes as many calls as its longest integral, on all their nodes
        batch = []
        gauss_kronrod_estimates(by_index(self.FNS, batch), self.A, self.B,
                                points=self.POINTS, limit=self.LIMIT)
        alone = []
        for i in range(4):
            alone.append([])
            gauss_kronrod_estimates(by_index(self.FNS[i:i + 1], alone[i]),
                                    self.A[i:i + 1], self.B[i:i + 1],
                                    points=self.POINTS[i:i + 1], limit=self.LIMIT)
        assert len(batch) == max(len(sizes) for sizes in alone)
        assert sum(batch) == sum(map(sum, alone))

    def test_first_failure_raises(self):
        # integrals 1 and 3 fail: 1 with its exhausted budget, 3 cancelling to zero
        fns = [np.exp, lambda x: np.cos(2000.0 * x), np.exp, np.sin]
        a, b = [0.0] * 4, [1.0, 10.0, 2.0, 2.0 * math.pi]
        with pytest.raises(QuadratureFailure) as first:
            gauss_kronrod(fns[1], a[1], b[1], limit=200)
        with pytest.raises(QuadratureFailure) as batch:
            judged(*gauss_kronrod_estimates(by_index(fns), a, b, limit=200))
        assert str(batch.value) == str(first.value)
        # the cancelling one fails on its own too
        with pytest.raises(QuadratureFailure) as batch:
            judged(*gauss_kronrod_estimates(by_index(fns[2:]), a[2:], b[2:]))
        assert "too large" in str(batch.value)

    def test_one_entry_per_integral(self):
        with pytest.raises(ValueError):
            gauss_kronrod_estimates(by_index([np.exp] * 2), [0.0, 0.0], [1.0])
        with pytest.raises(ValueError):
            gauss_kronrod_estimates(by_index([np.exp] * 2), [0.0, 0.0], [1.0, 1.0],
                                    points=[None])


def test_quadpack_reads_scipy_integrate():
    # tests that count QUADPACK calls patch quad on this module
    import scipy.integrate
    assert quadutil._integrate() is scipy.integrate
