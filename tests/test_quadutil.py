import math

import pytest

from sevolab import quadutil
from sevolab.quadutil import QuadratureFailure, adaptive_quad


class TestAdaptiveQuad:
    def test_breakpoints_outside_the_interval_are_clipped(self, monkeypatch):
        seen = []
        original = quadutil.quad

        def recorded(fn, a, b, **kwargs):
            seen.append(kwargs["points"])
            return original(fn, a, b, **kwargs)

        monkeypatch.setattr(quadutil, "quad", recorded)
        got = adaptive_quad(lambda x: abs(x - 0.3), 0.0, 1.0,
                            points=[2.0, 0.3, -1.0, 0.0, 1.0])
        assert got == pytest.approx(0.3**2 / 2 + 0.7**2 / 2, rel=1e-12)
        adaptive_quad(math.exp, 0.0, 1.0, points=[-1.0, 1.0, 5.0])
        assert seen == [[0.3], None]

    def test_err_scale_accepts_an_integral_that_cancels(self):
        # int_0^2pi sin = 0: the error estimate dwarfs the value itself
        with pytest.raises(QuadratureFailure):
            adaptive_quad(math.sin, 0.0, 2.0 * math.pi)
        assert abs(adaptive_quad(math.sin, 0.0, 2.0 * math.pi, err_scale=1.0)) < 1e-12

    def test_exhausted_budget_raises(self):
        def fn(x):
            return math.cos(50.0 * x)

        with pytest.raises(QuadratureFailure):
            adaptive_quad(fn, 0.0, 10.0, limit=2)
        assert adaptive_quad(fn, 0.0, 10.0) == pytest.approx(math.sin(500.0) / 50.0,
                                                             rel=1e-10)

    @pytest.mark.parametrize("value", [math.nan, math.inf])
    def test_non_finite_integral_raises(self, value):
        with pytest.raises(QuadratureFailure):
            adaptive_quad(lambda x: value, 0.0, 1.0)
