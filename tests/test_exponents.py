import itertools
import random
from dataclasses import astuple
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sevolab.exponents import (
    Regime,
    SystemParams,
    WrongRegimeError,
    _families,
    blowup_condition,
    classify_regime,
    gamma_exponents,
    linear_rates,
    loss_of_decay,
    theoretical_rates,
)


def record(records, identifier):
    matches = [r for r in records if r.identifier == identifier]
    assert matches, f"no record {identifier} in {[r.identifier for r in records]}"
    return matches[0]


class TestCheckConditions:
    def test_exponent_conditions_hold_134(self):
        recs = classify_regime(SystemParams(1, 1, 1, 3, 4)).report
        e1 = record(recs, "exponent11A1")
        assert e1.holds
        assert e1.lhs == pytest.approx(5 / 11)
        assert e1.rhs == pytest.approx(1 / 2)
        for ident in ("exponent11A2.p", "exponent11A2.order", "exponent11A2.q"):
            assert record(recs, ident).holds

    def test_exponent11A1_fails_for_2_2(self):
        recs = classify_regime(SystemParams(1, 1, 1, 2, 2)).report
        e1 = record(recs, "exponent11A1")
        assert not e1.holds
        assert e1.lhs == pytest.approx(1.0)
        assert e1.rhs == pytest.approx(0.5)

    def test_low_dimension_branch_has_no_upper_bounds(self):
        # n <= 2*sigma2: only the lower bounds p, q >= 2 are active
        recs = classify_regime(SystemParams(2, 1, 1, 5, 7)).report
        idents = [r.identifier for r in recs if r.identifier.startswith("GN11")]
        assert idents == ["GN11A1.p_lower", "GN11A1.q_lower"]
        assert all(record(recs, i).holds for i in idents)

    def test_finite_upper_bound_branch(self):
        # n=3, sigma2=1, sigma1=2: branch 2*s2 < n <= 2*s1, p <= n/(n-2*s2) = 3
        recs = classify_regime(SystemParams(3, 2, 1, 2.5, 3)).report
        up = record(recs, "GN11A2.p_upper")
        assert up.holds and up.rhs == pytest.approx(3.0)
        recs_fail = classify_regime(SystemParams(3, 2, 1, 3.5, 3)).report
        assert not record(recs_fail, "GN11A2.p_upper").holds

    @pytest.mark.parametrize("n", range(1, 8))
    def test_second_family_mirrors_the_first(self, n):
        # swapping (sigma1, p) with (sigma2, q) maps family 11 onto family 12
        def mirrored(identifier):
            head, dot, tail = identifier.partition(".")
            if tail[:1] in ("p", "q"):
                tail = {"p": "q", "q": "p"}[tail[0]] + tail[1:]
            return head.replace("11", "12") + dot + tail

        def family(params, tag):
            return [r for r in classify_regime(params).report
                    if tag in r.identifier.partition(".")[0]]

        for s1, s2, p, q in itertools.product((1, 1.5, 2, 3), (1, 1.5, 2, 3),
                                              (1.5, 2, 3, 5), (1.5, 2, 3, 5)):
            fam11 = family(SystemParams(n, s1, s2, p, q), "11")
            fam12 = family(SystemParams(n, s2, s1, q, p), "12")
            assert ({mirrored(r.identifier): (r.holds, r.lhs, r.rhs) for r in fam11}
                    == {r.identifier: (r.holds, r.lhs, r.rhs) for r in fam12})

    def test_out_of_range_dimension(self):
        recs = classify_regime(SystemParams(9, 1, 1, 2, 3)).report
        assert not record(recs, "GN11.range").holds

    def test_boundary_equality_is_deterministic(self):
        # p exactly at 1 + 2*sigma2/n must count as satisfied
        recs = classify_regime(SystemParams(1, 1, 1, 3.0, 4)).report
        assert record(recs, "exponent11A2.p").holds


class TestClassify:
    def test_existence_first_kind(self):
        assert classify_regime(SystemParams(1, 1, 1, 3, 4)).regime \
            is Regime.EXISTENCE_THM11

    def test_existence_second_kind_mirrors(self):
        assert classify_regime(SystemParams(1, 1, 1, 4, 3)).regime \
            is Regime.EXISTENCE_THM12

    def test_blowup_for_2_2(self):
        verdict = classify_regime(SystemParams(1, 1, 1, 2, 2))
        assert verdict.regime is Regime.BLOWUP_THM13
        blow = record(verdict.report, "optimal13.2")
        assert blow.holds
        assert blow.lhs == pytest.approx(1.0)

    def test_blowup_needs_equal_orders(self):
        verdict = classify_regime(SystemParams(1, 1.5, 1, 2, 2))
        assert verdict.regime is not Regime.BLOWUP_THM13

    def test_unclassified_carries_failing_records(self):
        # n=3, sigma=1: the structural condition min(p, q) <= 1 + 2/3 cannot
        # coexist with p, q >= 2, so nothing in [2, inf) is covered by the
        # existence statements even below the critical curve.
        verdict = classify_regime(SystemParams(3, 1, 1, 2, 2))
        assert verdict.regime is Regime.UNCLASSIFIED
        failing = {r.identifier for r in verdict.report if not r.holds}
        assert "exponent11A2.p" in failing

    def test_params_hold_the_numbers_require_returns(self):
        # an int n and float orders, powers and slack, whatever number type came in
        params = SystemParams(1, 1, 1, 2, 2)
        assert [type(v) for v in astuple(params)] == [int] + [float] * 5
        assert params.sigma1 == 1.0 and type(params.sigma1) is float
        held = SystemParams(np.int64(1), np.float32(1.5), np.float32(1.5), 2, np.float32(3))
        assert held == SystemParams(1, 1.5, 1.5, 2.0, 3.0)
        assert [type(v) for v in astuple(held)] == [int] + [float] * 5

    def test_critical_boundary_counts_as_blowup(self):
        # equality in the blow-up inequality: (1+3)/(3*3-1) = 1/2 = n/(2 sigma)
        verdict = classify_regime(SystemParams(1, 1, 1, 3, 3))
        assert verdict.regime is Regime.BLOWUP_THM13

    @pytest.mark.parametrize("n", [1, 2, 3, 5])
    def test_report_is_both_families_then_the_blowup_record(self, n):
        grid = [1.0, 1.5, 2.0, 3.0]
        powers = [1.5, 2.0, 3.0, 4.5]
        for s1, s2, p, q in itertools.product(grid, grid, powers, powers):
            params = SystemParams(n, s1, s2, p, q)
            expected = sum(_families(params), [])
            if params.equal_orders():
                expected.append(blowup_condition(params))
            report = classify_regime(params).report
            assert report == tuple(expected)
            assert (report[-1].identifier == "optimal13.2") == params.equal_orders()


class TestLossOfDecay:
    def test_integrable_boundary_n2(self):
        assert loss_of_decay(SystemParams(2, 1, 1, 2, 2), "u") == pytest.approx(0.01)

    def test_equality_case(self):
        assert loss_of_decay(SystemParams(1, 1, 1, 3, 4), "u") == pytest.approx(0.01)

    def test_subthreshold_exponent(self):
        assert loss_of_decay(SystemParams(1, 1, 1, 2, 2), "u") == pytest.approx(0.51)

    def test_v_side_uses_q_and_sigma1(self):
        params = SystemParams(1, 2, 1, 2, 3)
        assert loss_of_decay(params, "v") == pytest.approx(1 - 2 / 4 + 0.01)


class TestTheoreticalRates:
    def test_example_rates(self):
        rates = theoretical_rates(SystemParams(1, 1, 1, 3, 4))
        assert rates.f1 == pytest.approx(-0.24)
        assert rates.g1 == pytest.approx(-0.25)
        assert rates.f3 == pytest.approx(-1.24)
        assert rates.g3 == pytest.approx(-1.25)

    def test_loss_formula_below_threshold(self):
        # p strictly below 1 + 2*sigma2/n: the full loss formula is active
        params = SystemParams(1, 1, 1, 2.5, 7)
        rates = theoretical_rates(params)
        assert rates.f1 == pytest.approx(-0.25 + (1 - 0.5 * 1.5 + 0.01))

    def test_wrong_regime(self):
        with pytest.raises(WrongRegimeError):
            theoretical_rates(SystemParams(1, 1, 1, 2, 2))

    def test_second_kind_puts_loss_on_v(self):
        rates = theoretical_rates(SystemParams(1, 1, 1, 4, 3))
        assert rates.f1 == pytest.approx(-0.25)
        assert rates.g1 == pytest.approx(-0.25 + 0.01)


class TestLinearRates:
    def test_sharp_rates_of_the_linear_flow(self):
        # n = 1, sigma = 2: -n/(4 sigma) = -1/8, then 1/2 and 1 less
        assert linear_rates(1, 2) == (-0.125, -0.625, -1.125)
        assert linear_rates(3, 1.5, 0.25) == (-0.25, -0.75, -1.25)

    def test_float_form_of_the_law_is_the_same_bits(self):
        # 4.0 * sigma is exact, so the float quotient is the one rounding of -n/(4 sigma)
        rng = random.Random(45)
        for _ in range(2000):
            n, sigma = rng.randint(1, 3), rng.uniform(1.0, 8.0)
            base = -n / (4.0 * sigma)
            assert linear_rates(n, sigma) == (base, base - 0.5, base - 1.0)

    @pytest.mark.parametrize("params,side", [
        (SystemParams(1, 1, 1, 3, 4), "u"), (SystemParams(1, 1, 1, 4, 3), "v"),
        (SystemParams(2, 1.5, 1.5, 2.5, 7), "u")])
    def test_theoretical_rates_are_the_linear_law_of_each_side(self, params, side):
        # the loss of decay lands on the side whose regime carries it
        loss = loss_of_decay(params, side)
        rates = theoretical_rates(params)
        assert (rates.f1, rates.f2, rates.f3) == linear_rates(
            params.n, params.sigma1, loss if side == "u" else 0.0)
        assert (rates.g1, rates.g2, rates.g3) == linear_rates(
            params.n, params.sigma2, loss if side == "v" else 0.0)


class TestGammaExponents:
    @pytest.mark.parametrize("p,q,expected", [
        (2.0, 2.0, -0.75),
        (3.0, 3.0, 0.0),
        (4.0, 4.0, 0.3125),
    ])
    def test_frozen_examples(self, p, q, expected):
        _, g2 = gamma_exponents(SystemParams(1, 1, 1, p, q))
        assert g2 == pytest.approx(expected, abs=1e-14)

    def test_sigma_mismatch(self):
        with pytest.raises(ValueError, match="sigma1 == sigma2"):
            gamma_exponents(SystemParams(1, 1.5, 1, 2, 2))

    def test_unequal_orders_are_the_wrong_regime(self):
        # the error verdict_json catches to leave the gammas null
        with pytest.raises(WrongRegimeError, match="sigma1 == sigma2"):
            gamma_exponents(SystemParams(1, 1.5, 1, 2, 2))

    @pytest.mark.parametrize("rel,equal", [(1e-13, True), (-1e-13, True),
                                           (1e-11, False), (-1e-11, False)])
    def test_one_tie_band_for_the_orders(self, rel, equal):
        # classify_regime and gamma_exponents both take equal orders from
        # SystemParams.equal_orders, whose band is REL_TOL = 1e-12
        params = SystemParams(1, 1.5, 1.5 * (1 + rel), 2, 2)
        assert params.equal_orders() is equal
        assert (classify_regime(params).regime is Regime.BLOWUP_THM13) is equal
        if equal:
            assert gamma_exponents(params) == gamma_exponents(SystemParams(1, 1.5, 1.5, 2, 2))
        else:
            with pytest.raises(WrongRegimeError):
                gamma_exponents(params)

    def test_symmetric_exponents_swap(self):
        g1a, g2a = gamma_exponents(SystemParams(1, 1, 1, 2, 3))
        g1b, g2b = gamma_exponents(SystemParams(1, 1, 1, 3, 2))
        assert g1a == pytest.approx(g2b)
        assert g2a == pytest.approx(g1b)


rational = st.fractions(min_value=Fraction(9, 8), max_value=Fraction(9, 2),
                        max_denominator=8)
sigma_rational = st.sampled_from([Fraction(1), Fraction(3, 2), Fraction(2)])


class TestProperties:
    @given(p=rational, q=rational, sigma=sigma_rational, n=st.integers(1, 4))
    @settings(max_examples=300, deadline=None)
    def test_gamma2_sign_matches_blowup_inequality(self, p, q, sigma, n):
        if q < p:
            p, q = q, p
        params = SystemParams(n, float(sigma), float(sigma), float(p), float(q))
        _, g2 = gamma_exponents(params)
        lhs = (1 + q) / (p * q - 1)
        rhs = Fraction(n) / (2 * sigma)
        if lhs > rhs:
            assert g2 < 0
        elif lhs == rhs:
            assert g2 == pytest.approx(0.0, abs=1e-12)
        else:
            assert g2 > 0

    @given(p=rational, q=rational, sigma=sigma_rational, n=st.integers(1, 4))
    @settings(max_examples=200, deadline=None)
    def test_existence_and_blowup_regions_disjoint(self, p, q, sigma, n):
        params = SystemParams(n, float(sigma), float(sigma), float(p), float(q))
        verdict = classify_regime(params)
        if verdict.regime in (Regime.EXISTENCE_THM11, Regime.EXISTENCE_THM12):
            assert not blowup_condition(params).holds

    @given(p=rational, q=rational,
           s1=sigma_rational, s2=sigma_rational, n=st.integers(1, 4))
    @settings(max_examples=200, deadline=None)
    def test_rate_gaps_are_structural(self, p, q, s1, s2, n):
        params = SystemParams(n, float(s1), float(s2), float(p), float(q))
        try:
            rates = theoretical_rates(params)
        except WrongRegimeError:
            return
        assert rates.f2 == pytest.approx(rates.f1 - 0.5)
        assert rates.f3 == pytest.approx(rates.f1 - 1.0)
        assert rates.g2 == pytest.approx(rates.g1 - 0.5)
        assert rates.g3 == pytest.approx(rates.g1 - 1.0)

    @given(p=rational, sigma2=sigma_rational, n=st.integers(1, 4))
    @settings(max_examples=200, deadline=None)
    def test_loss_of_decay_at_least_eps(self, p, sigma2, n):
        params = SystemParams(n, 2.5, float(sigma2), float(p), 3.0)
        if p <= 1 + 2 * sigma2 / n:
            assert loss_of_decay(params, "u") >= params.eps - 1e-15
