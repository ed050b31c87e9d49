"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Criteria cover the sharp linear decay rates, multiplier correctness, the
torus/oracle cross-validation, existence- and blow-up-regime simulations,
the (p, q) phase-diagram dichotomy, the test-function identities and the
fractional-Laplacian two-method cross-check.  Tolerances are fixed here,
not calibrated; the heavy simulations run at the configurations stated in
each test body.
"""

import math
import time
from fractions import Fraction

import numpy as np
import pytest

from sevolab import cli
from sevolab.exponents import Regime, SystemParams, classify_regime, gamma_exponents
from sevolab.fitting import compare_rates, fit_power_law
from sevolab.multipliers import ode_residual, propagator
from sevolab.oracle import NormKind, decay_series, linear_norm
from sevolab.profiles import GaussianProfile
from sevolab.testfn import (
    BracketCombo,
    TestFunctionSpec,
    envelope_ratio,
    fractional_laplacian_bracket,
    fractional_laplacian_fourier,
    fractional_laplacian_gamma,
    plancherel_pairing,
)
from sevolab.torus import GridSpec, InitialData, run, t_valid


@pytest.fixture
def report(capsys):
    def _report(criterion: str, passed: bool, detail: str):
        with capsys.disabled():
            status = "PASS" if passed else "FAIL"
            print(f"\n[{status}] {criterion}: {detail}")
        assert passed, f"{criterion}: {detail}"
    return _report


class TestCriterion1LinearDecayRates:
    def test_oracle_slopes_match_sharp_rates(self, report):
        start = time.perf_counter()
        g = GaussianProfile(1.0, 1.0)
        t_grid = np.geomspace(1e2, 1e5, 14)
        offsets = {NormKind.SOLUTION_L2: 0.0, NormKind.HOMOGENEOUS_SIGMA: -0.5,
                   NormKind.TIME_DERIVATIVE: -1.0}
        worst = 0.0
        for sigma in (1.0, 1.5, 2.0):
            for n in (1, 2, 3):
                for kind, offset in offsets.items():
                    series = decay_series(g, None, sigma, n, kind, t_grid)
                    fit = fit_power_law(series, (1e2, 1e5))
                    predicted = -n / (4.0 * sigma) + offset
                    worst = max(worst, abs(fit.exponent - predicted))
        elapsed = time.perf_counter() - start
        report("criterion 1 (linear decay rates)",
               worst <= 0.05,
               f"max |fit - predicted| = {worst:.4f} (tol 0.05), "
               f"9 (sigma, n) pairs x 3 norms, {elapsed:.1f}s")


class TestCriterion2MultiplierCorrectness:
    def test_residual_semigroup_and_initial_identities(self, report):
        seam = {s: 0.25 ** (1.0 / (2.0 * s)) for s in (1.0, 1.5, 2.0)}
        worst_resid = 0.0
        for t in (0.1, 0.5, 1.0, 5.0, 10.0):
            for sigma in (1.0, 1.5, 2.0):
                for xi in (0.0, 0.2, seam[sigma], 0.8, 1.0):
                    worst_resid = max(worst_resid,
                                      ode_residual(t, xi, sigma, 1e-3))
        rng = np.random.default_rng(11)
        worst_semi = 0.0
        for _ in range(60):
            t, s = rng.uniform(0.05, 15.0, 2)
            xi = rng.uniform(0.0, 2.0)
            sigma = rng.uniform(1.0, 2.5)
            full = propagator(t + s, xi, sigma)
            split = propagator(t, xi, sigma) @ propagator(s, xi, sigma)
            scale = max(np.max(np.abs(full)), 1e-30)
            worst_semi = max(worst_semi, np.max(np.abs(full - split)) / scale)
        worst_init = 0.0
        for xi in (0.0, 0.3, seam[1.5], 2.0):
            (k0, k1), (dk0, dk1) = propagator(0.0, xi, 1.5)
            worst_init = max(worst_init, abs(k0 - 1), abs(k1),
                             abs(dk0), abs(dk1 - 1))
        passed = worst_resid <= 1e-6 and worst_semi <= 1e-10 and worst_init <= 1e-12
        report("criterion 2 (multiplier correctness)", passed,
               f"ODE residual {worst_resid:.2e} (tol 1e-6), "
               f"semigroup {worst_semi:.2e} (tol 1e-10), "
               f"t=0 identities {worst_init:.2e} (tol 1e-12)")


class TestCriterion3TorusOracleCrossValidation:
    def test_linear_norms_match_oracle_within_one_percent(self, report):
        start = time.perf_counter()
        params = SystemParams(1, 1.0, 1.0, 3, 4)
        grid = GridSpec(1, 4096, 200.0)
        g = GaussianProfile(1e-2, 1.0)
        data = InitialData(g, g, g, g)
        horizon = t_valid(grid, params)
        times = sorted(set(np.geomspace(1.0, horizon, 16)))
        result = run(grid, data, params, horizon, times, linear_only=True)
        kinds = {"l2": NormKind.SOLUTION_L2, "dsigma": NormKind.HOMOGENEOUS_SIGMA,
                 "dt": NormKind.TIME_DERIVATIVE}
        worst = 0.0
        for side in ("u", "v"):
            for label, kind in kinds.items():
                key = f"{side}_{label}"
                for t, val in result.series[key].entries:
                    if t == 0.0:
                        continue
                    oracle_val = linear_norm(g, g, t, 1.0, 1, kind)
                    worst = max(worst, abs(val - oracle_val) / oracle_val)
        elapsed = time.perf_counter() - start
        report("criterion 3 (torus/oracle cross-validation)",
               worst <= 0.01,
               f"max relative deviation {worst:.2e} over six norms, "
               f"t <= {horizon:.0f} (tol 1%), {elapsed:.0f}s")


class TestCriterion4ExistenceRegime:
    def test_small_data_run_decays_at_predicted_rates(self, report):
        start = time.perf_counter()
        params = SystemParams(1, 1.0, 1.0, 3.0, 4.0, eps=0.01)
        assert classify_regime(params).regime is Regime.EXISTENCE_THM11
        grid = GridSpec(1, 2048, 200.0)
        g = GaussianProfile(1e-2, 1.0)
        data = InitialData(g, g, g, g)
        horizon = min(620.0, t_valid(grid, params))
        times = sorted(set([0.0, horizon]) | set(np.geomspace(1.0, horizon, 28)))
        result = run(grid, data, params, horizon, times)

        no_blowup = result.blowup is None
        window = (80.0, horizon)
        fits = {k: fit_power_law(result.series[k], window)
                for k in ("u_l2", "u_dsigma", "u_dt", "v_l2")}
        v_ok = compare_rates(fits["v_l2"], -0.25, 0.1)
        u_ok = (compare_rates(fits["u_l2"], -0.24, 0.05, one_sided=True)
                and compare_rates(fits["u_dsigma"], -0.74, 0.05, one_sided=True)
                and compare_rates(fits["u_dt"], -1.24, 0.05, one_sided=True))
        elapsed = time.perf_counter() - start
        report("criterion 4 (existence regime)",
               no_blowup and v_ok and u_ok,
               f"no blow-up: {no_blowup}; v slope {fits['v_l2'].exponent:.3f} "
               f"vs -0.25 (+-0.1); u slopes "
               f"({fits['u_l2'].exponent:.3f}, {fits['u_dsigma'].exponent:.3f}, "
               f"{fits['u_dt'].exponent:.3f}) one-sided vs "
               f"(-0.24, -0.74, -1.24) + 0.05, {elapsed:.0f}s")


class TestCriterion5BlowupRegime:
    def test_blowup_detected_and_monotone_in_amplitude(self, report):
        start = time.perf_counter()
        params = SystemParams(1, 1.0, 1.0, 2.0, 2.0)
        assert classify_regime(params).regime is Regime.BLOWUP_THM13
        grid = GridSpec(1, 256, 20.0)
        t_max = 4000.0
        detection = []
        for amp in (1e-2, 1e-1, 1.0):
            g = GaussianProfile(amp, 1.0)
            data = InitialData(u1=g, v1=g)
            times = sorted(set([0.0, t_max]) | set(np.geomspace(1.0, t_max, 30)))
            result = run(grid, data, params, t_max, times)
            detection.append(result.blowup["time"] if result.blowup else math.inf)
        all_detected = all(math.isfinite(t) and t <= t_max for t in detection)
        monotone = detection[0] >= detection[1] >= detection[2]
        elapsed = time.perf_counter() - start
        report("criterion 5 (blow-up regime)",
               all_detected and monotone,
               f"detection times {['%.0f' % t for t in detection]} for "
               f"amplitudes [1e-2, 1e-1, 1], nonincreasing: {monotone}, "
               f"{elapsed:.0f}s")


ACCEPTANCE_SWEEP = {
    "p_range": [1.5, 4.5, 0.5],
    "q_range": [1.5, 4.5, 0.5],
    "fixed": {"n": 1, "sigma1": 1.0, "sigma2": 1.0, "eps": 0.01},
    "cell": {
        "grid": {"n_dim": 1, "points_per_dim": 2048, "half_length": 200.0},
        "amplitude": 0.01, "width": 1.0, "t_max": 500.0,
        "record_count": 24, "fit_t_min": 60.0,
    },
    "seed": 0,
}


def strict_blowup(p: float, q: float, n: int = 1, sigma: float = 1.0) -> bool:
    lhs = Fraction(1) + Fraction(max(p, q)).limit_denominator(100)
    pq = Fraction(p).limit_denominator(100) * Fraction(q).limit_denominator(100)
    return lhs / (pq - 1) > Fraction(n, 1) / (2 * Fraction(sigma).limit_denominator(100))


class TestCriterion6PhaseDiagramDichotomy:
    def test_sweep_produces_no_forbidden_cells(self, report):
        start = time.perf_counter()
        cfg = cli.load_sweep_config(ACCEPTANCE_SWEEP)
        rows = cli.run_sweep(cfg)
        elapsed = time.perf_counter() - start

        forbidden_existence = [
            (r["p"], r["q"]) for r in rows
            if r["predicted"] in ("ExistenceThm11", "ExistenceThm12")
            and r["observed"] == "BlewUp"]
        forbidden_blowup = [
            (r["p"], r["q"]) for r in rows
            if r["predicted"] == "BlowupThm13" and strict_blowup(r["p"], r["q"])
            and r["observed"] == "Decayed"]
        errors = [r for r in rows if r["error"]]
        counts = {}
        for r in rows:
            counts[r["observed"]] = counts.get(r["observed"], 0) + 1
        passed = not forbidden_existence and not forbidden_blowup and not errors
        report("criterion 6 (phase-diagram dichotomy)", passed,
               f"{len(rows)} cells in {elapsed:.0f}s; observed counts {counts}; "
               f"existence-predicted-but-blew-up: {forbidden_existence}; "
               f"strict-blowup-predicted-but-decayed: {forbidden_blowup}; "
               f"cell errors: {len(errors)}")

    def test_resolved_cells_lie_on_their_predicted_side(self, report):
        # supplementary to the dichotomy: any BlewUp/Grew cell satisfies the
        # blow-up inequality, any Decayed cell its strict complement
        cfg = cli.load_sweep_config(ACCEPTANCE_SWEEP)
        misplaced = []
        for p in cfg["p_values"]:
            for q in cfg["q_values"]:
                lhs = (1 + max(p, q)) / (p * q - 1)
                blow_side = lhs >= 0.5
                params = SystemParams(1, 1.0, 1.0, p, q)
                regime = classify_regime(params).regime
                if regime in (Regime.EXISTENCE_THM11, Regime.EXISTENCE_THM12) \
                        and blow_side:
                    misplaced.append((p, q))
        report("criterion 6 (prediction side-consistency)", not misplaced,
               f"existence predictions on the blow-up side: {misplaced}")


class TestCriterion7TestFunctionIdentities:
    def test_scaling_law(self, report):
        worst = 0.0
        for gamma in (1.25, 1.5, 2.5):
            for r in (1.5, 2.0):
                for R in (3.0, 7.3):
                    spec = TestFunctionSpec(gamma=gamma, r=r, R=R)
                    for x in (0.0, 0.7, 5.3, 40.0):
                        direct = fractional_laplacian_gamma(spec, x, 1,
                                                            factored=False)
                        factored = fractional_laplacian_gamma(spec, x, 1,
                                                              factored=True)
                        denom = max(abs(factored), 1e-300)
                        worst = max(worst, abs(direct - factored) / denom)
        report("criterion 7a (scaling law)", worst <= 1e-8,
               f"max relative error {worst:.2e} over the (gamma, r, R, x) "
               f"suite (tol 1e-8)")

    def test_envelope_bounds_all_cases(self, report):
        start = time.perf_counter()
        xs = [0.0] + list(np.geomspace(0.1, 1e3, 7))
        cases = {}
        # r + 2*[gamma] below, at, and above the dimension
        case1, c1 = envelope_ratio(1.5, 0.5, 3, xs)
        case2, c2 = envelope_ratio(1.5, 1.0, 3, xs)
        case3, c3 = envelope_ratio(1.5, 2.0, 1, xs)
        cases = {case1: c1, case2: c2, case3: c3}
        finite = all(math.isfinite(c) and c > 0 for c in cases.values())
        elapsed = time.perf_counter() - start
        report("criterion 7b (decay envelopes)",
               set(cases) == {"below", "log", "above"} and finite,
               f"bound constants {dict((k, round(v, 3)) for k, v in cases.items())}, "
               f"|x| up to 1e3, {elapsed:.0f}s")

    def test_plancherel_pairing(self, report):
        worst = 0.0
        for sigma, r, R, width in ((1.5, 2.0, 4.0, 1.0), (1.25, 1.5, 2.0, 1.3)):
            spec = TestFunctionSpec(gamma=sigma, r=r, R=R)
            lhs, rhs = plancherel_pairing(spec, GaussianProfile(1.0, width))
            worst = max(worst, abs(lhs - rhs) / abs(lhs))
        report("criterion 7c (Plancherel pairing)", worst <= 1e-6,
               f"max residual {worst:.2e} (tol 1e-6)")

    def test_gamma2_sign_on_rational_grid(self, report):
        checked = 0
        mismatches = []
        for n in (1, 2):
            for sigma in (Fraction(1), Fraction(3, 2)):
                for pk in range(3, 13):
                    for qk in range(pk, 18, 2):
                        p = Fraction(pk, 2)
                        q = Fraction(qk, 2)
                        if p <= 1 or q <= 1:
                            continue
                        params = SystemParams(n, float(sigma), float(sigma),
                                              float(p), float(q))
                        _, g2 = gamma_exponents(params)
                        lhs = (1 + q) / (p * q - 1)
                        rhs = Fraction(n) / (2 * sigma)
                        checked += 1
                        if lhs > rhs and not g2 < 0:
                            mismatches.append((p, q))
                        elif lhs == rhs and abs(g2) > 1e-12:
                            mismatches.append((p, q))
                        elif lhs < rhs and not g2 > 0:
                            mismatches.append((p, q))
        report("criterion 7d (gamma2 sign vs blow-up inequality)",
               checked >= 200 and not mismatches,
               f"{checked} rational grid points, mismatches: {mismatches}")


class TestCriterion8FractionalCrossCheck:
    def test_two_evaluators_agree(self, report):
        start = time.perf_counter()
        worst = 0.0
        for s in (0.25, 0.5, 0.75):
            for ell in (2.0, 3.0, 5.0):
                combo = BracketCombo(((1.0, ell),))
                scale = abs(fractional_laplacian_fourier(combo, s, 0.0))
                for x in (0.0, 0.4, 3.0, 10.0):
                    hyper = fractional_laplacian_bracket(combo, s, x, 1)
                    fourier = fractional_laplacian_fourier(combo, s, x)
                    denom = max(abs(fourier), 1e-3 * scale)
                    worst = max(worst, abs(hyper - fourier) / denom)
        elapsed = time.perf_counter() - start
        report("criterion 8 (fractional-Laplacian cross-check)",
               worst <= 1e-5,
               f"max relative disagreement {worst:.2e} over (s, l, x) sample "
               f"(tol 1e-5), {elapsed:.0f}s")
