import copy
import dataclasses
import json
import math
import os
import pickle
import sys
import warnings

import numpy as np
import pytest

from sevolab import cli, exponents, torus
from sevolab.oracle import NormKind
from sevolab.profiles import GaussianProfile
from sevolab.quadutil import QuadratureFailure
from test_oracle import brute_force


#: an integer no float can hold: valid JSON, which Python reads as an int
BIG = 10**400


def run_cli(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


BASE_RUN_CONFIG = {
    "params": {"n": 1, "sigma1": 1.0, "sigma2": 1.0, "p": 3.0, "q": 4.0,
               "eps": 0.01},
    "grid": {"n_dim": 1, "points_per_dim": 128, "half_length": 20.0},
    "data": {"u0": {"kind": "gaussian", "amplitude": 0.01, "width": 1.0},
             "u1": None, "v0": None,
             "v1": {"kind": "gaussian", "amplitude": 0.01, "width": 1.0}},
    "t_max": 5.0,
    "record": {"kind": "linear", "t_min": 0.0, "t_max": 5.0, "count": 6},
    "dt": 0.05,
    "seed": 3,
}


class TestClassify:
    def test_existence_regime(self, capsys):
        code, out, _ = run_cli(capsys, "classify", "--n", "1", "--sigma1", "1",
                               "--sigma2", "1", "--p", "3", "--q", "4")
        assert code == 0
        doc = json.loads(out)
        assert doc["regime"] == "ExistenceThm11"
        assert doc["rates"]["f1"] == pytest.approx(-0.24)
        assert doc["gamma2"] is not None

    def test_blowup_regime(self, capsys):
        code, out, _ = run_cli(capsys, "classify", "--n", "1", "--sigma1", "1",
                               "--sigma2", "1", "--p", "2", "--q", "2")
        assert code == 0
        doc = json.loads(out)
        assert doc["regime"] == "BlowupThm13"
        assert doc["rates"] is None
        assert doc["gamma2"] == pytest.approx(-0.75)

    def test_mirror_branch_bounds_q(self, capsys):
        # 2*sigma1 < n <= 2*sigma2: q <= n/(n - 2*sigma1) = 3, which q = 6 breaks
        code, out, _ = run_cli(capsys, "classify", "--n", "3", "--sigma1", "1",
                               "--sigma2", "1.5", "--p", "4", "--q", "6")
        assert code == 0
        gn = [c for c in json.loads(out)["conditions"]
              if c["identifier"].startswith("GN12")]
        assert [c["identifier"] for c in gn] == [
            "GN12A2.p_lower", "GN12A2.q_lower", "GN12A2.q_upper"]
        assert gn[2] == {"identifier": "GN12A2.q_upper", "holds": False,
                         "lhs": 6.0, "rhs": 3.0}

    def test_integral_n_text_read_as_integer(self, capsys):
        # flag text is read as the number it spells, as params.n: 1.0 is in a config
        outputs = [run_cli(capsys, "classify", "--n", n, "--sigma1", "1", "--sigma2", "1",
                           "--p", "3", "--q", "4") for n in ("1", "1.0")]
        assert outputs[0][0] == 0 and outputs[1] == outputs[0]

    @pytest.mark.parametrize("command,flags", [
        ("linear-decay", ["--sigma", "1", "--kind", "l2", "--t", "log:1e2:1e3:3"]),
        ("testfn-check", ["--gamma", "1.5", "--r", "2", "--R", "8"]),
    ], ids=["linear-decay", "testfn-check"])
    def test_integral_dimension_text_read_as_integer(self, capsys, command, flags):
        # --n of linear-decay and testfn-check follows the same integer rule
        outputs = [run_cli(capsys, command, "--n", n, *flags) for n in ("2", "2.0")]
        assert outputs[0][0] == 0 and outputs[1] == outputs[0]

    @pytest.mark.parametrize("p,q", [("2", "2"), ("3", "5")])
    def test_unequal_orders_leave_the_gammas_null(self, capsys, p, q):
        # gamma_exponents refuses sigma1 != sigma2; the rates are theoretical_rates'
        code, out, _ = run_cli(capsys, "classify", "--n", "1", "--sigma1", "1.5",
                               "--sigma2", "1", "--p", p, "--q", q)
        assert code == 0
        doc = json.loads(out)
        assert (doc["gamma1"], doc["gamma2"]) == (None, None)
        params = exponents.SystemParams(1, 1.5, 1, float(p), float(q))
        try:
            rates = dataclasses.asdict(exponents.theoretical_rates(params))
        except exponents.WrongRegimeError:
            rates = None
        assert doc["rates"] == rates
        assert (rates is None) == (p == "2")

    @pytest.mark.parametrize("sigma2", [1.5, 1.0])
    def test_numpy_scalar_orders_give_the_verdict_of_their_floats(self, sigma2):
        # SystemParams holds the floats require returns, which the tie rule reads exactly
        verdicts = [cli.verdict_json(exponents.SystemParams(1, cast(1.5), cast(sigma2), 2.0, 3.0))
                    for cast in (np.float32, float)]
        assert verdicts[0] == verdicts[1]
        assert (verdicts[0]["gamma1"] is None) == (sigma2 != 1.5)

    def test_missing_flag_is_usage_error(self, capsys):
        code, _, _ = run_cli(capsys, "classify", "--n", "1")
        assert code == 1


class TestLinearDecay:
    def test_csv_and_fit_line(self, capsys):
        code, out, _ = run_cli(capsys, "linear-decay", "--sigma", "1", "--n", "1",
                               "--kind", "l2", "--t", "log:1e2:1e4:10")
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0].startswith("# config-hash: ")
        assert lines[1] == "t,norm,kind,sigma,n"
        assert len([l for l in lines if not l.startswith("#")]) == 11
        fit_line = lines[-1]
        assert fit_line.startswith("# fit: ")
        exponent = float(fit_line.split("exponent=")[1].split()[0])
        assert exponent == pytest.approx(-0.25, abs=0.05)

    def test_high_sigma_series(self, capsys, tmp_path):
        # the single QUADPACK call fails at t ~ 13 (exit 2); the oscillatory
        # split takes the times up to about 30, the single call the rest
        out = tmp_path / "decay.csv"
        code, _, err = run_cli(capsys, "linear-decay", "--sigma", "2.75", "--n", "3",
                               "--kind", "dt", "--w0-amplitude", "1", "--w0-width", "1",
                               "--w1-amplitude", "0", "--t", "log:1:100:17", "--out", str(out))
        assert code == 0, err
        rows = [line.split(",") for line in out.read_text().splitlines()[2:-1]]
        assert len(rows) == 17
        for t, norm, *_ in rows:
            want = brute_force(GaussianProfile(1.0, 1.0), None, float(t), 2.75, 3,
                               NormKind.TIME_DERIVATIVE)
            assert float(norm) == pytest.approx(want, rel=1e-9)

    def test_single_point_warns_without_fit(self, capsys):
        code, out, _ = run_cli(capsys, "linear-decay", "--sigma", "1", "--n", "1",
                               "--kind", "l2", "--t", "log:1e2:1e2:1")
        assert code == 0
        assert out.splitlines()[-1] == \
            "# warning: no fit: 1 points in window [100.0, 100.0], need >= 8"

    @pytest.mark.parametrize("kind,w0,w1", [("l2", "0", "1"), ("dt", "1", "0")])
    def test_zero_norm_keeps_the_series_without_fit(self, capsys, kind, w0, w1):
        # at t = 0 the l2 norm is |w0| and the dt norm |w1|: a zero cannot be
        # fitted in log space, yet every norm was computed
        code, out, err = run_cli(capsys, "linear-decay", "--sigma", "1", "--n", "1",
                                 "--kind", kind, "--w0-amplitude", w0,
                                 "--w1-amplitude", w1, "--t", "lin:0:10:11")
        assert code == 0, err
        lines = out.splitlines()
        rows = [line.split(",") for line in lines[2:-1]]
        assert [float(t) for t, *_ in rows] == list(range(11))
        assert float(rows[0][1]) == 0.0 and all(float(v) > 0 for _, v, *_ in rows[1:])
        assert lines[-1] == \
            "# warning: no fit: all values in the fit window must be positive"

    @pytest.mark.parametrize("spec", ["lin:-1:5:3", "lin:5:1:3"])
    def test_bad_times_fail_before_quadrature(self, capsys, monkeypatch, spec):
        def no_quadrature(*args):
            raise AssertionError("decay_series called")
        monkeypatch.setattr(cli.oracle, "decay_series", no_quadrature)
        code, _, err = run_cli(capsys, "linear-decay", "--sigma", "1", "--n", "1",
                               "--kind", "l2", "--t", spec)
        assert code == 1
        assert err.startswith("error: --t.t_min: ")

    @pytest.mark.parametrize("kind,predicted", [
        ("l2", "-0.125000"), ("dsigma", "-0.625000"), ("dt", "-1.125000")])
    def test_fit_line_predicts_the_linear_decay_law(self, capsys, kind, predicted):
        # n = 1, sigma = 2: -n/(4 sigma) = -1/8 for the l2 norm, 1/2 and 1 less for
        # the |D|^sigma and time-derivative norms
        code, out, err = run_cli(capsys, "linear-decay", "--sigma", "2", "--n", "1",
                                 "--kind", kind, "--t", "log:1e2:1e3:8")
        assert code == 0, err
        fit_line = out.splitlines()[-1]
        assert fit_line.startswith("# fit: exponent=")
        assert fit_line.endswith(f" predicted={predicted}")

    def test_bad_grid_spec(self, capsys):
        code, _, err = run_cli(capsys, "linear-decay", "--sigma", "1", "--n", "1",
                               "--kind", "l2", "--t", "nonsense")
        assert code == 1
        assert "t-grid" in err


class TestSimulate:
    def write_config(self, tmp_path, cfg):
        path = tmp_path / "run.json"
        path.write_text(json.dumps(cfg))
        return str(path)

    def test_small_run_outputs(self, capsys, tmp_path):
        path = self.write_config(tmp_path, BASE_RUN_CONFIG)
        out_dir = tmp_path / "out"
        code, out, _ = run_cli(capsys, "simulate", "--config", path,
                               "--out-dir", str(out_dir))
        assert code == 0
        norms = (out_dir / "norms.csv").read_text().splitlines()
        assert norms[0].startswith("# config-hash: ")
        assert norms[1].startswith("t,norm_u_l2,norm_u_dsigma,norm_ut,")
        events = json.loads((out_dir / "events.json").read_text())
        assert events["blowup"] is None
        assert events["regime"] == "ExistenceThm11"

    def test_determinism_byte_identical(self, capsys, tmp_path):
        path = self.write_config(tmp_path, BASE_RUN_CONFIG)
        outputs = []
        for name in ("a", "b"):
            out_dir = tmp_path / name
            code, _, _ = run_cli(capsys, "simulate", "--config", path,
                                 "--out-dir", str(out_dir))
            assert code == 0
            outputs.append((out_dir / "norms.csv").read_bytes())
        assert outputs[0] == outputs[1]

    def test_config_directory_is_an_error(self, capsys, tmp_path):
        code, stdout, err = run_cli(capsys, "simulate", "--config", str(tmp_path),
                                    "--out-dir", str(tmp_path / "out"))
        assert code == 1 and stdout == "" and err.startswith("error: ")
        assert not (tmp_path / "out").exists()

    def test_malformed_json(self, capsys, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        code, _, err = run_cli(capsys, "simulate", "--config", str(path))
        assert code == 1
        assert "invalid JSON" in err

    def test_unknown_field_rejected_with_path(self, capsys, tmp_path):
        cfg = dict(BASE_RUN_CONFIG)
        cfg["grid"] = dict(cfg["grid"], typo_field=3)
        path = self.write_config(tmp_path, cfg)
        code, _, err = run_cli(capsys, "simulate", "--config", str(path))
        assert code == 1
        assert "config.grid" in err and "typo_field" in err

    def test_events_carry_run_echo(self, capsys, tmp_path):
        path = self.write_config(tmp_path, BASE_RUN_CONFIG)
        out_dir = tmp_path / "out"
        code, _, _ = run_cli(capsys, "simulate", "--config", path,
                             "--out-dir", str(out_dir))
        assert code == 0
        echo = json.loads((out_dir / "events.json").read_text())["run"]
        assert set(echo) == {"threshold", "dt", "initial_total_norm", "steps",
                             "kernel_builds"}
        assert echo["dt"] == 0.05
        assert echo["steps"] >= 100

    def test_events_byte_identical(self, capsys, tmp_path):
        path = self.write_config(tmp_path, BASE_RUN_CONFIG)
        outputs = []
        for name in ("a", "b"):
            out_dir = tmp_path / name
            code, _, _ = run_cli(capsys, "simulate", "--config", path,
                                 "--out-dir", str(out_dir))
            assert code == 0
            outputs.append((out_dir / "events.json").read_bytes())
        assert outputs[0] == outputs[1]

    @pytest.mark.parametrize("field_path,patch", [
        ("config.data.u0.amplitude",
         {"data": dict(BASE_RUN_CONFIG["data"],
                       u0={"kind": "gaussian", "amplitude": math.nan, "width": 1.0})}),
        ("config.dt", {"dt": math.inf}),
    ])
    def test_non_finite_number_rejected_with_path(self, capsys, tmp_path,
                                                  field_path, patch):
        path = self.write_config(tmp_path, dict(BASE_RUN_CONFIG, **patch))
        code, _, err = run_cli(capsys, "simulate", "--config", path,
                               "--out-dir", str(tmp_path / "out"))
        assert code == 1
        assert field_path in err and "finite" in err
        assert not (tmp_path / "out").exists()

    def test_blowup_run_exits_zero(self, capsys, tmp_path):
        cfg = {
            "params": {"n": 1, "sigma1": 1.0, "sigma2": 1.0, "p": 2.0, "q": 2.0},
            "grid": {"n_dim": 1, "points_per_dim": 64, "half_length": 15.0},
            "data": {"u0": None, "v0": None,
                     "u1": {"kind": "gaussian", "amplitude": 3.0, "width": 1.0},
                     "v1": {"kind": "gaussian", "amplitude": 3.0, "width": 1.0}},
            "t_max": 50.0,
            "record": {"kind": "linear", "t_min": 0.0, "t_max": 50.0, "count": 26},
            "seed": 0,
        }
        path = self.write_config(tmp_path, cfg)
        out_dir = tmp_path / "out"
        code, out, _ = run_cli(capsys, "simulate", "--config", path,
                               "--out-dir", str(out_dir))
        assert code == 0
        events = json.loads((out_dir / "events.json").read_text())
        assert events["blowup"] is not None
        assert events["blowup"]["time"] <= 50.0

    def test_non_finite_peak_writes_strict_json(self, capsys, tmp_path):
        # (4 * 1e200)**2 is inf, so this run reports at its nan step with an
        # inf peak: events.json and stdout write it as null, never Infinity
        blob = {"kind": "gaussian", "amplitude": 3.0, "width": 1.0}
        cfg = {"params": {"n": 1, "sigma1": 1.0, "sigma2": 1.0, "p": 2.0, "q": 2.0},
               "grid": {"n_dim": 1, "points_per_dim": 256, "half_length": 20.0},
               "data": {"u0": None, "u1": blob, "v0": None, "v1": blob},
               "t_max": 10.0, "record": [0, 1, 2, 3, 10], "blowup_threshold": 1e200}
        out_dir = tmp_path / "out"
        code, out, err = run_cli(capsys, "simulate", "--config",
                                 self.write_config(tmp_path, cfg), "--out-dir", str(out_dir))
        assert code == 0, err

        def refuse(token):
            raise ValueError(f"not strict JSON: {token}")
        events = json.loads((out_dir / "events.json").read_text(), parse_constant=refuse)
        printed = json.loads(out, parse_constant=refuse)
        loaded = cli.load_run_config(cfg)
        result = torus.run(loaded["grid"], loaded["data"], loaded["params"], loaded["t_max"],
                           loaded["record"], blowup_threshold=loaded["blowup_threshold"])
        assert result.blowup["norm_at_detection"] == math.inf
        expected = {"time": result.blowup["time"], "norm_at_detection": None}
        assert events["blowup"] == printed["blowup"] == expected

    # ExistenceThm11 on a box whose t_valid is 24: the default window is
    # [0.1*24, 24], and every norm has 8 or more record times in it
    FIT_CONFIG = {
        "params": {"n": 1, "sigma1": 1, "sigma2": 1, "p": 3, "q": 4},
        "grid": {"n_dim": 1, "points_per_dim": 256, "half_length": 40.0},
        "data": {"u0": None, "v0": None,
                 "u1": {"kind": "gaussian", "amplitude": 0.01, "width": 1.0},
                 "v1": {"kind": "gaussian", "amplitude": 0.01, "width": 1.0}},
        "t_max": 30,
        "record": {"kind": "log", "t_min": 1, "t_max": 30, "count": 16},
    }

    def simulate(self, capsys, tmp_path, cfg):
        out_dir = tmp_path / "out"
        code, _, err = run_cli(capsys, "simulate", "--config",
                               self.write_config(tmp_path, cfg), "--out-dir", str(out_dir))
        assert code == 0, err
        return out_dir

    def test_events_fits_carry_predicted_rates_and_verdicts(self, capsys, tmp_path):
        events = json.loads((self.simulate(capsys, tmp_path, self.FIT_CONFIG)
                             / "events.json").read_text())
        rates = exponents.theoretical_rates(exponents.SystemParams(1, 1, 1, 3, 4))
        predicted = dict(zip(torus.NORM_LABELS, (rates.f1, rates.f2, rates.f3,
                                                 rates.g1, rates.g2, rates.g3)))
        assert predicted["u_l2"] == pytest.approx(-0.24)
        assert set(events["fits"]) == set(torus.NORM_LABELS)
        for label, fit in events["fits"].items():
            assert set(fit) == {"exponent", "r_squared", "window", "predicted",
                                "passed_one_sided", "passed_two_sided"}
            assert fit["predicted"] == predicted[label]
            assert fit["window"] == pytest.approx([2.4, 24.0], rel=1e-15)
            assert fit["passed_one_sided"] is (fit["exponent"] <= predicted[label] + 0.1)
            assert fit["passed_two_sided"] is (abs(fit["exponent"] - predicted[label]) <= 0.1)

    def test_fit_window_and_listed_record_times(self, capsys, tmp_path):
        listed = [2, 4, 6, 8, 10, 12, 14, 16, 18, 20]
        out_dir = self.simulate(capsys, tmp_path,
                                dict(self.FIT_CONFIG, fit_window=[2, 20], record=listed))
        fits = json.loads((out_dir / "events.json").read_text())["fits"]
        assert all(fit["window"] == [2, 20] and "exponent" in fit for fit in fits.values())
        rows = (out_dir / "norms.csv").read_text().splitlines()[2:]
        assert [float(row.split(",")[0]) for row in rows] == [0, *listed, 30]


class TestStepSequence:
    """The step sequence is pinned: a change of grid layout or transform must
    leave ``default_dt`` (through ``GridSpec.xi_max``) and every step time
    where they are, as the frozen benchmark blow-up times lie on them."""

    @pytest.mark.parametrize("dt,echo_dt,steps", [(0.05, 0.05, 100),
                                                  ("auto", 0.06257744563882642, 80)])
    def test_base_config_echo(self, dt, echo_dt, steps):
        cfg = cli.load_run_config(dict(BASE_RUN_CONFIG, dt=dt))
        result = torus.run(cfg["grid"], cfg["data"], cfg["params"], cfg["t_max"],
                           cfg["record"], dt=cfg["dt"],
                           blowup_threshold=cfg["blowup_threshold"])
        assert result.config_echo["dt"] == echo_dt
        assert result.config_echo["steps"] == steps

    def test_acceptance_sweep_cell_blowup_time(self):
        # the (1.5, 1.5) cell of the acceptance sweep (tests/test_acceptance.py)
        sweep = dict(SWEEP_CONFIG, p_range=[1.5, 1.5, 0.5], q_range=[1.5, 1.5, 0.5],
                     seed=0, cell={"grid": {"n_dim": 1, "points_per_dim": 2048,
                                            "half_length": 200.0},
                                   "amplitude": 0.01, "width": 1.0, "t_max": 500.0,
                                   "record_count": 24, "fit_t_min": 60.0})
        task, = cli.load_sweep_config(sweep)["tasks"]
        result = torus.run(task["grid"], task["data"], task["params"], task["t_max"],
                           task["record"], dt=task["dt"],
                           blowup_threshold=task["blowup_threshold"])
        assert result.config_echo["dt"] == 0.03908138622918087
        assert result.config_echo["steps"] == 1739
        assert result.blowup["time"] == 67.65320967160956


SWEEP_CONFIG = {
    "p_range": [2.0, 2.5, 0.5],
    "q_range": [2.0, 2.5, 0.5],
    "fixed": {"n": 1, "sigma1": 1.0, "sigma2": 1.0, "eps": 0.01},
    "cell": {
        "grid": {"n_dim": 1, "points_per_dim": 128, "half_length": 20.0},
        "amplitude": 0.01, "width": 0.5, "t_max": 5.0,
        "record_count": 6, "fit_t_min": 0.5,
    },
    "seed": 1,
}


class TestSweep:
    def test_small_sweep(self, capsys, tmp_path):
        path = tmp_path / "sweep.json"
        path.write_text(json.dumps(SWEEP_CONFIG))
        out = tmp_path / "phase.csv"
        code, stdout, _ = run_cli(capsys, "sweep", "--config", str(path),
                                  "--out", str(out), "--workers", "1")
        assert code == 0
        lines = out.read_text().splitlines()
        assert lines[0].startswith("# config-hash: ")
        assert lines[1].split(",")[:4] == ["p", "q", "predicted", "observed"]
        rows = [l.split(",") for l in lines[2:]]
        assert len(rows) == 4
        # rows sorted by (p, q); every cell simulated and tagged
        assert [r[0] for r in rows] == sorted(r[0] for r in rows)
        assert all(r[3] != "" for r in rows)

    def test_workers_capped_at_the_cell_count(self, monkeypatch):
        # a fork pool starts all max_workers processes at its first submit, so the
        # stand-in pool records the count it was asked for and maps in process
        counts = []

        class Pool:
            def __init__(self, max_workers):
                counts.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, tasks):
                return map(fn, tasks)

        monkeypatch.setattr(cli, "ProcessPoolExecutor", Pool)
        monkeypatch.setattr(cli, "sweep_cell", lambda task: dict(task))
        tasks = [{"p": 3.0, "q": 2.0}, {"p": 2.0, "q": 2.0}]
        for workers in (5000, 2):
            assert cli.run_sweep({"tasks": tasks}, workers=workers) == tasks[::-1]
        assert cli.run_sweep({"tasks": tasks[:1]}, workers=5000) == tasks[:1]
        assert counts == [2, 2]

    def test_default_workers_are_the_usable_cpus(self, monkeypatch):
        # 1 CPU in the affinity mask of a 64-CPU host: no pool, every cell here
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: 64)
        monkeypatch.setattr(cli, "ProcessPoolExecutor",
                            lambda **_: pytest.fail("started a process pool"))
        monkeypatch.setattr(cli, "sweep_cell", lambda task: dict(task, pid=os.getpid()))
        rows = cli.run_sweep({"tasks": [{"p": 3.0, "q": 2.0}, {"p": 2.0, "q": 2.0}]})
        assert rows == [{"p": p, "q": 2.0, "pid": os.getpid()} for p in (2.0, 3.0)]

    @pytest.mark.parametrize("field", ["p_range", "q_range"])
    def test_empty_range_rejected(self, capsys, tmp_path, field):
        # hi < lo would be a sweep of no cells; lo == hi is one value
        cfg = dict(SWEEP_CONFIG, **{field: [3.0, 2.0, 0.5]})
        path = tmp_path / "sweep.json"
        path.write_text(json.dumps(cfg))
        out = tmp_path / "phase.csv"
        code, _, err = run_cli(capsys, "sweep", "--config", str(path),
                               "--out", str(out), "--workers", "1")
        assert code == 1
        assert err == f"error: config.{field}: expected lo <= hi, got [3, 2]\n"
        assert not out.exists()

    @pytest.mark.parametrize("bounds,values", [
        # hi 5e-11 short of 2.5 is past the exponents' relative band of 1e-12
        ([2, 2.49999999995, 0.5], [2.0]),
        ([2, 2.5 - 1e-13, 0.5], [2.0, 2.5]),  # inside it, 2.5 ties with hi
    ])
    def test_range_ends_by_the_exponents_tie_rule(self, bounds, values):
        cfg = cli.load_sweep_config(dict(SWEEP_CONFIG, p_range=bounds, q_range=bounds))
        assert cfg["p_values"] == cfg["q_values"] == values

    def test_window_of_exactly_one(self, capsys, tmp_path):
        # the sweep's own record times run from 1 to min(t_max, t_valid) = 1
        cfg = copy.deepcopy(SWEEP_CONFIG)
        cfg["cell"]["t_max"] = 1.0
        tasks = cli.load_sweep_config(cfg)["tasks"]
        assert [task["record"] for task in tasks] == [[0.0, 1.0]] * 4
        path = tmp_path / "sweep.json"
        path.write_text(json.dumps(cfg))
        code, _, _ = run_cli(capsys, "sweep", "--config", str(path),
                             "--out", str(tmp_path / "phase.csv"), "--workers", "1")
        assert code == 0

    def test_unclassified_cells_simulated(self, capsys, tmp_path):
        cfg = dict(SWEEP_CONFIG, p_range=[1.5, 1.5, 1.0], q_range=[1.5, 1.5, 1.0])
        path = tmp_path / "sweep.json"
        path.write_text(json.dumps(cfg))
        out = tmp_path / "phase.csv"
        code, _, _ = run_cli(capsys, "sweep", "--config", str(path),
                             "--out", str(out), "--workers", "1")
        assert code == 0
        row = out.read_text().splitlines()[2].split(",")
        assert row[2] == "BlowupThm13"  # (1.5, 1.5) is inside the blow-up region
        assert row[3] != ""

    def test_out_dash_writes_only_the_csv_to_stdout(self, capsys, tmp_path):
        # the summary goes to stderr, so stdout holds the CSV's bytes and no more
        path = tmp_path / "sweep.json"
        path.write_text(json.dumps(SWEEP_CONFIG))
        out = tmp_path / "phase.csv"
        code, _, _ = run_cli(capsys, "sweep", "--config", str(path),
                             "--out", str(out), "--workers", "1")
        assert code == 0
        code, stdout, err = run_cli(capsys, "sweep", "--config", str(path),
                                    "--out", "-", "--workers", "1")
        assert code == 0
        assert stdout.encode() == out.read_bytes()
        summary = json.loads(err)
        assert (summary["cells"], summary["errors"], summary["out"]) == (4, 0, "-")

    def test_determinism(self, capsys, tmp_path):
        path = tmp_path / "sweep.json"
        path.write_text(json.dumps(SWEEP_CONFIG))
        outputs = []
        for name in ("a.csv", "b.csv"):
            out = tmp_path / name
            code, _, _ = run_cli(capsys, "sweep", "--config", str(path),
                                 "--out", str(out), "--workers", "1")
            assert code == 0
            outputs.append(out.read_bytes())
        assert outputs[0] == outputs[1]

    def test_zero_initial_total_has_no_ratio(self, capsys, tmp_path):
        # the samples of 1e-300 * exp(-r**2/(2 * 0.01**2)) underflow: every norm
        # reads 0, and 0/0 is no growth
        cfg = copy.deepcopy(SWEEP_CONFIG)
        cfg["cell"].update(amplitude=1e-300, width=0.01)
        path = tmp_path / "sweep.json"
        path.write_text(json.dumps(cfg))
        out = tmp_path / "phase.csv"
        code, stdout, _ = run_cli(capsys, "sweep", "--config", str(path),
                                  "--out", str(out), "--workers", "1")
        assert code == 0
        rows = [dict(zip(cli.SWEEP_COLUMNS, line.split(",")))
                for line in out.read_text().splitlines()[2:]]
        assert len(rows) == 4
        assert all((r["observed"], r["final_ratio"]) == ("Inconclusive", "") for r in rows)
        warnings = json.loads(stdout)["warnings"]
        assert sorted(warnings) == ["2,2", "2,2.5", "2.5,2", "2.5,2.5"]
        assert all(any("initial total norm is 0" in w for w in cell)
                   for cell in warnings.values())

    def test_slopes_are_the_fits_of_simulate(self, capsys, tmp_path):
        # one cell, and the same run through simulate with the cell's fit window
        cfg = {"p_range": [3.0, 3.0, 1.0], "q_range": [4.0, 4.0, 1.0],
               "fixed": {"n": 1, "sigma1": 1.0, "sigma2": 1.0},
               "cell": {"grid": {"n_dim": 1, "points_per_dim": 256, "half_length": 40.0},
                        "amplitude": 0.01, "width": 1.0, "t_max": 30.0,
                        "record_count": 16, "fit_t_min": 2.4}}
        (task,) = cli.load_sweep_config(cfg)["tasks"]
        blob = {"kind": "gaussian", "amplitude": 0.01, "width": 1.0}
        run = {"params": {"n": 1, "sigma1": 1.0, "sigma2": 1.0, "p": 3.0, "q": 4.0},
               "grid": cfg["cell"]["grid"],
               "data": {"u0": None, "u1": blob, "v0": None, "v1": blob},
               "t_max": task["t_max"], "record": task["record"],
               "fit_window": [2.4, task["t_max"]]}
        for name, doc in (("sweep.json", cfg), ("run.json", run)):
            (tmp_path / name).write_text(json.dumps(doc))
        out = tmp_path / "phase.csv"
        code, _, err = run_cli(capsys, "sweep", "--config", str(tmp_path / "sweep.json"),
                               "--out", str(out), "--workers", "1")
        assert code == 0, err
        row = dict(zip(cli.SWEEP_COLUMNS, out.read_text().splitlines()[2].split(",")))
        code, _, err = run_cli(capsys, "simulate", "--config", str(tmp_path / "run.json"),
                               "--out-dir", str(tmp_path / "sim"))
        assert code == 0, err
        fits = json.loads((tmp_path / "sim" / "events.json").read_text())["fits"]
        assert [row[f"slope_{label}"] for label in torus.NORM_LABELS] == \
            [cli._fmt(fits[label]["exponent"]) for label in torus.NORM_LABELS]


class TestDataTooLargeForAFloatState:
    """A width-1 Gaussian of amplitude A on the CI grid (128 points, L = 20):
    2 * sum|corner samples| is about 8.02 A, past torus.SAMPLE_SUM_MAX (a
    quarter of the largest float) from A of about 5.6e306, and the "auto"
    threshold, 1e6 times the initial total, is capped at the largest float
    from A of about 7.9e301 for u0 alone and 6.7e301 for the sweep's u1 = v1."""

    GRID = {"n_dim": 1, "points_per_dim": 128, "half_length": 20.0}

    def simulate(self, capsys, tmp_path, amplitude):
        blob = {"kind": "gaussian", "amplitude": amplitude, "width": 1.0}
        cfg = dict(BASE_RUN_CONFIG, grid=self.GRID, linear_only=True, dt="auto",
                   data={"u0": blob, "u1": None, "v0": None, "v1": None})
        path = tmp_path / "run.json"
        path.write_text(json.dumps(cfg))
        out_dir = tmp_path / "out"
        return (*run_cli(capsys, "simulate", "--config", str(path), "--out-dir",
                         str(out_dir)), out_dir)

    def sweep(self, capsys, tmp_path, amplitude):
        cfg = dict(SWEEP_CONFIG, p_range=[2, 2, 0.5], q_range=[2, 2, 0.5],
                   cell=dict(SWEEP_CONFIG["cell"], grid=self.GRID, amplitude=amplitude,
                             width=1.0))
        path = tmp_path / "sweep.json"
        path.write_text(json.dumps(cfg))
        out = tmp_path / "phase.csv"
        code, stdout, err = run_cli(capsys, "sweep", "--config", str(path),
                                    "--out", str(out), "--workers", "1")
        rows = [dict(zip(cli.SWEEP_COLUMNS, line.split(",")))
                for line in out.read_text().splitlines()[2:]] if out.exists() else None
        return code, err, rows

    @pytest.mark.parametrize("amplitude", [1e305, 1e306])
    def test_past_the_threshold_cap_a_linear_run_records_every_time(self, capsys, tmp_path,
                                                                    amplitude):
        # 1e6 times the initial total overflows: the threshold is the largest float,
        # which decaying linear data never cross
        code, out, err, out_dir = self.simulate(capsys, tmp_path, amplitude)
        assert code == 0, err
        assert json.loads(out)["blowup"] is None
        events = json.loads((out_dir / "events.json").read_text())
        assert events["run"]["threshold"] == sys.float_info.max
        assert len((out_dir / "norms.csv").read_text().splitlines()) == 2 + 6

    @pytest.mark.parametrize("amplitude", [1e305, 1e306])
    def test_past_the_threshold_cap_a_cell_blows_up_as_at_1e300(self, capsys, tmp_path,
                                                                amplitude):
        # the overflow of a norm is a crossing of the capped threshold: the cell reads
        # the blow-up time of amplitude 1e300, whose threshold is finite
        rows = {a: self.sweep(capsys, tmp_path, a) for a in (1e300, amplitude)}
        for code, err, _ in rows.values():
            assert code == 0, err
        (reference,), (row,) = rows[1e300][2], rows[amplitude][2]
        assert (row["observed"], row["error"]) == ("BlewUp", "")
        assert row["blowup_time"] == reference["blowup_time"] == "6.257744563883e-02"

    @pytest.mark.parametrize("amplitude", [2e307, 1e308])
    def test_data_whose_transform_may_overflow_are_refused_at_load(self, capsys, tmp_path,
                                                                  monkeypatch, amplitude):
        runs = []
        monkeypatch.setattr(cli.torus, "run", lambda *a, **k: runs.append(a))
        code, stdout, err, out_dir = self.simulate(capsys, tmp_path, amplitude)
        assert code == 1 and stdout == "" and not out_dir.exists()
        assert err.startswith("error: config.data.u0.amplitude: the u0 profile's "
                              "transform may overflow a float")
        code, err, rows = self.sweep(capsys, tmp_path, amplitude)
        assert code == 1 and rows is None
        assert err.startswith("error: config.cell.amplitude: ")
        assert runs == []


#: JSON values for a dt or threshold: "auto", finite reals > 0, and values either
#: rule refuses
AUTO_RULE_VALUES = ["auto", 1, 0.05, 1e-300, 1e308, 0, -1, math.inf, math.nan, "fast",
                    "AUTO", True, False, None, [], {}, BIG]


@pytest.mark.parametrize("value", AUTO_RULE_VALUES, ids=repr)
@pytest.mark.parametrize("run_key,base,field", [
    ("dt", BASE_RUN_CONFIG, "dt"),
    ("blowup_threshold", SWEEP_CONFIG, "cell.blowup_threshold")], ids=["dt", "threshold"])
def test_config_reader_and_run_share_the_auto_rule(run_key, base, field, value):
    # the reader rejects at the field path exactly the values torus.run rejects, in
    # its own words; a t_max shorter than the event tolerance runs no step
    grid = torus.GridSpec(1, 16, 8.0)
    data = torus.InitialData(u0=GaussianProfile(0.01, 1.0))
    try:
        torus.run(grid, data, exponents.SystemParams(1, 1, 1, 3, 4), 1e-12, [],
                  **{run_key: value})
        run_rejects = False
    except ValueError as exc:
        assert str(exc) == (f'{run_key} must be positive: "auto" or a finite real > 0, '
                            f'got {value!r}')
        run_rejects = True
    load = cli.load_run_config if base is BASE_RUN_CONFIG else cli.load_sweep_config
    path = "config." + field
    try:
        loaded = load(patched(base, field, value))
    except cli.ConfigError as exc:
        assert str(exc) == (f'{path}: expected "auto" or a finite number > 0, '
                            f'got {cli._shown(value)}')
        assert run_rejects
    else:
        assert not run_rejects
        got = loaded[run_key] if base is BASE_RUN_CONFIG else loaded["tasks"][0][run_key]
        assert got == (value if value == "auto" else float(value))


class TestTestfnCheck:
    def test_fractional_report(self, capsys):
        code, out, _ = run_cli(capsys, "testfn-check", "--gamma", "1.5",
                               "--r", "2", "--R", "8", "--n", "1")
        assert code == 0
        doc = json.loads(out)
        assert doc["scaling_max_rel_err"] <= 1e-8
        assert doc["plancherel_residual"] <= 1e-6
        assert "above" in doc["envelope_bound_constants"]

    def test_near_integer_order(self, capsys):
        # gamma = 1.99 once overflowed in the hypersingular inner range
        code, out, _ = run_cli(capsys, "testfn-check", "--gamma", "1.99",
                               "--r", "2", "--R", "3", "--n", "3")
        assert code == 0
        doc = json.loads(out)
        assert doc["scaling_max_rel_err"] <= 1e-8
        assert math.isfinite(doc["envelope_bound_constants"]["above"])

    def test_integer_report_has_fd_residual(self, capsys):
        code, out, _ = run_cli(capsys, "testfn-check", "--gamma", "2",
                               "--r", "1.5", "--R", "4", "--n", "1")
        assert code == 0
        doc = json.loads(out)
        assert doc["fd_oracle_residual"] <= 1e-6

    # the radial differences (n = 2, 3) and, at gamma = 3, the one difference
    # on the m = 2 combo; the residuals were 2.4e-7, 2.6e-6, 1.5e-7 and 4.7e-8
    @pytest.mark.parametrize("gamma,n", [("2", "2"), ("2", "3"), ("3", "3"), ("3", "1")])
    def test_integer_fd_residual_on_every_route(self, capsys, gamma, n):
        code, out, _ = run_cli(capsys, "testfn-check", "--gamma", gamma,
                               "--r", "2", "--R", "3", "--n", n)
        assert code == 0
        assert json.loads(out)["fd_oracle_residual"] <= 1e-5

    def test_numerical_failure_exits_2(self, capsys, monkeypatch):
        def fail(*args):
            raise QuadratureFailure("quadrature error 1.0e+00 too large for value 1.0e+00")
        monkeypatch.setattr(cli.testfn, "envelope_ratio", fail)
        code, stdout, err = run_cli(capsys, "testfn-check", "--gamma", "1.5",
                                    "--r", "2", "--R", "3", "--n", "1")
        assert code == 2 and stdout == ""
        assert err.startswith("numerical failure: ")

    def test_invalid_gamma(self, capsys):
        code, _, err = run_cli(capsys, "testfn-check", "--gamma", "0.5",
                               "--r", "2", "--R", "4", "--n", "1")
        assert code == 1
        assert "gamma" in err


class Missing:
    """A field value that ``patched`` deletes."""

    def __repr__(self):
        return "MISSING"


MISSING = Missing()


def patched(cfg: dict, dotted: str, value) -> dict:
    """A deep copy of cfg with the field at the dotted path set to value, or
    deleted if value is MISSING; the empty path puts value in cfg's place."""
    if not dotted:
        return value
    out = copy.deepcopy(cfg)
    *parents, key = dotted.split(".")
    node = out
    for name in parents:
        node = node[name]
    if value is MISSING:
        del node[key]
    else:
        node[key] = value
    return out


class TestConfigReader:
    # (subcommand, field, bad value, field path reported on stderr)
    REJECTED = [
        ("simulate", "params.n", 1.5, "config.params.n"),
        ("simulate", "params.n", "1", "config.params.n"),
        ("simulate", "params.n", 2, "config.params.n"),  # grid.n_dim is 1
        ("simulate", "linear_only", "no", "config.linear_only"),
        ("simulate", "grid.points_per_dim", 128.9, "config.grid.points_per_dim"),
        ("simulate", "grid.n_dim", True, "config.grid.n_dim"),
        ("simulate", "blowup_threshold", 0, "config.blowup_threshold"),
        ("simulate", "seed", "x", "config.seed"),
        ("simulate", "dt", -1, "config.dt"),
        ("sweep", "fixed.sigma1", 0.5, "config.fixed.sigma1"),
        ("sweep", "cell.dt", "fast", "config.cell.dt"),
        ("sweep", "cell.t_max", -5, "config.cell.t_max"),
        ("sweep", "cell.width", 0, "config.cell.width"),
        # zero data: each cell's final ratio was 0/0, and every cell came out Grew
        ("sweep", "cell.amplitude", 0, "config.cell.amplitude"),
        # too wide for the half_length 20 box: 1.2e-2 of the mass lies outside
        ("simulate", "data.u0.width", 8.0, "config.data.u0.width"),
        ("sweep", "cell.width", 8.0, "config.cell.width"),
        ("linear-decay", "t", "lin:nan:10:5", "--t.t_min"),
        ("linear-decay", "t", "log:0:1e5:5", "--t.t_min"),
        ("linear-decay", "t", "log:1:0:3", "--t.t_max"),
        ("simulate", "record", {"kind": "log", "t_min": 1, "t_max": 0, "count": 3},
         "config.record.t_max"),
        # record spacings whose times do not increase, the rule of --t
        ("simulate", "record", {"kind": "linear", "t_min": 5, "t_max": 1, "count": 3},
         "config.record.t_min"),
        ("simulate", "record", {"kind": "log", "t_min": 3, "t_max": 3, "count": 4},
         "config.record.t_min"),
        ("linear-decay", "sigma", "nan", "--sigma"),
        ("linear-decay", "sigma", "0", "--sigma"),
        ("linear-decay", "w0-amplitude", "nan", "--w0-amplitude"),
        ("linear-decay", "w0-width", "inf", "--w0-width"),
        ("linear-decay", "w1-width", "-1", "--w1-width"),
        ("linear-decay", "n", "4", "--n"),
        ("testfn-check", "r", "nan", "--r"),
        ("testfn-check", "R", "inf", "--R"),
        ("testfn-check", "R", "0", "--R"),
        ("testfn-check", "gamma", "nan", "--gamma"),
        ("testfn-check", "n", "0", "--n"),
        ("classify", "n", "0", "--n"),
        ("classify", "sigma1", "0.5", "--sigma1"),
        ("classify", "sigma2", "nan", "--sigma2"),
        ("classify", "p", "inf", "--p"),
        ("classify", "p", "nan", "--p"),
        ("classify", "q", "1", "--q"),
        ("classify", "eps", "0", "--eps"),
        ("classify", "n", "x", "--n"),
        ("testfn-check", "n", "x", "--n"),
        ("linear-decay", "kind", "foo", "--kind"),
        ("linear-decay", "w0-amplitude", "x", "--w0-amplitude"),
        ("simulate", "fit_window", [10, 1], "config.fit_window"),
        ("linear-decay", "w0-amplitude", "0", "--w0-amplitude"),  # and w1 is 0
        ("simulate", "", [], "config"),  # a config that is not an object
        ("simulate", "t_max", MISSING, "config"),
        ("simulate", "fit_window", [1], "config.fit_window"),
        # GridSpec's own check, reported at the object it builds
        ("simulate", "grid.points_per_dim", 100, "config.grid"),
        ("simulate", "record", [1, 6], "config.record"),  # t_max is 5
        # a cell window min(t_max, t_valid) shorter than the first record time 1
        ("sweep", "cell.t_max", 0.5, "config.cell.t_max"),
        # integers no float can hold, which JSON and the flags' text both spell
        ("simulate", "t_max", BIG, "config.t_max"),
        ("simulate", "dt", BIG, "config.dt"),
        ("simulate", "blowup_threshold", BIG, "config.blowup_threshold"),
        ("simulate", "record", [1, BIG], "config.record[1]"),
        ("simulate", "grid.half_length", BIG, "config.grid.half_length"),
        ("simulate", "grid.points_per_dim", 2**1400, "config.grid.points_per_dim"),
        ("simulate", "data.u1", {"kind": "gaussian", "amplitude": BIG, "width": 1.0},
         "config.data.u1.amplitude"),
        ("simulate", "params.sigma1", BIG, "config.params.sigma1"),
        ("simulate", "seed", BIG, "config.seed"),
        ("sweep", "cell.record_count", BIG, "config.cell.record_count"),
        ("sweep", "p_range", [2.0, BIG, 0.5], "config.p_range[1]"),
        # a step whose five values are all 2.0 once rounded to 10 digits
        ("sweep", "p_range", [2, 2.00000000004, 1e-11], "config.p_range[2]"),
        ("sweep", "q_range", [2, 2.00000000004, 1e-11], "config.q_range[2]"),
        ("sweep", "--workers", str(BIG), "--workers"),
        ("linear-decay", "sigma", str(BIG), "--sigma"),
        ("linear-decay", "t", f"log:1:100:{BIG}", "--t.count"),
        ("classify", "p", str(BIG), "--p"),
        # record times outside [0, t_max]: a negative listed time, and a spacing
        # whose t_max passes the config's t_max of 5
        ("simulate", "record", [-1, 1], "config.record"),
        ("simulate", "record", {"kind": "linear", "t_min": 0, "t_max": 6, "count": 3},
         "config.record"),
        # a one-time spacing whose span overflows: its time is nan, which torus.run
        # refused with no field path after the output directory was made
        ("simulate", "record", {"kind": "linear", "t_min": -1e308, "t_max": 1e308, "count": 1},
         "config.record"),
        # counts of times numpy refuses to allocate (10**18 floats are 6.94 EiB), at
        # the count; numpy refuses before it allocates anything
        ("simulate", "record", {"kind": "log", "t_min": 1, "t_max": 5, "count": 10**18},
         "config.record.count"),
        ("sweep", "cell.record_count", 10**18, "config.cell.record_count"),
        ("linear-decay", "t", f"log:1:100:{10**18}", "--t.count"),
        ("linear-decay", "t", f"lin:0:100:{2**62}", "--t.count"),
        ("linear-decay", "t", f"lin:0:100:{2**63}", "--t.count"),
        ("linear-decay", "t", f"log:1:100:{10**19}", "--t.count"),
    ]
    # the flags of each flag-driven subcommand that the table patches
    FLAGS = {"classify": {"n": "1", "sigma1": "1", "sigma2": "1", "p": "3", "q": "3"},
             "linear-decay": {"sigma": "1", "n": "1", "kind": "l2", "t": "log:1e2:1e3:3"},
             "testfn-check": {"gamma": "1.5", "r": "2", "R": "8", "n": "1"}}

    @pytest.mark.parametrize("command,field,value,field_path", REJECTED,
                             ids=[f"{c}:{f}={v!r}" for c, f, v, _ in REJECTED])
    def test_rejected_with_path_and_no_output(self, capsys, tmp_path, command,
                                              field, value, field_path):
        out = tmp_path / "out"
        if command in self.FLAGS:
            flags = dict(self.FLAGS[command], **{field: value})
            argv = [command, *(x for k, v in flags.items() for x in (f"--{k}", v))]
            if command == "linear-decay":
                argv += ["--out", str(out)]
        else:
            base = BASE_RUN_CONFIG if command == "simulate" else SWEEP_CONFIG
            flag = field.startswith("--")  # a flag beside the config, which stays whole
            path = tmp_path / "config.json"
            path.write_text(json.dumps(base if flag else patched(base, field, value)))
            argv = [command, "--config", str(path),
                    "--out-dir" if command == "simulate" else "--out", str(out),
                    *((field, value) if flag else ())]
        code, stdout, err = run_cli(capsys, *argv)
        assert code == 1
        assert err.startswith(f"error: {field_path}: ")
        assert stdout == "" and not out.exists()

    def test_overflowing_span_refused_without_numpy_warnings(self):
        # the span 2e308 overflows in numpy, whose warnings were printed before the error
        record = {"kind": "linear", "t_min": -1e308, "t_max": 1e308, "count": 1}
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            with pytest.raises(cli.ConfigError, match=r"^config\.record: record times must "
                                                      r"lie in \[0, t_max\]$"):
                cli.load_run_config(dict(BASE_RUN_CONFIG, record=record))
        assert [str(w.message) for w in caught] == []

    @pytest.mark.parametrize("command,field,value", [
        ("simulate", "record.count", 10**18), ("sweep", "cell.record_count", 10**18)])
    def test_too_many_times_share_one_wording(self, capsys, tmp_path, command, field,
                                              value):
        base = BASE_RUN_CONFIG if command == "simulate" else SWEEP_CONFIG
        path = tmp_path / "config.json"
        path.write_text(json.dumps(patched(base, field, value)))
        code, _, err = run_cli(capsys, command, "--config", str(path),
                               "--out-dir" if command == "simulate" else "--out",
                               str(tmp_path / "out"))
        want = f"too many times to allocate, got {value}\n"
        assert (code, err) == (1, f"error: config.{field}: {want}")
        argv = [x for k, v in dict(self.FLAGS["linear-decay"], t=f"log:1:2:{value}").items()
                for x in (f"--{k}", v)]
        assert run_cli(capsys, "linear-decay", *argv)[::2] == (1, f"error: --t.count: {want}")

    @pytest.mark.parametrize("command", ["classify", "linear-decay"])
    def test_bad_flag_text_quoted_as_json(self, capsys, command):
        # the integer rule of classify and the choice rule of linear-decay
        # show the rejected text the same way
        argv = [x for k, v in dict(self.FLAGS[command], n="x").items()
                for x in (f"--{k}", v)]
        code, _, err = run_cli(capsys, command, *argv)
        assert code == 1
        assert err.startswith("error: --n: expected ") and err.endswith(', got "x"\n')

    def test_both_amplitudes_zero_names_the_flags(self, capsys):
        argv = [x for k, v in self.FLAGS["linear-decay"].items() for x in (f"--{k}", v)]
        code, _, err = run_cli(capsys, "linear-decay", *argv, "--w0-amplitude", "0")
        assert code == 1
        assert err == "error: --w0-amplitude: must be nonzero when --w1-amplitude is 0\n"

    def test_sweep_error_raised_before_any_cell_runs(self, capsys, tmp_path,
                                                     monkeypatch):
        runs = []
        monkeypatch.setattr(cli.torus, "run", lambda *a, **k: runs.append(a))
        for field, value in (("t_max", -5), ("width", 8.0), ("amplitude", 0)):
            bad = patched(SWEEP_CONFIG, f"cell.{field}", value)
            with pytest.raises(cli.ConfigError, match=rf"^config\.cell\.{field}: "):
                cli.load_sweep_config(bad)
            path = tmp_path / "sweep.json"
            path.write_text(json.dumps(bad))
            code, _, _ = run_cli(capsys, "sweep", "--config", str(path),
                                 "--out", str(tmp_path / "phase.csv"), "--workers", "1")
            assert code == 1
        assert runs == []

    def test_bad_output_location_rejected_before_any_run(self, capsys, tmp_path,
                                                         monkeypatch):
        runs = []
        monkeypatch.setattr(cli.torus, "run", lambda *a, **k: runs.append(a))
        a_file = tmp_path / "a_file"
        a_file.write_text("")
        sweep, run = tmp_path / "sweep.json", tmp_path / "run.json"
        sweep.write_text(json.dumps(SWEEP_CONFIG))
        run.write_text(json.dumps(BASE_RUN_CONFIG))
        for argv in (["sweep", "--config", str(sweep), "--workers", "1",
                      "--out", str(tmp_path / "no_dir" / "phase.csv")],
                     ["sweep", "--config", str(sweep), "--workers", "1",
                      "--out", str(tmp_path)],
                     ["simulate", "--config", str(run), "--out-dir", str(a_file)]):
            code, stdout, err = run_cli(capsys, *argv)
            assert code == 1 and stdout == "" and err.startswith("error: ")
        assert runs == []
        assert not (tmp_path / "no_dir").exists() and a_file.read_text() == ""

    @pytest.mark.parametrize("command", ["sweep", "linear-decay"])
    def test_empty_out_rejected_before_any_work(self, capsys, tmp_path, monkeypatch,
                                                command):
        def fail(*args, **kwargs):
            pytest.fail("ran the command's work")

        monkeypatch.setattr(cli, "run_sweep", fail)
        monkeypatch.setattr(cli.oracle, "decay_series", fail)
        sweep = tmp_path / "sweep.json"
        sweep.write_text(json.dumps(SWEEP_CONFIG))
        flags = self.FLAGS.get(command, {"config": str(sweep), "workers": "1"})
        argv = [x for k, v in flags.items() for x in (f"--{k}", v)]
        code, stdout, err = run_cli(capsys, command, *argv, "--out", "")
        assert (code, stdout) == (1, "")
        assert err == "error: --out: cannot create the file ''\n"

    def test_workers_below_one_rejected(self, capsys, tmp_path):
        path = tmp_path / "sweep.json"
        path.write_text(json.dumps(SWEEP_CONFIG))
        out = tmp_path / "phase.csv"
        code, _, err = run_cli(capsys, "sweep", "--config", str(path),
                               "--out", str(out), "--workers", "0")
        assert code == 1 and "--workers" in err
        assert not out.exists()

    @pytest.mark.parametrize("command,table,helps", [
        ("classify", cli.PARAMS_FIELDS, []),
        ("linear-decay", cli.LINEAR_DECAY_FLAGS,
         ["dimension: 1, 2 or 3", "grid spec, e.g. log:1e2:1e5:40"]),
        ("simulate", cli.SIMULATE_FLAGS, []),
        ("sweep", cli.SWEEP_FLAGS, ["process count (default: min(8, usable CPUs))"]),
        ("testfn-check", cli.TESTFN_FLAGS, ["dimension: 1, 2 or 3"]),
    ])
    def test_help_lists_every_flag_of_its_table(self, capsys, monkeypatch, command,
                                                table, helps):
        monkeypatch.setenv("COLUMNS", "200")  # one line per flag
        code, stdout, _ = run_cli(capsys, command, "--help")
        assert code == 0
        options = stdout.split("options:")[1]
        for key in table:
            assert f"  --{key.replace('_', '-')} {key.upper()}" in options
        assert all(text in options for text in helps)

    def test_sweep_tasks_carry_typed_inputs(self):
        cfg = cli.load_sweep_config(SWEEP_CONFIG)
        assert len(cfg["tasks"]) == 4
        task = cfg["tasks"][0]
        assert isinstance(task["params"], cli.exponents.SystemParams)
        assert (task["params"].p, task["params"].q) == (task["p"], task["q"])
        assert isinstance(task["grid"], cli.torus.GridSpec)
        assert isinstance(task["data"], cli.torus.InitialData)
        assert pickle.loads(pickle.dumps(task)) == task
        # the record times come from the builder of simulate's record block
        record = {"kind": "log", "t_min": 1.0, "t_max": task["t_max"], "count": 6}
        run_cfg = dict(BASE_RUN_CONFIG, t_max=task["t_max"], record=record)
        assert task["record"] == cli.load_run_config(run_cfg)["record"]

    @pytest.mark.parametrize("slot", ["u0", "u1", "v0", "v1"])
    def test_each_data_slot_lands_in_its_field(self, slot):
        g = GaussianProfile(0.02, 1.5)
        data = {k: None for k in ("u0", "u1", "v0", "v1")}
        data[slot] = {"kind": "gaussian", "amplitude": 0.02, "width": 1.5}
        got = cli.load_run_config(dict(BASE_RUN_CONFIG, data=data))["data"]
        assert [got.u0, got.u1, got.v0, got.v1] == [g if v else None for v in data.values()]
        if slot == "v1":
            assert got == cli.torus.InitialData(v1=g)

    def test_sweep_cell_data_is_both_velocities(self):
        g = GaussianProfile(0.01, 0.5)  # SWEEP_CONFIG's cell amplitude and width
        for task in cli.load_sweep_config(SWEEP_CONFIG)["tasks"]:
            assert task["data"] == cli.torus.InitialData(u1=g, v1=g)
            assert task["data"].u0 is None and task["data"].v0 is None

    def test_sweep_warnings_reach_summary(self, capsys, tmp_path):
        # width 0.5 on 128 points leaves top-octave energy above 1e-6
        path = tmp_path / "sweep.json"
        path.write_text(json.dumps(SWEEP_CONFIG))
        out = tmp_path / "phase.csv"
        code, stdout, _ = run_cli(capsys, "sweep", "--config", str(path),
                                  "--out", str(out), "--workers", "1")
        assert code == 0
        warnings = json.loads(stdout)["warnings"]
        assert set(warnings) == {"2,2", "2,2.5", "2.5,2", "2.5,2.5"}
        assert all("top-octave" in w for ws in warnings.values() for w in ws)
        assert out.read_text().splitlines()[1] == ",".join(cli.SWEEP_COLUMNS)

    @pytest.mark.parametrize("half_length", [20.0, 24.0, 36.0])
    def test_clipped_t_max_ends_the_record(self, half_length):
        # sigma 1.3 gives a non-dyadic t_valid = (L/8)**2.6 - 1 below cell.t_max
        cfg = copy.deepcopy(SWEEP_CONFIG)
        cfg["fixed"].update(sigma1=1.3, sigma2=1.3)
        cfg["cell"]["t_max"] = 1e6
        cfg["cell"]["grid"]["half_length"] = half_length
        tasks = cli.load_sweep_config(cfg)["tasks"]
        t_valid = cli.torus.t_valid(tasks[0]["grid"], tasks[0]["params"])
        for task in tasks:
            assert task["t_max"] == t_valid
            assert task["record"][-1] == task["t_max"]
            # 0 plus record_count log times, with no second point just below t_max
            assert len(task["record"]) == 6 + 1
            assert task["record"] is tasks[0]["record"]

    @pytest.mark.parametrize("spec,expected", [
        ("lin:.5:10:5", [0.5, 2.875, 5.25, 7.625, 10.0]),
        ("lin:+1:5.:3", [1.0, 3.0, 5.0]),
        ("log:1e2:1e4:03", [100.0, 1000.0, 10000.0]),
        ("log:1e2:1e2:1", [100.0]),
    ])
    def test_tgrid_spellings_accepted(self, spec, expected):
        assert cli._parse_tgrid(spec) == pytest.approx(expected, rel=1e-15)

    @pytest.mark.parametrize("spec,field_path", [
        ("lin:0:10:x", "--t.count"),
        ("lin:0:10:2.5", "--t.count"),
        ("lin:0:inf:5", "--t.t_max"),
        ("exp:1:10:5", "--t.kind"),
        ("lin:-1:5:3", "--t.t_min"),
        ("lin:5:1:3", "--t.t_min"),
        ("lin:5:5:3", "--t.t_min"),
        ("log:1e3:1e2:2", "--t.t_min"),
        # rejected before geomspace, which would warn and make a nan time
        ("log:1:-1:3", "--t.t_max"),
        ("log:1:0:3", "--t.t_max"),
    ])
    def test_tgrid_rejected_with_part(self, spec, field_path):
        with pytest.raises(cli.ConfigError, match=f"^{field_path}: "):
            cli._parse_tgrid(spec)

    @pytest.mark.parametrize("t_max", [9.830388174299163, 12.779504626588912,
                                       16.711659896308575, 42.4596717679455])
    def test_unround_t_max_ends_the_record(self, t_max):
        # geomspace ends exactly at t_max, which rounds up or down at 12 digits
        record = {"kind": "log", "t_min": 1.0, "t_max": t_max, "count": 6}
        times = cli.load_run_config(dict(BASE_RUN_CONFIG, t_max=t_max,
                                         record=record))["record"]
        assert times[-1] == t_max and len(times) == 6 + 1
