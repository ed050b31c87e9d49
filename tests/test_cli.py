import json
import math

import pytest

from sevolab import cli


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

    def test_single_point_warns_without_fit(self, capsys):
        code, out, _ = run_cli(capsys, "linear-decay", "--sigma", "1", "--n", "1",
                               "--kind", "l2", "--t", "log:1e2:1e2:1")
        assert code == 0
        assert "# warning: too few points" in out

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

    def test_empty_range_gives_header_only(self, capsys, tmp_path):
        cfg = dict(SWEEP_CONFIG, p_range=[3.0, 2.0, 0.5])
        path = tmp_path / "sweep.json"
        path.write_text(json.dumps(cfg))
        out = tmp_path / "phase.csv"
        code, _, _ = run_cli(capsys, "sweep", "--config", str(path),
                             "--out", str(out), "--workers", "1")
        assert code == 0
        lines = out.read_text().splitlines()
        assert len(lines) == 2  # hash comment + header

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


class TestTestfnCheck:
    def test_fractional_report(self, capsys):
        code, out, _ = run_cli(capsys, "testfn-check", "--gamma", "1.5",
                               "--r", "2", "--R", "8", "--n", "1")
        assert code == 0
        doc = json.loads(out)
        assert doc["scaling_max_rel_err"] <= 1e-8
        assert doc["plancherel_residual"] <= 1e-6
        assert "above" in doc["envelope_bound_constants"]

    def test_integer_report_has_fd_residual(self, capsys):
        code, out, _ = run_cli(capsys, "testfn-check", "--gamma", "2",
                               "--r", "1.5", "--R", "4", "--n", "1")
        assert code == 0
        doc = json.loads(out)
        assert doc["fd_oracle_residual"] <= 1e-6

    def test_invalid_gamma(self, capsys):
        code, _, err = run_cli(capsys, "testfn-check", "--gamma", "0.5",
                               "--r", "2", "--R", "4", "--n", "1")
        assert code == 1
        assert "gamma" in err
