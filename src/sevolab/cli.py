"""Command-line orchestration: classify, linear-decay, simulate, sweep, testfn-check.

Exit codes: 0 = completed (a detected blow-up is a result, not an error),
1 = usage or configuration error, 2 = internal numerical failure.  Every
CSV starts with a config-hash comment line so results are traceable to the
exact inputs that produced them.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import sys
from concurrent.futures import ProcessPoolExecutor

import numpy as np

from . import exponents, fitting, oracle, testfn, torus
from .profiles import GaussianProfile
from .quadutil import QuadratureFailure


class ConfigError(ValueError):
    """Configuration problem; the message carries the offending field path."""


# --------------------------------------------------------------------------
# config parsing with strict schemas
# --------------------------------------------------------------------------

def _expect_keys(obj: dict, path: str, required: dict, optional: dict | None = None):
    optional = optional or {}
    if not isinstance(obj, dict):
        raise ConfigError(f"{path}: expected an object")
    unknown = set(obj) - set(required) - set(optional)
    if unknown:
        raise ConfigError(f"{path}: unknown field(s) {sorted(unknown)}")
    missing = set(required) - set(obj)
    if missing:
        raise ConfigError(f"{path}: missing field(s) {sorted(missing)}")


def _number(obj, path: str) -> float:
    if isinstance(obj, bool) or not isinstance(obj, (int, float)):
        raise ConfigError(f"{path}: expected a number")
    if not math.isfinite(obj):
        raise ConfigError(f"{path}: expected a finite number, got {obj}")
    return float(obj)


def _parse_params(obj, path: str) -> exponents.SystemParams:
    _expect_keys(obj, path, {"n": 0, "sigma1": 0, "sigma2": 0, "p": 0, "q": 0},
                 {"eps": 0})
    try:
        return exponents.SystemParams(
            n=int(obj["n"]), sigma1=_number(obj["sigma1"], f"{path}.sigma1"),
            sigma2=_number(obj["sigma2"], f"{path}.sigma2"),
            p=_number(obj["p"], f"{path}.p"), q=_number(obj["q"], f"{path}.q"),
            eps=_number(obj.get("eps", 0.01), f"{path}.eps"))
    except ValueError as exc:
        raise ConfigError(f"{path}: {exc}") from exc


def _parse_grid(obj, path: str) -> torus.GridSpec:
    _expect_keys(obj, path, {"n_dim": 0, "points_per_dim": 0, "half_length": 0})
    try:
        return torus.GridSpec(int(obj["n_dim"]), int(obj["points_per_dim"]),
                              _number(obj["half_length"], f"{path}.half_length"))
    except ValueError as exc:
        raise ConfigError(f"{path}: {exc}") from exc


def _parse_profile(obj, path: str):
    if obj is None:
        return None
    _expect_keys(obj, path, {"kind": 0, "amplitude": 0, "width": 0})
    if obj["kind"] != "gaussian":
        raise ConfigError(f"{path}.kind: only 'gaussian' profiles are supported")
    try:
        return GaussianProfile(_number(obj["amplitude"], f"{path}.amplitude"),
                               _number(obj["width"], f"{path}.width"))
    except ValueError as exc:
        raise ConfigError(f"{path}: {exc}") from exc


def _parse_record(obj, path: str, t_max: float) -> list[float]:
    if isinstance(obj, list):
        times = [_number(t, f"{path}[{i}]") for i, t in enumerate(obj)]
    else:
        _expect_keys(obj, path, {"kind": 0, "t_min": 0, "t_max": 0, "count": 0})
        kind = obj["kind"]
        lo = _number(obj["t_min"], f"{path}.t_min")
        hi = _number(obj["t_max"], f"{path}.t_max")
        count = int(obj["count"])
        if kind == "log":
            if lo <= 0:
                raise ConfigError(f"{path}.t_min: log spacing needs t_min > 0")
            times = list(np.geomspace(lo, hi, count))
        elif kind == "linear":
            times = list(np.linspace(lo, hi, count))
        else:
            raise ConfigError(f"{path}.kind: must be 'log' or 'linear'")
    times = sorted(set(round(float(t), 12) for t in times) | {0.0, float(t_max)})
    if times[0] < 0 or times[-1] > t_max:
        raise ConfigError(f"{path}: record times must lie in [0, t_max]")
    return times


def load_run_config(obj: dict, path: str = "config"):
    _expect_keys(obj, path,
                 {"params": 0, "grid": 0, "data": 0, "t_max": 0, "record": 0},
                 {"dt": 0, "blowup_threshold": 0, "seed": 0, "linear_only": 0,
                  "fit_window": 0})
    params = _parse_params(obj["params"], f"{path}.params")
    grid = _parse_grid(obj["grid"], f"{path}.grid")
    _expect_keys(obj["data"], f"{path}.data", {"u0": 0, "u1": 0, "v0": 0, "v1": 0})
    profiles = {k: _parse_profile(obj["data"][k], f"{path}.data.{k}")
                for k in ("u0", "u1", "v0", "v1")}
    data = torus.InitialData.from_profiles(
        profiles["u0"], profiles["u1"], profiles["v0"], profiles["v1"],
        params.sigma1, params.sigma2, params.n)
    t_max = _number(obj["t_max"], f"{path}.t_max")
    if t_max <= 0:
        raise ConfigError(f"{path}.t_max: must be positive")
    record = _parse_record(obj["record"], f"{path}.record", t_max)
    dt = obj.get("dt", "auto")
    if dt != "auto":
        dt = _number(dt, f"{path}.dt")
    threshold = obj.get("blowup_threshold", "auto")
    if threshold != "auto":
        threshold = _number(threshold, f"{path}.blowup_threshold")
    fit_window = obj.get("fit_window")
    if fit_window is not None:
        if not (isinstance(fit_window, list) and len(fit_window) == 2):
            raise ConfigError(f"{path}.fit_window: expected [t_lo, t_hi]")
        fit_window = tuple(_number(t, f"{path}.fit_window[{i}]")
                           for i, t in enumerate(fit_window))
    return {
        "params": params, "grid": grid, "data": data, "t_max": t_max,
        "record": record, "dt": dt, "blowup_threshold": threshold,
        "seed": int(obj.get("seed", 0)),
        "linear_only": bool(obj.get("linear_only", False)),
        "fit_window": fit_window,
    }


def config_hash(obj) -> str:
    canon = json.dumps(obj, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canon.encode()).hexdigest()[:16]


# --------------------------------------------------------------------------
# shared output helpers
# --------------------------------------------------------------------------

def _fmt(x: float) -> str:
    return f"{x:.12e}"


def _write_text(path: str | None, text: str):
    if path is None or path == "-":
        sys.stdout.write(text)
    else:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)


def verdict_json(params: exponents.SystemParams) -> dict:
    verdict = exponents.classify_regime(params)
    out = {
        "regime": verdict.regime.value,
        "conditions": [
            {"identifier": r.identifier, "holds": r.holds,
             "lhs": r.lhs, "rhs": r.rhs} for r in verdict.report
        ],
        "gamma1": None, "gamma2": None, "rates": None,
    }
    if params.equal_orders():
        g1, g2 = exponents.gamma_exponents(params)
        out["gamma1"], out["gamma2"] = g1, g2
    if verdict.regime in (exponents.Regime.EXISTENCE_THM11,
                          exponents.Regime.EXISTENCE_THM12):
        rates = exponents.theoretical_rates(params)
        out["rates"] = {k: getattr(rates, k) for k in
                        ("f1", "f2", "f3", "g1", "g2", "g3")}
    return out


# --------------------------------------------------------------------------
# subcommands
# --------------------------------------------------------------------------

def cmd_classify(args) -> int:
    params = exponents.SystemParams(args.n, args.sigma1, args.sigma2,
                                    args.p, args.q, args.eps)
    print(json.dumps(verdict_json(params), indent=2, sort_keys=True))
    return 0


def _parse_tgrid(spec: str) -> list[float]:
    parts = spec.split(":")
    if len(parts) != 4 or parts[0] not in ("log", "lin"):
        raise ConfigError(
            "t-grid must look like log:1e2:1e5:40 or lin:0:100:11")
    lo, hi, count = float(parts[1]), float(parts[2]), int(parts[3])
    if count < 1:
        raise ConfigError("t-grid count must be >= 1")
    if count == 1:
        return [lo]
    if parts[0] == "log":
        return list(np.geomspace(lo, hi, count))
    return list(np.linspace(lo, hi, count))


def cmd_linear_decay(args) -> int:
    kind = {k.value: k for k in oracle.NormKind}[args.kind]
    t_grid = _parse_tgrid(args.t)
    w0 = GaussianProfile(args.w0_amplitude, args.w0_width) \
        if args.w0_amplitude != 0 else None
    w1 = GaussianProfile(args.w1_amplitude, args.w1_width) \
        if args.w1_amplitude != 0 else None
    if w0 is None and w1 is None:
        raise ConfigError("at least one of w0, w1 must be nonzero")
    cfg = {"sigma": args.sigma, "n": args.n, "kind": args.kind, "t": args.t,
           "w0": [args.w0_amplitude, args.w0_width],
           "w1": [args.w1_amplitude, args.w1_width]}
    series = oracle.decay_series(w0, w1, args.sigma, args.n, kind, t_grid)

    lines = [f"# config-hash: {config_hash(cfg)}", "t,norm,kind,sigma,n"]
    for t, v in series.entries:
        lines.append(f"{_fmt(t)},{_fmt(v)},{args.kind},{args.sigma:g},{args.n}")
    base = -args.n / (4.0 * args.sigma)
    predicted = {"l2": base, "dsigma": base - 0.5, "dt": base - 1.0}[args.kind]
    if len(t_grid) >= fitting.MIN_POINTS:
        fit = fitting.fit_power_law(series, (min(t_grid), max(t_grid)))
        lines.append(f"# fit: exponent={fit.exponent:.6f} "
                     f"r_squared={fit.r_squared:.8f} predicted={predicted:.6f}")
    else:
        lines.append("# warning: too few points for a fit")
    _write_text(args.out, "\n".join(lines) + "\n")
    return 0


def run_norms_csv(result: torus.RunResult, hash_str: str) -> str:
    lines = [f"# config-hash: {hash_str}",
             "t,norm_u_l2,norm_u_dsigma,norm_ut,norm_v_l2,norm_v_dsigma,norm_vt"]
    order = ("u_l2", "u_dsigma", "u_dt", "v_l2", "v_dsigma", "v_dt")
    times = [t for t, _ in result.series["u_l2"].entries]
    table = {k: dict(result.series[k].entries) for k in order}
    for t in times:
        row = [_fmt(t)] + [_fmt(table[k][t]) for k in order]
        lines.append(",".join(row))
    return "\n".join(lines) + "\n"


def _run_fits(result: torus.RunResult, params: exponents.SystemParams,
              window: tuple[float, float]) -> dict:
    """Fits of all six norms plus predicted rates when a theory applies."""
    try:
        rates = exponents.theoretical_rates(params)
        predicted = {"u_l2": rates.f1, "u_dsigma": rates.f2, "u_dt": rates.f3,
                     "v_l2": rates.g1, "v_dsigma": rates.g2, "v_dt": rates.g3}
    except exponents.WrongRegimeError:
        predicted = {}
    out = {}
    for label, series in result.series.items():
        try:
            fit = fitting.fit_power_law(series, window)
        except (fitting.InsufficientDataError, fitting.NonPositiveValueError) as exc:
            out[label] = {"error": str(exc)}
            continue
        entry = {"exponent": fit.exponent, "r_squared": fit.r_squared,
                 "window": list(fit.window)}
        if label in predicted:
            entry["predicted"] = predicted[label]
            entry["passed_one_sided"] = fitting.compare_rates(
                fit, predicted[label], 0.1, one_sided=True)
            entry["passed_two_sided"] = fitting.compare_rates(
                fit, predicted[label], 0.1)
        out[label] = entry
    return out


def cmd_simulate(args) -> int:
    with open(args.config, encoding="utf-8") as fh:
        try:
            raw = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ConfigError(f"config: invalid JSON ({exc})") from exc
    cfg = load_run_config(raw)
    hash_str = config_hash(raw)
    result = torus.run(cfg["grid"], cfg["data"], cfg["params"], cfg["t_max"],
                       cfg["record"], dt=cfg["dt"],
                       blowup_threshold=cfg["blowup_threshold"],
                       linear_only=cfg["linear_only"])
    window = cfg["fit_window"]
    if window is None:
        hi = min(cfg["t_max"], result.t_valid)
        window = (max(1.0, 0.1 * hi), hi)
    events = {
        "config_hash": hash_str,
        "blowup": result.blowup,
        "t_valid": result.t_valid,
        "warnings": result.warnings,
        "fits": _run_fits(result, cfg["params"], window),
        "regime": exponents.classify_regime(cfg["params"]).regime.value,
        "run": result.config_echo,
    }
    out_dir = args.out_dir
    os.makedirs(out_dir, exist_ok=True)
    _write_text(os.path.join(out_dir, "norms.csv"), run_norms_csv(result, hash_str))
    _write_text(os.path.join(out_dir, "events.json"),
                json.dumps(events, indent=2, sort_keys=True) + "\n")
    print(json.dumps({"blowup": result.blowup, "out_dir": out_dir},
                     sort_keys=True))
    return 0


# -- sweep ------------------------------------------------------------------

def _range_values(spec, path: str) -> list[float]:
    if not (isinstance(spec, list) and len(spec) == 3):
        raise ConfigError(f"{path}: expected [lo, hi, step]")
    lo, hi, step = (_number(v, f"{path}[{i}]") for i, v in enumerate(spec))
    if step <= 0:
        raise ConfigError(f"{path}: need step > 0")
    if lo <= 1:
        raise ConfigError(f"{path}: exponents must be > 1")
    vals = []
    k = 0
    while lo + k * step <= hi + 1e-9:
        vals.append(round(lo + k * step, 10))
        k += 1
    return vals


def load_sweep_config(obj: dict, path: str = "config"):
    _expect_keys(obj, path, {"p_range": 0, "q_range": 0, "fixed": 0, "cell": 0},
                 {"seed": 0})
    _expect_keys(obj["fixed"], f"{path}.fixed",
                 {"n": 0, "sigma1": 0, "sigma2": 0}, {"eps": 0})
    cell = obj["cell"]
    _expect_keys(cell, f"{path}.cell",
                 {"grid": 0, "amplitude": 0, "width": 0, "t_max": 0},
                 {"dt": 0, "blowup_threshold": 0, "record_count": 0,
                  "fit_t_min": 0})
    grid = _parse_grid(cell["grid"], f"{path}.cell.grid")
    return {
        "p_values": _range_values(obj["p_range"], f"{path}.p_range"),
        "q_values": _range_values(obj["q_range"], f"{path}.q_range"),
        "fixed": obj["fixed"],
        "grid": grid,
        "amplitude": _number(cell["amplitude"], f"{path}.cell.amplitude"),
        "width": _number(cell["width"], f"{path}.cell.width"),
        "t_max": _number(cell["t_max"], f"{path}.cell.t_max"),
        "dt": cell.get("dt", "auto"),
        "blowup_threshold": cell.get("blowup_threshold", "auto"),
        "record_count": int(cell.get("record_count", 24)),
        "fit_t_min": float(cell.get("fit_t_min", 60.0)),
        "seed": int(obj.get("seed", 0)),
    }


def sweep_cell(task: dict) -> dict:
    """Predict and simulate one (p, q) cell; never raises (errors recorded)."""
    p, q = task["p"], task["q"]
    fixed = task["fixed"]
    row = {"p": p, "q": q, "predicted": "", "observed": "", "blowup_time": "",
           "final_ratio": "", "error": ""}
    for k in ("u_l2", "u_dsigma", "u_dt", "v_l2", "v_dsigma", "v_dt"):
        row[f"slope_{k}"] = ""
    try:
        params = exponents.SystemParams(
            int(fixed["n"]), float(fixed["sigma1"]), float(fixed["sigma2"]),
            p, q, float(fixed.get("eps", 0.01)))
        row["predicted"] = exponents.classify_regime(params).regime.value

        grid = torus.GridSpec(**task["grid"])
        g = GaussianProfile(task["amplitude"], task["width"])
        data = torus.InitialData.from_profiles(None, g, None, g,
                                               params.sigma1, params.sigma2,
                                               params.n)
        t_max = min(task["t_max"], torus.t_valid(grid, params))
        record = sorted(set([0.0, t_max])
                        | set(float(t) for t in
                              np.geomspace(1.0, t_max, task["record_count"])))
        result = torus.run(grid, data, params, t_max, record,
                           dt=task["dt"], blowup_threshold=task["blowup_threshold"])

        if result.blowup is not None:
            row["observed"] = "BlewUp"
            row["blowup_time"] = _fmt(result.blowup["time"])
            return row
        initial = sum(s.entries[0][1] for s in result.series.values())
        final = sum(s.entries[-1][1] for s in result.series.values())
        ratio = final / initial if initial > 0 else math.inf
        row["final_ratio"] = _fmt(ratio)
        fits = {}
        for label, series in result.series.items():
            try:
                fits[label] = fitting.fit_power_law(
                    series, (task["fit_t_min"], t_max)).exponent
                row[f"slope_{label}"] = _fmt(fits[label])
            except (fitting.InsufficientDataError, fitting.NonPositiveValueError):
                fits[label] = math.nan
        if ratio > 10.0:
            row["observed"] = "Grew"
        elif ratio < 0.1 and all(v < 0 for v in fits.values() if not math.isnan(v)) \
                and fits and not any(math.isnan(v) for v in fits.values()):
            row["observed"] = "Decayed"
        else:
            row["observed"] = "Inconclusive"
    except Exception as exc:  # per-cell failure must not kill the sweep
        row["error"] = f"{type(exc).__name__}: {exc}"
        row["observed"] = row["observed"] or "Inconclusive"
    return row


SWEEP_COLUMNS = ["p", "q", "predicted", "observed", "blowup_time", "final_ratio",
                 "slope_u_l2", "slope_u_dsigma", "slope_u_dt",
                 "slope_v_l2", "slope_v_dsigma", "slope_v_dt", "error"]


def run_sweep(cfg: dict, workers: int | None = None) -> list[dict]:
    tasks = []
    grid_dict = {"n_dim": cfg["grid"].n_dim,
                 "points_per_dim": cfg["grid"].points_per_dim,
                 "half_length": cfg["grid"].half_length}
    for p in cfg["p_values"]:
        for q in cfg["q_values"]:
            tasks.append({"p": p, "q": q, "fixed": cfg["fixed"],
                          "grid": grid_dict, "amplitude": cfg["amplitude"],
                          "width": cfg["width"], "t_max": cfg["t_max"],
                          "dt": cfg["dt"],
                          "blowup_threshold": cfg["blowup_threshold"],
                          "record_count": cfg["record_count"],
                          "fit_t_min": cfg["fit_t_min"]})
    if workers is None:
        workers = int(os.environ.get("SEVOLAB_WORKERS", 0)) or \
            min(8, os.cpu_count() or 1)
    if workers > 1 and len(tasks) > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            rows = list(pool.map(sweep_cell, tasks))
    else:
        rows = [sweep_cell(t) for t in tasks]
    rows.sort(key=lambda r: (r["p"], r["q"]))
    return rows


def sweep_csv(rows: list[dict], hash_str: str) -> str:
    lines = [f"# config-hash: {hash_str}", ",".join(SWEEP_COLUMNS)]
    for row in rows:
        lines.append(",".join(str(row[c]) for c in SWEEP_COLUMNS))
    return "\n".join(lines) + "\n"


def cmd_sweep(args) -> int:
    with open(args.config, encoding="utf-8") as fh:
        try:
            raw = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ConfigError(f"config: invalid JSON ({exc})") from exc
    cfg = load_sweep_config(raw)
    rows = run_sweep(cfg, workers=args.workers)
    _write_text(args.out, sweep_csv(rows, config_hash(raw)))
    n_err = sum(1 for r in rows if r["error"])
    print(json.dumps({"cells": len(rows), "errors": n_err, "out": args.out},
                     sort_keys=True))
    return 0


def cmd_testfn_check(args) -> int:
    if args.gamma < 1:
        raise ConfigError("gamma must be >= 1")
    if args.r <= 0 or args.R <= 0:
        raise ConfigError("r and R must be positive")
    spec = testfn.TestFunctionSpec(gamma=args.gamma, r=args.r, R=args.R)
    # out to ~8R the bracket still carries weight; far beyond, the exact
    # identity drowns in cancellation and only the envelope bound is tested
    xs = [0.0] + list(np.geomspace(0.1, 8.0 * args.R, 10))
    report: dict = {"gamma": args.gamma, "r": args.r, "R": args.R, "n": args.n}

    worst = 0.0
    for x in xs:
        direct = testfn.fractional_laplacian_gamma(spec, x, args.n, factored=False)
        factored = testfn.fractional_laplacian_gamma(spec, x, args.n, factored=True)
        denom = max(abs(factored), 1e-300)
        worst = max(worst, abs(direct - factored) / denom)
    report["scaling_max_rel_err"] = worst

    if spec.s > 0:
        case, const = testfn.envelope_ratio(args.gamma, args.r, args.n,
                                            [0.0] + list(np.geomspace(0.1, 1e3, 9)))
        report["envelope_bound_constants"] = {case: const}
    else:
        m = spec.int_part
        combo = testfn.integer_laplacian_bracket(args.r, m, args.n)
        if m <= 2:
            # fully nested differences; roundoff limits deeper nesting
            def reference(x):
                return testfn.fd_neg_laplacian(
                    lambda y: (1.0 + y * y) ** (-args.r / 2.0), x, args.n,
                    m=m, h=7e-3)
        else:
            prev = testfn.integer_laplacian_bracket(args.r, m - 1, args.n)

            def reference(x):
                return testfn.fd_neg_laplacian(
                    lambda y: float(prev.value(abs(y))), x, args.n, m=1, h=1e-3)
        resid = max(abs(combo.value(x) - reference(x)) for x in (0.3, 1.0, 2.5))
        report["fd_oracle_residual"] = resid

    if args.n == 1 and args.r > 1:
        # the frequency-side route needs the closed bracket transform (r > 1)
        lhs, rhs = testfn.plancherel_pairing(spec, GaussianProfile(1.0, 1.0),
                                             args.gamma)
        report["plancherel_residual"] = abs(lhs - rhs) / max(abs(lhs), 1e-300)

    print(json.dumps(report, indent=2, sort_keys=True))
    return 0


# --------------------------------------------------------------------------
# entry point
# --------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sevolab",
        description="Numerical laboratory for damped sigma-evolution systems")
    sub = parser.add_subparsers(dest="command", required=True)

    c = sub.add_parser("classify", help="regime classification for (n, s1, s2, p, q)")
    c.add_argument("--n", type=int, required=True)
    c.add_argument("--sigma1", type=float, required=True)
    c.add_argument("--sigma2", type=float, required=True)
    c.add_argument("--p", type=float, required=True)
    c.add_argument("--q", type=float, required=True)
    c.add_argument("--eps", type=float, default=0.01)
    c.set_defaults(func=cmd_classify)

    d = sub.add_parser("linear-decay", help="oracle decay study of the linear flow")
    d.add_argument("--sigma", type=float, required=True)
    d.add_argument("--n", type=int, required=True)
    d.add_argument("--kind", choices=["l2", "dsigma", "dt"], required=True)
    d.add_argument("--t", required=True, help="grid spec, e.g. log:1e2:1e5:40")
    d.add_argument("--w0-amplitude", type=float, default=1.0)
    d.add_argument("--w0-width", type=float, default=1.0)
    d.add_argument("--w1-amplitude", type=float, default=0.0)
    d.add_argument("--w1-width", type=float, default=1.0)
    d.add_argument("--out", default="-")
    d.set_defaults(func=cmd_linear_decay)

    s = sub.add_parser("simulate", help="run one coupled-system simulation")
    s.add_argument("--config", required=True)
    s.add_argument("--out-dir", default="sim-out")
    s.set_defaults(func=cmd_simulate)

    w = sub.add_parser("sweep", help="(p, q) phase-diagram sweep")
    w.add_argument("--config", required=True)
    w.add_argument("--out", required=True)
    w.add_argument("--workers", type=int, default=None,
                   help="process count (default: SEVOLAB_WORKERS or cpu count)")
    w.set_defaults(func=cmd_sweep)

    t = sub.add_parser("testfn-check", help="test-function identity report")
    t.add_argument("--gamma", type=float, required=True)
    t.add_argument("--r", type=float, required=True)
    t.add_argument("--R", type=float, required=True)
    t.add_argument("--n", type=int, default=1, choices=[1, 2, 3])
    t.set_defaults(func=cmd_testfn_check)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 1 if exc.code not in (0, None) else 0
    try:
        return args.func(args)
    except (ConfigError, FileNotFoundError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (QuadratureFailure, ArithmeticError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
