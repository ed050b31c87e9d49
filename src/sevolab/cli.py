"""Command-line orchestration: classify, linear-decay, simulate, sweep, testfn-check.

Exit codes: 0 = completed (a detected blow-up is a result, not an error),
1 = usage or configuration error, 2 = internal numerical failure.  Every
CSV starts with a config-hash comment line so results are traceable to the
exact inputs that produced them.
"""

from __future__ import annotations

import argparse
import hashlib
import itertools
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
# config reader: a field table maps each field to its rule, or to (rule, default)
# if optional; a rule types a value or raises ConfigError naming its path
# --------------------------------------------------------------------------

def _read(obj, path: str, fields: dict,
          read=lambda rule, value, path, key: rule(value, f"{path}.{key}")) -> dict:
    """Every field of the table ``fields`` read from ``obj`` by its rule, which
    ``read`` calls with the value and the field's path."""
    if not isinstance(obj, dict):
        raise ConfigError(f"{path}: expected an object")
    unknown = sorted(set(obj) - set(fields))
    if unknown:
        raise ConfigError(f"{path}: unknown field(s) {unknown}")
    missing = sorted(k for k in fields if k not in obj and type(fields[k]) is not tuple)
    if missing:
        raise ConfigError(f"{path}: missing field(s) {missing}")
    out = {}
    for key, field in fields.items():
        rule, default = field if type(field) is tuple else (field, None)
        out[key] = read(rule, obj[key], path, key) if key in obj else default
    return out


def _number(lo: float | None = None, strict: bool = True, integer: bool = False):
    """A finite JSON number (integral if ``integer``), > lo, or >= lo if not strict."""
    def rule(value, path):
        if type(value) not in (int, float) or not math.isfinite(value) \
                or integer and value != int(value):
            kind = "an integer" if integer else "a finite number"
            raise ConfigError(f"{path}: expected {kind}, got {json.dumps(value)}")
        if lo is not None and (value <= lo if strict else value < lo):
            raise ConfigError(f"{path}: must be {'>' if strict else '>='} {lo:g}, "
                              f"got {json.dumps(value)}")
        return int(value) if integer else float(value)
    return rule


def _auto_or_positive(value, path):
    if value != "auto" and not (type(value) in (int, float) and 0 < value < math.inf):
        raise ConfigError(f'{path}: expected "auto" or a finite number > 0, '
                          f'got {json.dumps(value)}')
    return value if value == "auto" else float(value)


def _enum(*choices):
    """One of ``choices`` with its JSON type, so that true is not 1."""
    def rule(value, path):
        if not any(type(value) is type(c) and value == c for c in choices):
            raise ConfigError(f"{path}: expected one of {json.dumps(choices)}, "
                              f"got {json.dumps(value)}")
        return value
    return rule


_real, _positive, _integer = _number(), _number(0), _number(integer=True)
_positive_int = _number(1, strict=False, integer=True)
_AUTO = (_auto_or_positive, "auto")


def _array(*items):
    """A list read position by position by ``items``, as a tuple."""
    def rule(value, path):
        if not (isinstance(value, list) and len(value) == len(items)):
            raise ConfigError(f"{path}: expected a list of {len(items)} values")
        return tuple(item(v, f"{path}[{i}]")
                     for i, (item, v) in enumerate(zip(items, value)))
    return rule


def _object(fields: dict, build=None):
    """A nested object, passed to ``build`` as keyword arguments if given."""
    def rule(value, path):
        values = _read(value, path, fields)
        try:
            return build(**values) if build else values
        except ValueError as exc:
            raise ConfigError(f"{path}: {exc}") from exc
    return rule


def _exponent_range(value, path) -> list[float]:
    """[lo, hi, step] with 1 < lo <= hi and step > 0: the values lo + k*step <= hi."""
    lo, hi, step = _array(_number(1), _real, _positive)(value, path)
    if hi < lo:
        raise ConfigError(f"{path}: expected lo <= hi, got [{lo:g}, {hi:g}]")
    values = itertools.takewhile(lambda x: x <= hi + 1e-9,
                                 (lo + k * step for k in itertools.count()))
    return [round(x, 10) for x in values]


def _window(value, path) -> tuple[float, float]:
    lo, hi = _array(_real, _real)(value, path)
    if lo >= hi:
        raise ConfigError(f"{path}: expected lo < hi, got [{lo:g}, {hi:g}]")
    return lo, hi


SPACING_FIELDS = {"kind": _enum("log", "linear"), "t_min": _real, "t_max": _real,
                  "count": _positive_int}
#: the SystemParams fields, each by its rule; also the flags of ``classify``
PARAMS_FIELDS = {"n": _positive_int, "sigma1": _number(1, strict=False),
                 "sigma2": _number(1, strict=False), "p": _number(1), "q": _number(1),
                 "eps": (_positive, 0.01)}
_grid = _object({"n_dim": _integer, "points_per_dim": _integer,
                 "half_length": _positive}, torus.GridSpec)
_gaussian = _object({"kind": _enum("gaussian"), "amplitude": _real, "width": _positive},
                    lambda kind, amplitude, width: GaussianProfile(amplitude, width))

RUN_FIELDS = {
    "params": _object(PARAMS_FIELDS, exponents.SystemParams),
    "grid": _grid,
    "data": _object({k: lambda v, path: None if v is None else _gaussian(v, path)
                     for k in ("u0", "u1", "v0", "v1")}),
    "t_max": _positive,
    "record": lambda v, path: ([_real(t, f"{path}[{i}]") for i, t in enumerate(v)]
                               if isinstance(v, list) else _read(v, path, SPACING_FIELDS)),
    "dt": _AUTO, "blowup_threshold": _AUTO,
    "seed": (_integer, 0),
    "linear_only": (_enum(True, False), False),
    "fit_window": (_window, None),
}
SWEEP_FIELDS = {
    "p_range": _exponent_range, "q_range": _exponent_range,
    "fixed": _object({k: PARAMS_FIELDS[k] for k in ("n", "sigma1", "sigma2", "eps")}),
    "cell": _object({"grid": _grid, "amplitude": _real, "width": _positive,
                     "t_max": _positive, "dt": _AUTO, "blowup_threshold": _AUTO,
                     "record_count": (_positive_int, 24),
                     "fit_t_min": (_positive, 60.0)}),
    "seed": (_integer, 0),
}


def _spaced(spec: dict, path: str) -> list[float]:
    """``count`` log- or linearly spaced times from ``t_min`` to ``t_max``, increasing."""
    lo, hi, count = spec["t_min"], spec["t_max"], spec["count"]
    if spec["kind"] == "log" and lo <= 0:
        raise ConfigError(f"{path}.t_min: log spacing needs t_min > 0")
    times = list((np.geomspace if spec["kind"] == "log" else np.linspace)(lo, hi, count))
    if not all(a < b for a, b in zip(times, times[1:])):  # nan fails too
        raise ConfigError(f"{path}.t_min: must be < t_max when count > 1, got {lo:g}")
    return times


def _record_times(spec, t_max: float, path: str) -> list[float]:
    """Times of a spacing or a list rounded to 12 digits, with 0 and t_max unrounded."""
    times = _spaced(spec, path) if isinstance(spec, dict) else spec
    times = {round(float(t), 12) for t in times} - {round(t_max, 12)}
    times = sorted(times | {0.0, t_max})
    if times[0] < 0 or times[-1] > t_max:
        raise ConfigError(f"{path}: record times must lie in [0, t_max]")
    return times


def _same_dimension(n: int, grid: torus.GridSpec, path: str, grid_path: str):
    if n != grid.n_dim:
        raise ConfigError(f"{path}: must equal {grid_path}.n_dim ({grid.n_dim}), got {n}")


def _fits_box(grid: torus.GridSpec, data: torus.InitialData, width_path) -> None:
    """Reject, at ``width_path(profile name)``, a profile too wide for the box."""
    try:
        torus.check_profile_widths(grid, data)
    except torus.ProfileTooWideError as exc:
        raise ConfigError(f"{width_path(exc.name)}: {exc.fraction:.2e} of the {exc.name} "
                          f"profile's mass lies outside the box (limit {torus.TAIL_TOL:g})"
                          ) from None


def load_run_config(obj: dict, path: str = "config") -> dict:
    cfg = _read(obj, path, RUN_FIELDS)
    _same_dimension(cfg["params"].n, cfg["grid"], f"{path}.params.n", f"{path}.grid")
    cfg["data"] = torus.InitialData(**cfg["data"])
    _fits_box(cfg["grid"], cfg["data"], lambda name: f"{path}.data.{name}.width")
    cfg["record"] = _record_times(cfg["record"], cfg["t_max"], f"{path}.record")
    return cfg


def load_sweep_config(obj: dict, path: str = "config") -> dict:
    """p and q values, grid, and one task per cell holding its typed run inputs:
    data u1 = v1 = the cell Gaussian, ``t_max`` clipped to the box validity
    window, and ``record_count`` log-spaced record times from 1 to it."""
    cfg = _read(obj, path, SWEEP_FIELDS)
    fixed, cell, grid = cfg["fixed"], cfg["cell"], cfg["cell"]["grid"]
    _same_dimension(fixed["n"], grid, f"{path}.fixed.n", f"{path}.cell.grid")
    g = GaussianProfile(cell["amplitude"], cell["width"])
    data = torus.InitialData(u1=g, v1=g)
    _fits_box(grid, data, lambda name: f"{path}.cell.width")
    cell_params = [exponents.SystemParams(p=p, q=q, **fixed)
                   for p in cfg["p_range"] for q in cfg["q_range"]]
    # t_valid hangs on the grid and sigma_min only, so all cells share it
    t_max = min(cell["t_max"], torus.t_valid(grid, cell_params[0]))
    if t_max < 1.0:
        raise ConfigError(f"{path}.cell.t_max: min(t_max, t_valid) = {t_max:g} < 1")
    times = np.geomspace(1.0, t_max, cell["record_count"])  # all 1, and valid, at t_max = 1
    record = _record_times(times, t_max, f"{path}.cell")
    tasks = [{"p": params.p, "q": params.q, "params": params, "grid": grid,
              "data": data, "t_max": t_max, "record": record,
              **{k: cell[k] for k in ("dt", "blowup_threshold", "fit_t_min")}}
             for params in cell_params]
    return {"p_values": cfg["p_range"], "q_values": cfg["q_range"], "grid": grid,
            "tasks": tasks}


def _load_json(path: str):
    with open(path, encoding="utf-8") as fh:
        try:
            return json.load(fh)
        except json.JSONDecodeError as exc:
            raise ConfigError(f"config: invalid JSON ({exc})") from exc


def config_hash(obj) -> str:
    canon = json.dumps(obj, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canon.encode()).hexdigest()[:16]


# --------------------------------------------------------------------------
# shared output helpers
# --------------------------------------------------------------------------

def _fmt(x: float) -> str:
    return f"{x:.12e}"


def _write_text(path: str, text: str):
    if path == "-":
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
# subcommands, each with a field table of its flags, read as a config is read
# --------------------------------------------------------------------------

def _text(value, path):
    """A flag's text as given: a file path, or a spec that its command reads."""
    return value


def _flag_number(text: str):
    """The int, or else the float, that a flag's text spells; else the text."""
    for number in (int, float):
        try:
            return number(text)
        except ValueError:
            pass
    return text


def _flag(key: str) -> str:
    return "--" + key.replace("_", "-")


def _read_flag(rule, text, path, key):
    """A flag's text read by its rule and reported as ``--flag``; text that
    spells a number is that number, unless the rule is ``_text``."""
    return rule(text if rule is _text else _flag_number(text), _flag(key))


_dimension = _enum(1, 2, 3)
LINEAR_DECAY_FLAGS = {"sigma": _positive, "n": _dimension,
                      "kind": _enum(*(k.value for k in oracle.NormKind)), "t": _text,
                      "w0_amplitude": (_real, 1.0), "w0_width": (_positive, 1.0),
                      "w1_amplitude": (_real, 0.0), "w1_width": (_positive, 1.0),
                      "out": (_text, "-")}
SIMULATE_FLAGS = {"config": _text, "out_dir": (_text, "sim-out")}
SWEEP_FLAGS = {"config": _text, "out": _text, "workers": (_positive_int, None)}
TESTFN_FLAGS = {"gamma": _number(1, strict=False), "r": _positive, "R": _positive,
                "n": (_dimension, 1)}
_TGRID_FIELDS = {**SPACING_FIELDS, "kind": _enum("log", "lin"), "t_min": _number(0, strict=False)}


def _check_out(path: str) -> None:
    """Reject, before any work, an ``--out`` file that cannot be created."""
    folder = os.path.dirname(path) or "."
    if path != "-" and (os.path.isdir(path) or not os.path.isdir(folder)):
        raise ConfigError(f"--out: cannot create the file {path!r}")


def cmd_classify(args) -> int:
    params = exponents.SystemParams(**vars(args))
    print(json.dumps(verdict_json(params), indent=2, sort_keys=True))
    return 0


def _parse_tgrid(spec: str) -> list[float]:
    """Times of ``log|lin:lo:hi:count``, each part read as a flag by its field rule."""
    parts = spec.split(":")
    if len(parts) != 4:
        raise ConfigError("--t: t-grid must look like log:1e2:1e5:40 or lin:0:100:11")
    values = {key: _flag_number(part) for key, part in zip(_TGRID_FIELDS, parts)}
    return _spaced(_read(values, "--t", _TGRID_FIELDS), "--t")


def cmd_linear_decay(args) -> int:
    t_grid = _parse_tgrid(args.t)
    w0 = GaussianProfile(args.w0_amplitude, args.w0_width) if args.w0_amplitude else None
    w1 = GaussianProfile(args.w1_amplitude, args.w1_width) if args.w1_amplitude else None
    if w0 is None and w1 is None:
        raise ConfigError("--w0-amplitude: must be nonzero when --w1-amplitude is 0")
    _check_out(args.out)
    cfg = {"sigma": args.sigma, "n": args.n, "kind": args.kind, "t": args.t,
           "w0": [args.w0_amplitude, args.w0_width],
           "w1": [args.w1_amplitude, args.w1_width]}
    series = oracle.decay_series(w0, w1, args.sigma, args.n, oracle.NormKind(args.kind),
                                 t_grid)

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
    for row in zip(*(result.series[k].entries for k in torus.NORM_LABELS)):  # one time base
        lines.append(",".join([_fmt(row[0][0])] + [_fmt(v) for _, v in row]))
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
    raw = _load_json(args.config)
    cfg = load_run_config(raw)
    hash_str = config_hash(raw)
    os.makedirs(args.out_dir, exist_ok=True)  # a bad location fails before the run
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
    _write_text(os.path.join(args.out_dir, "norms.csv"), run_norms_csv(result, hash_str))
    _write_text(os.path.join(args.out_dir, "events.json"),
                json.dumps(events, indent=2, sort_keys=True) + "\n")
    print(json.dumps({"blowup": result.blowup, "out_dir": args.out_dir},
                     sort_keys=True))
    return 0


# -- sweep ------------------------------------------------------------------

def sweep_cell(task: dict) -> dict:
    """Predict and simulate one (p, q) cell; never raises (errors recorded).
    The row also holds the run's ``warnings``, which are not a CSV column."""
    params, t_max = task["params"], task["t_max"]
    row = {"p": task["p"], "q": task["q"], "warnings": [],
           **{c: "" for c in SWEEP_COLUMNS[2:]}}
    try:
        row["predicted"] = exponents.classify_regime(params).regime.value
        result = torus.run(task["grid"], task["data"], params, t_max, task["record"],
                           dt=task["dt"], blowup_threshold=task["blowup_threshold"])
        row["warnings"] = result.warnings

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
        elif ratio < 0.1 and fits and all(v < 0 for v in fits.values()):  # NaN < 0 is False
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
    """Rows of every task of a ``load_sweep_config`` result, sorted by (p, q)."""
    tasks = cfg["tasks"]
    workers = workers or min(8, os.cpu_count() or 1)
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
    raw = _load_json(args.config)
    cfg = load_sweep_config(raw)
    _check_out(args.out)
    rows = run_sweep(cfg, workers=args.workers)
    _write_text(args.out, sweep_csv(rows, config_hash(raw)))
    warnings = {f"{r['p']:g},{r['q']:g}": r["warnings"] for r in rows if r["warnings"]}
    print(json.dumps({"cells": len(rows), "errors": sum(1 for r in rows if r["error"]),
                      "out": args.out, "warnings": warnings}, sort_keys=True))
    return 0


def cmd_testfn_check(args) -> int:
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
    """One subparser per command, with one flag per field of the command's
    table, required when the table gives no default.  Flags stay text, and
    flags not given stay absent, for ``main`` to read by the table."""
    parser = argparse.ArgumentParser(
        prog="sevolab",
        description="Numerical laboratory for damped sigma-evolution systems")
    sub = parser.add_subparsers(dest="command", required=True)
    dimension = {"n": "dimension: 1, 2 or 3"}
    decay = {**dimension, "kind": "one of " + ", ".join(k.value for k in oracle.NormKind),
             "t": "grid spec, e.g. log:1e2:1e5:40"}
    for name, text, handler, table, flag_help in [
            ("classify", "regime classification for (n, s1, s2, p, q)", cmd_classify,
             PARAMS_FIELDS, {}),
            ("linear-decay", "oracle decay study of the linear flow", cmd_linear_decay,
             LINEAR_DECAY_FLAGS, decay),
            ("simulate", "run one coupled-system simulation", cmd_simulate,
             SIMULATE_FLAGS, {}),
            ("sweep", "(p, q) phase-diagram sweep", cmd_sweep, SWEEP_FLAGS,
             {"workers": "process count (default: min(8, cpu count))"}),
            ("testfn-check", "test-function identity report", cmd_testfn_check,
             TESTFN_FLAGS, dimension)]:
        command = sub.add_parser(name, help=text, argument_default=argparse.SUPPRESS)
        for key, field in table.items():
            command.add_argument(_flag(key), required=type(field) is not tuple,
                                 help=flag_help.get(key))
        command.set_defaults(run=(handler, table))
    return parser


def main(argv=None) -> int:
    try:
        args = vars(build_parser().parse_args(argv))
    except SystemExit as exc:
        return 1 if exc.code not in (0, None) else 0
    (handler, table), _ = args.pop("run"), args.pop("command")
    try:
        return handler(argparse.Namespace(**_read(args, "", table, _read_flag)))
    except (OSError, ValueError) as exc:  # ConfigError is a ValueError
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (QuadratureFailure, ArithmeticError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
