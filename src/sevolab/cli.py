"""Command-line orchestration: classify, linear-decay, simulate, sweep, testfn-check.

Exit codes: 0 = completed (a detected blow-up is a result, not an error),
1 = usage or configuration error, 2 = internal numerical failure.  Every
CSV starts with a config-hash comment line so results are traceable to the
exact inputs that produced them.
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import itertools
import json
import math
import os
import sys
from concurrent.futures import ProcessPoolExecutor

import numpy as np

from . import exponents, fitting, oracle, testfn, torus
from ._inputs import auto_or_positive, require
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


def _shown(value) -> str:
    """A value as an error quotes it: JSON, or repr where it holds a nan or inf."""
    try:
        return json.dumps(value, allow_nan=False)
    except ValueError:
        return repr(value)


def _number(lo: float = -math.inf, strict: bool = True, integer: bool = False):
    """A JSON number (integral if ``integer``) that the library's rule takes as
    finite and > lo, or >= lo if not strict; each test reported in its words."""
    def rule(value, path):
        typed = type(value) in (int, float) and not (integer and value % 1)  # 2.0 is 2
        wrong = f"expected {'an integer' if integer else 'a finite number'}"
        try:  # any other value fails the rule as None does
            number = require(value if typed else None, path)
            wrong = f"must be {'>' if strict else '>='} {lo:g}"
            require(number, path, lo, closed="" if strict else "[")
        except ValueError:
            raise ConfigError(f"{path}: {wrong}, got {_shown(value)}") from None
        return int(value) if integer else number
    return rule


def _auto_or_positive(value, path):
    """The library's rule for a run's dt and threshold, reported at the field."""
    try:
        return auto_or_positive(value, path)
    except ValueError:
        raise ConfigError(f'{path}: expected "auto" or a finite number > 0, '
                          f'got {_shown(value)}') from None


def _enum(*choices):
    """One of ``choices`` with its JSON type, so that true is not 1."""
    def rule(value, path):
        if not any(type(value) is type(c) and value == c for c in choices):
            raise ConfigError(f"{path}: expected one of {_shown(choices)}, "
                              f"got {_shown(value)}")
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


def _allocated(space, lo: float, hi: float, count: int, path: str) -> list[float]:
    """``space(lo, hi, count)`` as a list; ConfigError at ``path`` if numpy refuses the size."""
    try:
        return list(space(lo, hi, count))
    except (MemoryError, ValueError, IndexError):  # past memory, past intp, or 2**63
        raise ConfigError(f"{path}: too many times to allocate, got {count}") from None


def _spaced(spec: dict, path: str) -> list[float]:
    """``count`` log- or linearly spaced times from ``t_min`` to ``t_max``, increasing."""
    lo, hi, count = spec["t_min"], spec["t_max"], spec["count"]
    for key in ("t_min", "t_max"):
        if spec["kind"] == "log" and spec[key] <= 0:
            raise ConfigError(f"{path}.{key}: log spacing needs {key} > 0")
    times = _allocated(np.geomspace if spec["kind"] == "log" else np.linspace,
                       lo, hi, count, f"{path}.count")
    if not all(a < b for a, b in zip(times, times[1:])):  # nan fails too
        raise ConfigError(f"{path}.t_min: must be < t_max when count > 1, got {lo:g}")
    return times


def _record_times(spec, t_max: float, path: str) -> list[float]:
    """Times of a spacing or a list rounded to 12 digits, with 0 and t_max unrounded."""
    times = _spaced(spec, path) if isinstance(spec, dict) else spec
    times = {round(float(t), 12) for t in times} - {round(t_max, 12)}
    try:  # the range of torus.run's record times
        return [require(t, path, 0.0, t_max, "[]") for t in sorted(times | {0.0, t_max})]
    except ValueError:
        raise ConfigError(f"{path}: record times must lie in [0, t_max]") from None


def _same_dimension(n: int, grid: torus.GridSpec, path: str, grid_path: str):
    if n != grid.n_dim:
        raise ConfigError(f"{path}: must equal {grid_path}.n_dim ({grid.n_dim}), got {n}")


def _fits_box(grid: torus.GridSpec, data: torus.InitialData, field_path) -> None:
    """Reject, at ``field_path(profile name, field)``, a profile too wide for the
    box or too large for a float state."""
    misfit = torus.profile_misfit(grid, data)
    if misfit is not None:
        name, field, reason = misfit
        raise ConfigError(f"{field_path(name, field)}: {reason}")


def load_run_config(obj: dict) -> dict:
    cfg = _read(obj, "config", RUN_FIELDS)
    _same_dimension(cfg["params"].n, cfg["grid"], "config.params.n", "config.grid")
    cfg["data"] = torus.InitialData(**cfg["data"])
    _fits_box(cfg["grid"], cfg["data"], lambda name, field: f"config.data.{name}.{field}")
    cfg["record"] = _record_times(cfg["record"], cfg["t_max"], "config.record")
    return cfg


def load_sweep_config(obj: dict) -> dict:
    """p and q values, grid, and one task per cell holding its typed run inputs:
    data u1 = v1 = the cell Gaussian, ``t_max`` clipped to the box validity
    window, and ``record_count`` log-spaced record times from 1 to it."""
    cfg = _read(obj, "config", SWEEP_FIELDS)
    fixed, cell, grid = cfg["fixed"], cfg["cell"], cfg["cell"]["grid"]
    _same_dimension(fixed["n"], grid, "config.fixed.n", "config.cell.grid")
    if cell["amplitude"] == 0:  # zero data: every cell's final ratio would be 0/0
        raise ConfigError(f"config.cell.amplitude: must be nonzero, got {cell['amplitude']:g}")
    g = GaussianProfile(cell["amplitude"], cell["width"])
    data = torus.InitialData(u1=g, v1=g)
    _fits_box(grid, data, lambda name, field: f"config.cell.{field}")
    cell_params = [exponents.SystemParams(p=p, q=q, **fixed)
                   for p in cfg["p_range"] for q in cfg["q_range"]]
    # t_valid hangs on the grid and sigma_min only, so all cells share it
    t_max = min(cell["t_max"], torus.t_valid(grid, cell_params[0]))
    if t_max < 1.0:
        raise ConfigError(f"config.cell.t_max: min(t_max, t_valid) = {t_max:g} < 1")
    times = _allocated(np.geomspace, 1.0, t_max, cell["record_count"],  # all 1 at t_max = 1
                       "config.cell.record_count")
    record = _record_times(times, t_max, "config.cell")
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
    canon = json.dumps(obj, sort_keys=True, separators=(",", ":"), allow_nan=False)
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
        "conditions": [dataclasses.asdict(r) for r in verdict.report],
        "gamma1": None, "gamma2": None, "rates": None,
    }
    if params.equal_orders():
        g1, g2 = exponents.gamma_exponents(params)
        out["gamma1"], out["gamma2"] = g1, g2
    try:
        out["rates"] = dataclasses.asdict(exponents.theoretical_rates(params))
    except exponents.WrongRegimeError:
        pass  # no theory in this regime: rates stay null
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
    if path != "-" and (not path or os.path.isdir(path) or not os.path.isdir(folder)):
        raise ConfigError(f"--out: cannot create the file {path!r}")


def cmd_classify(args) -> int:
    params = exponents.SystemParams(**vars(args))
    print(json.dumps(verdict_json(params), indent=2, sort_keys=True, allow_nan=False))
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
    predicted = exponents.linear_rates(args.n, args.sigma)[("l2", "dsigma", "dt").index(args.kind)]
    try:
        fit = fitting.fit_power_law(series, (min(t_grid), max(t_grid)))
        lines.append(f"# fit: exponent={fit.exponent:.6f} "
                     f"r_squared={fit.r_squared:.8f} predicted={predicted:.6f}")
    except fitting.FitError as exc:
        lines.append(f"# warning: no fit: {exc}")
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
        rates = dataclasses.astuple(exponents.theoretical_rates(params))
        predicted = dict(zip(torus.NORM_LABELS, rates))
    except exponents.WrongRegimeError:
        predicted = {}
    out = {}
    for label, series in result.series.items():
        try:
            fit = fitting.fit_power_law(series, window)
        except fitting.FitError as exc:
            out[label] = {"error": str(exc)}
            continue
        entry = {"exponent": fit.exponent, "r_squared": fit.r_squared,
                 "window": list(window)}
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
    blowup = result.blowup
    if blowup is not None and not math.isfinite(blowup["norm_at_detection"]):
        blowup = dict(blowup, norm_at_detection=None)  # strict JSON has no inf or nan
    events = {
        "config_hash": hash_str,
        "blowup": blowup,
        "t_valid": result.t_valid,
        "warnings": result.warnings,
        "fits": _run_fits(result, cfg["params"], window),
        "regime": exponents.classify_regime(cfg["params"]).regime.value,
        "run": result.config_echo,
    }
    # the JSON first: a value it refuses leaves no file half written
    events_text = json.dumps(events, indent=2, sort_keys=True, allow_nan=False) + "\n"
    _write_text(os.path.join(args.out_dir, "norms.csv"), run_norms_csv(result, hash_str))
    _write_text(os.path.join(args.out_dir, "events.json"), events_text)
    print(json.dumps({"blowup": blowup, "out_dir": args.out_dir},
                     sort_keys=True, allow_nan=False))
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
        initial = result.config_echo["initial_total_norm"]
        if initial == 0:  # nonzero data whose samples all underflow: no growth ratio
            row["warnings"] = [*result.warnings, "initial total norm is 0: the data's "
                               "samples underflow, so there is no growth ratio"]
            row["observed"] = "Inconclusive"
            return row
        ratio = sum(s.entries[-1][1] for s in result.series.values()) / initial
        row["final_ratio"] = _fmt(ratio)
        fits = _run_fits(result, params, (task["fit_t_min"], t_max))
        slopes = {label: fit["exponent"] for label, fit in fits.items() if "exponent" in fit}
        row.update({f"slope_{label}": _fmt(slope) for label, slope in slopes.items()})
        if ratio > 10.0:
            row["observed"] = "Grew"
        elif ratio < 0.1 and len(slopes) == len(fits) and all(v < 0 for v in slopes.values()):
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
    # a fork pool starts all its processes at the first submit: at most one per cell
    workers = min(workers or min(8, torus.usable_cpus()), len(tasks))
    if workers > 1:
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
                      "out": args.out, "warnings": warnings}, sort_keys=True, allow_nan=False),
          file=sys.stderr if args.out == "-" else sys.stdout)
    return 0


def cmd_testfn_check(args) -> int:
    spec = testfn.TestFunctionSpec(gamma=args.gamma, r=args.r, R=args.R)
    # out to ~8R the bracket still carries weight; far beyond, the exact
    # identity drowns in cancellation and only the envelope bound is tested
    xs = np.concatenate([[0.0], np.geomspace(0.1, 8.0 * args.R, 10)])
    report: dict = {"gamma": args.gamma, "r": args.r, "R": args.R, "n": args.n}

    direct = testfn.fractional_laplacian_gamma(spec, xs, args.n, factored=False)
    factored = testfn.fractional_laplacian_gamma(spec, xs, args.n, factored=True)
    report["scaling_max_rel_err"] = float(np.max(
        np.abs(direct - factored) / np.maximum(np.abs(factored), 1e-300)))

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
        lhs, rhs = testfn.plancherel_pairing(spec, GaussianProfile(1.0, 1.0))
        report["plancherel_residual"] = abs(lhs - rhs) / max(abs(lhs), 1e-300)

    print(json.dumps(report, indent=2, sort_keys=True, allow_nan=False))
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
             {"workers": "process count (default: min(8, usable CPUs))"}),
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
