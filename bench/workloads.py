"""The benchmark workloads: seeded job batches, their execution and output checks.

Every job comes from a fixed catalogue whose outputs at the seed commit are
stored under ``bench/reference/`` (written by ``make_reference.py``).  The
workload seed only picks catalogue entries, so the output of any seed can be
checked.  Every batch has the same mix of job kinds whatever the seed, which
keeps the work in a batch, and so each metric, comparable between seeds.

Workloads (why each exists):

* ``sweep_1d``: 2 x 2 blocks of the acceptance phase diagram through
  ``cli.load_sweep_config`` + ``cli.run_sweep`` on 2 pool workers.  Each
  block holds the early blow-up cell (1.5, 1.5) and three cells that run
  all ~12.8k steps, so per-step dispatch on 16 KiB arrays, the 8 FFTs per
  step and pool balance dominate.
* ``simulate_2d``: one ``sevolab simulate`` run on a 256^2 grid (1 MiB
  per complex array) with 20 log-spaced record times, each adding a
  distinct final-step dt and so a kernel build.
* ``quadrature``: scalar adaptive-quadrature jobs that never touch
  ``torus``: oracle ``linear_norm`` calls and ``testfn-check`` evaluations.
  The inputs that fail at the seed commit stay in the catalogue, are drawn
  at their catalogue share and are counted as failed.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import random
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from sevolab import cli, oracle, testfn, torus
from sevolab.profiles import GaussianProfile

REFERENCE_DIR = Path(__file__).resolve().parent / "reference"
WORKLOADS = ("sweep_1d", "simulate_2d", "quadrature")

#: largest relative deviation from the reference that still counts as correct
REL_TOL = {"sweep_1d": 1e-6, "simulate_2d": 1e-6, "oracle": 1e-6,
           "fraclap": 1e-6, "fourier": 1e-6, "envelope": 1e-4}


@dataclass
class Job:
    """One program call of a batch: its catalogue key, busy time and output."""

    key: str
    kind: str
    seconds: float
    output: dict | None
    error: str = ""
    extra: dict = field(default_factory=dict)


# --------------------------------------------------------------------------
# sweep_1d
# --------------------------------------------------------------------------

SWEEP_WORKERS = 2
#: (1.5, 1.5) blows up at t ~ 68; every cell with p or q in SWEEP_FULL runs to t_max
SWEEP_EARLY = 1.5
SWEEP_FULL = (2.5, 3.0, 3.5, 4.0, 4.5)
SWEEP_FIXED = {"n": 1, "sigma1": 1.0, "sigma2": 1.0, "eps": 0.01}
SWEEP_CELL = {"grid": {"n_dim": 1, "points_per_dim": 2048, "half_length": 200.0},
              "amplitude": 0.01, "width": 1.0, "t_max": 500.0,
              "record_count": 24, "fit_t_min": 60.0}
#: the acceptance sweep; its 49 rows are the sweep reference
ACCEPTANCE_SWEEP = {"p_range": [1.5, 4.5, 0.5], "q_range": [1.5, 4.5, 0.5],
                    "fixed": SWEEP_FIXED, "cell": SWEEP_CELL, "seed": 0}


def sweep_config(p_hi: float, q_hi: float) -> dict:
    """The 2 x 2 block {1.5, p_hi} x {1.5, q_hi} as a sweep config."""
    return {"p_range": [SWEEP_EARLY, p_hi, p_hi - SWEEP_EARLY],
            "q_range": [SWEEP_EARLY, q_hi, q_hi - SWEEP_EARLY],
            "fixed": SWEEP_FIXED, "cell": SWEEP_CELL, "seed": 0}


def cell_key(p: float, q: float) -> str:
    return f"{p:g},{q:g}"


def row_output(row: dict) -> dict:
    out = {}
    for col in cli.SWEEP_COLUMNS:
        if col in ("p", "q"):
            continue
        val = row[col]
        if col in ("predicted", "observed", "error"):
            out[col] = val
        else:
            out[col] = float(val) if val != "" else None
    return out


def run_sweep_rows(raw: dict) -> list[dict]:
    cfg = cli.load_sweep_config(raw)
    return cli.run_sweep(cfg, workers=SWEEP_WORKERS)


def run_sweep_batch(block: tuple[float, float]) -> list[Job]:
    jobs = []
    for row in run_sweep_rows(sweep_config(*block)):
        probe = row.pop("_probe", {})
        extra = {"probe": probe}
        if "_trace" in row:
            extra["trace"] = row.pop("_trace")
        jobs.append(Job(cell_key(row["p"], row["q"]), "sweep_1d",
                        probe.get("end", 0.0) - probe.get("start", 0.0),
                        row_output(row), row["error"], extra))
    return jobs


# --------------------------------------------------------------------------
# simulate_2d
# --------------------------------------------------------------------------

SIM_T_MAX = 20.0
SIM_CASES = [(p, q, amp, width)
             for p, q in ((2.5, 3.5), (3.0, 4.0), (3.5, 3.0))
             for amp in (0.01, 0.02) for width in (1.0, 1.5)]
NORM_COLUMNS = ("u_l2", "u_dsigma", "u_dt", "v_l2", "v_dsigma", "v_dt")


def sim_key(case) -> str:
    return "p={:g},q={:g},a={:g},w={:g}".format(*case)


def sim_config(case) -> dict:
    p, q, amp, width = case
    blob = {"kind": "gaussian", "amplitude": amp, "width": width}
    return {"params": {"n": 2, "sigma1": 1.0, "sigma2": 1.0, "p": p, "q": q},
            "grid": {"n_dim": 2, "points_per_dim": 256, "half_length": 64.0},
            "data": {"u0": blob, "u1": None, "v0": blob, "v1": None},
            "t_max": SIM_T_MAX,
            "record": {"kind": "log", "t_min": 1.0, "t_max": SIM_T_MAX,
                       "count": 20}}


def run_simulate(case, out_dir: Path) -> Job:
    """``sevolab simulate`` in this process; returns the checked outputs."""
    out_dir.mkdir(parents=True, exist_ok=True)
    config = out_dir / "run.json"
    config.write_text(json.dumps(sim_config(case)), encoding="utf-8")
    start = time.perf_counter()
    with contextlib.redirect_stdout(io.StringIO()):
        code = cli.main(["simulate", "--config", str(config),
                         "--out-dir", str(out_dir)])
    seconds = time.perf_counter() - start
    if code != 0:
        return Job(sim_key(case), "simulate_2d", seconds, None, f"exit {code}")
    last = (out_dir / "norms.csv").read_text(encoding="utf-8").splitlines()[-1]
    values = [float(v) for v in last.split(",")]
    events = json.loads((out_dir / "events.json").read_text(encoding="utf-8"))
    output = {"t_final": values[0], **dict(zip(NORM_COLUMNS, values[1:])),
              "blowup_time": (events["blowup"] or {}).get("time")}
    return Job(sim_key(case), "simulate_2d", seconds, output)


# --------------------------------------------------------------------------
# quadrature
# --------------------------------------------------------------------------

ORACLE_SIGMAS = tuple(1.0 + 0.25 * i for i in range(9))
#: t = 10**(k/8), k = 0..40: 41 log-spaced times in [1, 1e5]
ORACLE_T_STEPS = 41
ENVELOPE_XS = [0.0] + list(np.geomspace(0.1, 1e3, 9))
#: jobs of each kind in one quadrature batch
QUAD_MIX = {"oracle": 24, "fraclap": 4, "fourier": 2, "envelope": 1}
#: batches drawn together; a block holds exactly QUAD_FAILING inputs of each
#: kind that fail at the seed commit, about their share of the catalogue
#: (31 of 6642 oracle and 3 of 27 envelope entries), so that every run of
#: the same length attempts and fails the same number of jobs
QUAD_BLOCK = 9
QUAD_FAILING = {"oracle": 1, "envelope": 1}


def quad_catalogue() -> dict[str, list[tuple]]:
    """Every quadrature job spec, grouped by kind; spec[0] is the kind."""
    kinds = [k.value for k in oracle.NormKind]
    return {
        "oracle": [("oracle", s, n, kind, k, u1)
                   for s in ORACLE_SIGMAS for n in (1, 2, 3) for kind in kinds
                   for k in range(ORACLE_T_STEPS) for u1 in (0, 1)],
        "fraclap": [("fraclap", g, r, R, x, n, f)
                    for g in (1.25, 1.5, 2.5) for r in (1.5, 2.0)
                    for R in (3.0, 7.3) for x in (0.0, 0.7, 5.3, 40.0)
                    for n in (1, 2, 3) for f in (0, 1)],
        "fourier": [("fourier", s, ell, x) for s in (0.25, 0.5, 0.75)
                    for ell in (2.0, 3.0, 5.0) for x in (0.0, 0.4, 3.0, 10.0)],
        "envelope": [("envelope", g, r, n) for g in (1.25, 1.5, 2.5)
                     for r in (0.5, 1.0, 2.0) for n in (1, 2, 3)],
    }


def quad_key(spec: tuple) -> str:
    return "|".join(f"{v:g}" if isinstance(v, float) else str(v) for v in spec)


def _quad_eval(spec: tuple) -> dict:
    kind = spec[0]
    if kind == "oracle":
        _, sigma, n, norm, k, u1 = spec
        w0 = GaussianProfile(1.0, 1.0)
        w1 = GaussianProfile(1.0, 1.0) if u1 else None
        value = oracle.linear_norm(w0, w1, 10.0 ** (k / 8.0), sigma, n,
                                   oracle.NormKind(norm))
        return {"value": value}
    if kind == "fraclap":
        _, gamma, r, R, x, n, factored = spec
        value = testfn.fractional_laplacian_gamma(
            testfn.TestFunctionSpec(gamma=gamma, r=r, R=R), x, n,
            factored=bool(factored))
        return {"value": value}
    if kind == "fourier":
        _, s, ell, x = spec
        return {"value": testfn.fractional_laplacian_fourier(
            testfn.BracketCombo(((1.0, ell),)), s, x)}
    _, gamma, r, n = spec
    case, const = testfn.envelope_ratio(gamma, r, n, ENVELOPE_XS)
    return {"case": case, "value": float(const)}


def run_quad_job(spec: tuple) -> Job:
    start = time.perf_counter()
    try:
        output, error = _quad_eval(spec), ""
    except Exception as exc:  # a failing evaluation is a result to count
        output, error = None, type(exc).__name__
    return Job(quad_key(spec), spec[0], time.perf_counter() - start,
               output, error)


# --------------------------------------------------------------------------
# seeded batches
# --------------------------------------------------------------------------

#: calibration kernel of each workload (see calibrate.py)
KERNEL = {"sweep_1d": "grid:2048", "simulate_2d": "grid:256x256", "quadrature": "quad"}
#: scaled seconds of one unit of work: a sweep block, a simulate run, or
#: QUAD_BLOCK quadrature batches
UNIT_S = {"sweep_1d": 20.0, "simulate_2d": 7.5, "quadrature": 3.2}


def batch_count(name: str, seconds: float) -> int:
    """Batches of a run of about ``seconds``: a whole number of units, at least one.

    The count depends on ``seconds`` only, never on the speed of the run,
    so runs of one seed attempt the same jobs."""
    units = max(1, round(seconds / UNIT_S[name]))
    return units * (QUAD_BLOCK if name == "quadrature" else 1)


def quad_blocks(rng: random.Random):
    reference = load_reference("quadrature")
    pools = {}
    for kind, specs in quad_catalogue().items():
        failing = [s for s in specs if "failed" in reference[quad_key(s)]]
        pools[kind] = (failing, [s for s in specs if "failed" not in reference[quad_key(s)]])
    while True:
        drawn = {}
        for kind, count in QUAD_MIX.items():
            failing, passing = pools[kind]
            k = QUAD_FAILING.get(kind, 0)
            drawn[kind] = (rng.sample(failing, k)
                           + [rng.choice(passing) for _ in range(count * QUAD_BLOCK - k)])
            rng.shuffle(drawn[kind])
        for i in range(QUAD_BLOCK):
            specs = [spec for kind, count in QUAD_MIX.items()
                     for spec in drawn[kind][i * count:(i + 1) * count]]
            rng.shuffle(specs)
            yield specs


def batches(name: str, seed: int):
    """Endless deterministic sequence of batches for one workload and seed."""
    rng = random.Random(f"{name}:{seed}")
    if name == "quadrature":
        yield from quad_blocks(rng)
    while True:
        if name == "sweep_1d":
            yield (rng.choice(SWEEP_FULL), rng.choice(SWEEP_FULL))
        else:
            yield rng.choice(SIM_CASES)


def run_batch(name: str, batch, out_dir: Path) -> list[Job]:
    if name == "sweep_1d":
        return run_sweep_batch(batch)
    if name == "simulate_2d":
        return [run_simulate(batch, out_dir / "simulate")]
    return [run_quad_job(spec) for spec in batch]


def grid_points(name: str) -> int:
    """Grid points per time step of the workload's torus runs (0: no torus)."""
    return {"sweep_1d": 2048, "simulate_2d": 256 * 256}.get(name, 0)


def setup(name: str) -> None:
    """What a fresh CLI process does before its first job: parse the config
    and build the grid (imports happen when this module is loaded)."""
    if name == "sweep_1d":
        cfg = cli.load_sweep_config(sweep_config(*SWEEP_FULL[:2]))
        cfg["grid"].xi_mag()
    elif name == "simulate_2d":
        cfg = cli.load_run_config(sim_config(SIM_CASES[0]))
        torus.init(cfg["grid"], cfg["data"], cfg["params"])
    else:
        quad_catalogue()


# --------------------------------------------------------------------------
# output check
# --------------------------------------------------------------------------

def load_reference(name: str) -> dict:
    with open(REFERENCE_DIR / f"{name}.json", encoding="utf-8") as fh:
        return json.load(fh)["outputs"]


def rel_dev(got: float, want: float) -> float:
    if got == want:
        return 0.0
    if not (math.isfinite(got) and math.isfinite(want)):
        return math.inf
    return abs(got - want) / max(abs(want), 1e-300)


def check(job: Job, reference: dict) -> tuple[str, float]:
    """(mismatch description or "", largest relative deviation) for one job.

    A job that fails the way the reference failed is not a mismatch; it
    still counts as failed.  A job that succeeds where the reference failed
    has nothing to be compared with and is not a mismatch either.
    """
    want = reference.get(job.key)
    if want is None:
        return "no reference output", 0.0
    if "failed" in want and not job.error:
        return "", 0.0
    if job.output is None or "failed" in want:
        if job.error == want.get("failed"):
            return "", 0.0
        return f"failed {job.error!r}, reference {want.get('failed')!r}", 0.0
    if job.output.keys() != want.keys():
        return f"fields {sorted(job.output)} != {sorted(want)}", 0.0
    tol = REL_TOL[job.kind]
    worst = 0.0
    for field_name, ref in want.items():
        got = job.output[field_name]
        if isinstance(ref, float) and isinstance(got, float):
            dev = rel_dev(got, ref)
            worst = max(worst, dev)
            if dev > tol:
                return f"{field_name}: {got!r} vs {ref!r}", worst
        elif got != ref:
            return f"{field_name}: {got!r} vs {ref!r}", worst
    return "", worst
