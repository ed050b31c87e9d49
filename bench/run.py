"""sevolab benchmark: one workload, one seed, one line of JSON.

    python3 bench/run.py --workload sweep_1d --seed 1 --seconds 20 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 20 --trace 0

A single client runs the workload's seeded batches (see ``workloads.py``)
back to back, as many as ``workloads.batch_count`` gives for ``--seconds``
(a fixed count, so that runs of one seed attempt the same jobs), checks
every output against the stored reference, prints a table and, as its last
line, one JSON object with the keys ``correct``, ``attempted``, ``failed``
and ``metrics``.  The metric names and units are those of
``BENCHMARK.json``: the end-to-end ones with ``--trace 0``; with
``--trace 1`` the batches run alternately untraced and traced and the
metrics are the per-layer ones of the traced batches.

The gated times are scaled to a reference machine speed by calibration
kernels run between and around the jobs (see ``calibrate.py``); the table
and the record also give them as plain wall-clock figures.

A record of the run (machine, settings, all metrics, failures) and, when
traced, its spans are written to ``bench/out/``.

A job is a sweep cell (``sweep_1d``), a simulate run (``simulate_2d``) or
one evaluation (``quadrature``), so the gated ``jobs_per_s`` and
``job_ms_*`` are ``cells_per_s``, ``cell_s_p50``, ``evals_per_s`` and
``eval_ms_*`` under the workloads' own names.  Those names, together with
``mode_steps_per_s`` and ``fail_ratio``, are printed in the table and kept
in the record; they are not gated, as each exists for only some workloads.
A job counts as failed when it raises, exits non-zero, returns a sweep row
with an error, or does not match the reference.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import env

#: fresh processes timed for setup_s
SETUP_PROBES = 5
BENCH_DIR = Path(__file__).resolve().parent


def parse_args(argv):
    ap = argparse.ArgumentParser(description="sevolab benchmark")
    ap.add_argument("--workload", required=True,
                    choices=["sweep_1d", "simulate_2d", "quadrature", "all"])
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


def declared_metrics() -> dict[str, dict[str, str]]:
    """Metric name -> unit for each section of BENCHMARK.json."""
    with open(env.ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        spec = json.load(fh)
    return {section: {m["name"]: m["unit"] for m in spec[section]}
            for section in ("end_to_end", "per_layer")}


def measure_setup(name: str) -> tuple[list[float], list[float]]:
    """(wall seconds, speed factors) of fresh processes that import sevolab,
    parse the config and build the grid.  Each is followed by the ``spawn``
    kernel, a fresh process of the same kind of work, for its speed factor."""
    import calibrate
    code = (f"import sys; sys.path.insert(0, {str(BENCH_DIR)!r}); import env; "
            f"env.prepare(); import workloads; workloads.setup({name!r})")
    times, factors = [], []
    for _ in range(SETUP_PROBES):
        start = time.perf_counter()
        subprocess.run([sys.executable, "-c", code], check=True, cwd=env.ROOT)
        times.append(time.perf_counter() - start)
        factors.append(calibrate.spawn_factor())
    return times, factors


def tail(values: list[float]) -> tuple[float, float, int]:
    """(value, percentile, samples) of the highest percentile with at least
    10 samples beyond it; the maximum when there are 10 samples or fewer."""
    xs = sorted(values)
    n = len(xs)
    if n <= 10:
        return xs[-1], 100.0, n
    return xs[n - 11], 100.0 * (n - 10) / n, n


def machine() -> dict:
    import numpy
    import scipy
    info = {"nproc": os.cpu_count(), "affinity_cpus": len(os.sched_getaffinity(0)),
            "python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__}
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            info["cpu_model"] = next((line.split(":", 1)[1].strip() for line in fh
                                      if line.startswith("model name")), "")
    except OSError:
        info["cpu_model"] = ""
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        try:
            level = (index / "level").read_text().strip()
            kind = (index / "type").read_text().strip()
            size = (index / "size").read_text().strip()
        except OSError:
            continue
        if level in ("2", "3") and kind != "Instruction":
            info[f"L{level}"] = size
    return info


def src_lines() -> int:
    return sum(len(p.read_text(encoding="utf-8").splitlines())
               for p in sorted((env.SRC / "sevolab").glob("*.py")))


# --------------------------------------------------------------------------
# the timed phase
# --------------------------------------------------------------------------

@dataclass
class Batch:
    traced: bool
    start: float
    wall: float
    jobs: list
    #: speed factor, and kernel seconds inside ``wall`` (untraced only)
    factor: float = 1.0
    pause: float = 0.0

    @property
    def scaled_wall(self) -> float:
        return (self.wall - self.pause) / self.factor


def scale_jobs(batch: Batch, cal, samples: list[float], inside_s: float) -> None:
    """Set the batch's speed factor and kernel pause, and each job's ``scaled`` seconds."""
    import workloads
    cells = [j.extra["probe"]["cal"] for j in batch.jobs if "cal" in j.extra.get("probe", {})]
    batch.factor = cal.factor(samples + [x for c in cells for x in c["samples"]])
    batch.pause = inside_s + sum(c["total_s"] for c in cells) / workloads.SWEEP_WORKERS
    for job in batch.jobs:
        probe_cal = job.extra.get("probe", {}).get("cal")
        if probe_cal is not None:  # a sweep cell, sampled in its worker
            scaled = (job.seconds - probe_cal["inside_s"]) / cal.factor(probe_cal["samples"])
        else:  # kernels run in this process only between simulate time steps
            scaled = (job.seconds - inside_s) / batch.factor
        job.extra["scaled"] = scaled


def run_batches(name: str, seed: int, seconds: float, trace: bool):
    """A fixed number of batches (see ``workloads.batch_count``); with trace,
    each batch runs once untraced and once traced, in alternating order.
    Batches are framed by runs of the workload's calibration kernel;
    untraced time-stepping jobs are interleaved with them too."""
    import itertools

    import calibrate
    import tracing
    import workloads
    cal = calibrate.Calibrator(workloads.KERNEL[name])
    probe = tracing.Tracer(full=False, owner_pid=os.getpid(), calibrator=cal)
    full = tracing.Tracer(full=True, owner_pid=os.getpid())
    done: list[Batch] = []
    begin = time.perf_counter()
    count = workloads.batch_count(name, seconds)
    for i, batch in enumerate(itertools.islice(workloads.batches(name, seed), count)):
        modes = [(False, True), (True, False)][i % 2] if trace else (False,)
        for traced in modes:
            tracer = tracing.install(full if traced else probe)
            tracer.run_id = f"{name} batch {i}"
            cal.sample()
            mark = cal.mark()
            start = time.perf_counter()
            try:
                jobs = workloads.run_batch(name, batch, env.OUT)
            finally:
                tracing.uninstall()
            wall = time.perf_counter() - start
            for job in jobs:
                if "trace" in job.extra:
                    tracer.merge(job.extra.pop("trace"))
            done.append(Batch(traced, start, wall, jobs))
            inside, inside_s = cal.since(mark)
            cal.sample()
            samples = [cal.samples[mark.samples - 1], *inside, cal.samples[-1]]
            if traced:  # framed only, for the tracing overhead
                done[-1].factor = cal.factor(samples)
            else:
                scale_jobs(done[-1], cal, samples, inside_s)
    return done, time.perf_counter() - begin, probe, full


# --------------------------------------------------------------------------
# metrics
# --------------------------------------------------------------------------

def cell_stats(batches: list[Batch]) -> dict:
    """Pool figures of sweep batches: per-cell busy time, busy ratio, queue wait."""
    import workloads
    busy, capacity, waits = 0.0, 0.0, []
    for b in batches:
        for job in b.jobs:
            busy += job.seconds
            waits.append(job.extra["probe"]["start"] - b.start)
        capacity += b.wall * workloads.SWEEP_WORKERS
    return {"busy_ratio": busy / capacity, "queue_wait_s": statistics.fmean(waits)}


def layer_metrics(tr, batches: list[Batch], name: str) -> dict:
    jobs = [j for b in batches for j in b.jobs]
    per_job = 1.0 / len(jobs)

    def calls(span):
        return tr.calls.get(span, 0) * per_job

    def secs(span):
        return tr.total.get(span, 0.0) * per_job

    steps = tr.calls.get("torus.duhamel_step", 0)
    fft = [v for (span, _), v in tr.fft.items() if span == "torus.fft"]
    built = tr.parents_with.get(("torus.duhamel_step", "multipliers.duhamel_weights"), 0)
    norms = tr.durations.get("oracle.linear_norm", [])
    m = {
        "torus.duhamel_step.calls": calls("torus.duhamel_step"),
        "torus.duhamel_step.self_s": tr.self_s.get("torus.duhamel_step", 0.0) * per_job,
        "torus.duhamel_step.us_per_call":
            1e6 * tr.total["torus.duhamel_step"] / steps if steps else 0.0,
        "torus.fft.calls": sum(v[0] for v in fft) * per_job,
        "torus.fft.s": sum(v[1] for v in fft) * per_job,
        "torus.fft.bytes_computed": sum(v[2] for v in fft) * per_job,
        "torus.run.self_s": tr.self_s.get("torus.run", 0.0) * per_job,
        "torus.init.s": secs("torus.init"),
        "torus.six_norms.calls": calls("torus.six_norms"),
        "torus.six_norms.s": secs("torus.six_norms"),
        "multipliers.duhamel_weights.calls": calls("multipliers.duhamel_weights"),
        "multipliers.duhamel_weights.s": secs("multipliers.duhamel_weights"),
        "multipliers.propagator_arrays.calls": calls("multipliers.propagator_arrays"),
        "multipliers.propagator_arrays.s": secs("multipliers.propagator_arrays"),
        "multipliers.weight_reuse_ratio": 1.0 - built / steps if steps else 0.0,
        "oracle.linear_norm.calls": calls("oracle.linear_norm"),
        "oracle.linear_norm.s": secs("oracle.linear_norm"),
        "oracle.linear_norm.ms_p50": 1e3 * statistics.median(norms) if norms else 0.0,
        "oracle.linear_norm.failures": tr.failures.get("oracle.linear_norm", 0) * per_job,
        "quadutil.adaptive_quad.calls": calls("quadutil.adaptive_quad"),
        "quadutil.adaptive_quad.s": secs("quadutil.adaptive_quad"),
        "quadutil.adaptive_quad.failures":
            tr.failures.get("quadutil.adaptive_quad", 0) * per_job,
        "testfn.fractional_laplacian_bracket.calls":
            calls("testfn.fractional_laplacian_bracket"),
        "testfn.fractional_laplacian_bracket.s": secs("testfn.fractional_laplacian_bracket"),
        "testfn.fractional_laplacian_fourier.calls":
            calls("testfn.fractional_laplacian_fourier"),
        "testfn.fractional_laplacian_fourier.s": secs("testfn.fractional_laplacian_fourier"),
        "cli.sweep_cell.s_p50": 0.0, "cli.sweep_cell.s_max": 0.0,
        "cli.run_sweep.busy_ratio": 0.0, "cli.run_sweep.queue_wait_s": 0.0,
        "fitting.fit_power_law.s": secs("fitting.fit_power_law"),
        "exponents.classify_regime.s": secs("exponents.classify_regime"),
    }
    if name == "sweep_1d":
        cells = [j.seconds for j in jobs]
        stats = cell_stats(batches)
        m.update({"cli.sweep_cell.s_p50": statistics.median(cells),
                  "cli.sweep_cell.s_max": max(cells),
                  "cli.run_sweep.busy_ratio": stats["busy_ratio"],
                  "cli.run_sweep.queue_wait_s": stats["queue_wait_s"]})
    return m


def mode_steps_per_s(tr, batches: list[Batch], name: str) -> float:
    """Grid points x time steps per scaled second of ``torus.run``."""
    import workloads
    kernels = sum(b.pause for b in batches)  # every kernel run inside a batch is between steps
    stepping = ((tr.total.get("torus.run", 0.0) - kernels)
                / statistics.fmean(b.factor for b in batches))
    steps = tr.calls.get("torus.duhamel_step", 0)
    return workloads.grid_points(name) * steps / stepping if stepping > 0 else 0.0


def tally(jobs, reference) -> tuple[list[dict], int, float]:
    """(failed jobs, output mismatches, largest relative deviation) of a run."""
    import workloads
    failures, mismatches, max_dev = [], 0, 0.0
    for job in jobs:
        mismatch, dev = workloads.check(job, reference)
        max_dev = max(max_dev, dev)
        mismatches += bool(mismatch)
        if job.error or mismatch:
            failures.append({"key": job.key, "error": job.error, "mismatch": mismatch})
    return failures, mismatches, max_dev


def run_workload(args) -> dict:
    declared = declared_metrics()
    setup, setup_factors = measure_setup(args.workload)
    import workloads
    reference = workloads.load_reference(args.workload)
    batches, timed, probe, full = run_batches(args.workload, args.seed,
                                              args.seconds, bool(args.trace))

    jobs = [j for b in batches for j in b.jobs]
    failures, mismatches, max_dev = tally(jobs, reference)

    untraced = [b for b in batches if not b.traced]
    untraced_jobs = [j for b in untraced for j in b.jobs]
    seconds = [j.extra["scaled"] for j in untraced_jobs]
    tail_s, tail_pct, tail_n = tail(seconds)
    rss_kib = max([resource.getrusage(resource.RUSAGE_SELF).ru_maxrss]
                  + [j.extra["probe"]["rss_kib"] for j in jobs if "probe" in j.extra])
    end_to_end = {
        "setup_s": statistics.median(t / f for t, f in zip(setup, setup_factors)),
        "wall_s": statistics.median(b.scaled_wall for b in untraced),
        "peak_rss_mib": rss_kib / 1024.0,
        "jobs_per_s": len(untraced_jobs) / sum(b.scaled_wall for b in untraced),
        "job_ms_p50": 1e3 * statistics.median(seconds),
        "job_ms_tail": 1e3 * tail_s,
    }
    raw_seconds = [j.seconds for j in untraced_jobs]
    wall_clock = {
        "setup_s": statistics.median(setup),
        "wall_s": statistics.median(b.wall for b in untraced),
        "jobs_per_s": len(untraced_jobs) / sum(b.wall for b in untraced),
        "job_ms_p50": 1e3 * statistics.median(raw_seconds),
        "job_ms_tail": 1e3 * tail(raw_seconds)[0],
    }
    fail_ratio = len(failures) / len(jobs)
    named = {"fail_ratio": (fail_ratio, "1")}
    if args.workload == "sweep_1d":
        named.update(cells_per_s=(end_to_end["jobs_per_s"], "1/s"),
                     cell_s_p50=(end_to_end["job_ms_p50"] / 1e3, "s"),
                     mode_steps_per_s=(mode_steps_per_s(probe, untraced, args.workload), "1/s"))
    elif args.workload == "simulate_2d":
        named.update(mode_steps_per_s=(mode_steps_per_s(probe, untraced, args.workload), "1/s"))
    else:
        named.update(evals_per_s=(end_to_end["jobs_per_s"], "1/s"),
                     eval_ms_p50=(end_to_end["job_ms_p50"], "ms"),
                     eval_ms_tail=(end_to_end["job_ms_tail"], "ms"))

    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "machine": machine(),
              "settings": {v: os.environ.get(v) for v in env.THREAD_VARS},
              "src_lines": src_lines(), "setup_samples_s": setup,
              "setup_speed_factors": setup_factors,
              "timed_phase_s": timed,
              "batches": [{"traced": b.traced, "wall_s": b.wall, "jobs": len(b.jobs),
                           "speed_factor": b.factor, "kernel_pause_s": b.pause}
                          for b in batches],
              "end_to_end": end_to_end, "wall_clock": wall_clock,
              "job_ms_tail": {"percentile": tail_pct, "samples": tail_n},
              "workload_metrics": {k: v for k, (v, _) in named.items()},
              "fingerprint_max_rel_dev": max_dev, "failures": failures}

    section = "per_layer" if args.trace else "end_to_end"
    if args.trace:
        traced = [b for b in batches if b.traced]
        values = layer_metrics(full, traced, args.workload)
        values["trace.overhead_ratio"] = (sum(b.scaled_wall for b in traced)
                                          / sum(b.scaled_wall for b in untraced))
        values["fingerprint.max_rel_dev"] = max_dev
        record["per_layer"] = values
        # share of the traced wall time spent in spans under torus.run; with
        # sweep pool workers the children overlap, so only simulate_2d has one
        if args.workload == "simulate_2d":
            record["torus_run_child_share"] = (full.child_s.get("torus.run", 0.0)
                                               / sum(b.wall for b in traced))
        record["fft_by_shape"] = [[span, shape, *v] for (span, shape), v in full.fft.items()]
        env.OUT.mkdir(parents=True, exist_ok=True)
        spans_path = env.OUT / f"{args.workload}_seed{args.seed}_spans.jsonl"
        with open(spans_path, "w", encoding="utf-8") as fh:
            for span in full.spans:
                fh.write(json.dumps(span) + "\n")
    else:
        values = end_to_end
    if set(values) != set(declared[section]):
        raise SystemExit(f"metrics {sorted(set(values) ^ set(declared[section]))} "
                         f"differ from the {section} list of BENCHMARK.json")
    metrics = {k: {"value": values[k], "unit": declared[section][k]}
               for k in declared[section]}

    env.OUT.mkdir(parents=True, exist_ok=True)
    record_path = env.OUT / f"{args.workload}_seed{args.seed}_trace{args.trace}.json"
    record_path.write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")

    print(f"# {args.workload} seed={args.seed} batches={len(batches)} "
          f"jobs={len(jobs)} failed={len(failures)} mismatches={mismatches} "
          f"max_rel_dev={max_dev:.3g} record={record_path.relative_to(env.ROOT)}")
    for key, metric in metrics.items():
        print(f"{args.workload:12s} {key:42s} {metric['value']:14.6g} {metric['unit']}")
    if not args.trace:
        for key, (value, unit) in named.items():
            print(f"{args.workload:12s} {key:42s} {value:14.6g} {unit}")
        print(f"{args.workload:12s} {'job_ms_tail percentile':42s} {tail_pct:14.6g} "
              f"% of {tail_n} jobs")
        for key, value in wall_clock.items():
            print(f"{args.workload:12s} {'wall-clock ' + key:42s} {value:14.6g} "
                  f"{declared[section][key]}")
    elif "torus_run_child_share" in record:
        print(f"{args.workload:12s} {'torus.run child-span share of wall':42s} "
              f"{record['torus_run_child_share']:14.6g} 1")
    return {"correct": mismatches == 0, "attempted": len(jobs),
            "failed": len(failures), "metrics": metrics}


def run_all(args) -> dict:
    """Every workload in its own fresh process; metrics keyed workload.metric."""
    result = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in ("sweep_1d", "simulate_2d", "quadrature"):
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            check=True, cwd=env.ROOT, stdout=subprocess.PIPE, text=True)
        lines = proc.stdout.splitlines()
        print("\n".join(lines[:-1]), flush=True)
        part = json.loads(lines[-1])
        result["correct"] = result["correct"] and part["correct"]
        result["attempted"] += part["attempted"]
        result["failed"] += part["failed"]
        for key, metric in part["metrics"].items():
            result["metrics"][f"{name}.{key}"] = metric
    return result


def main(argv=None) -> int:
    args = parse_args(argv)
    env.prepare()
    result = run_all(args) if args.workload == "all" else run_workload(args)
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
