"""Layer spans recorded from outside the program.

Wrappers replace the public functions of each ``sevolab`` module at the
attribute every caller looks up (``torus.duhamel_weights`` as well as
``multipliers.duhamel_weights``, ``oracle.adaptive_quad`` and
``testfn.adaptive_quad`` as well as ``quadutil.adaptive_quad``), and every
``numpy.fft`` transform, so the program itself is unchanged.  A span is
(name, start, end, parent, run id).  Counts, inclusive and self times are
aggregated as spans close; the spans themselves are kept in memory, up to
``SPAN_CAP`` per name and process, and written when the run ends.

Sweep cells run in pool workers.  ``CellProbe`` stands in for
``cli.sweep_cell``; it is pickled into each worker, times the cell there
and returns the worker's aggregates and spans inside the result row.
"""

from __future__ import annotations

import functools
import importlib
import os
import resource
import time
from collections import Counter, defaultdict

import numpy as np

from calibrate import Calibrator

#: spans stored per name and process; later ones only enter the aggregates
SPAN_CAP = 2000
#: names whose individual durations are kept, for percentiles
KEEP_DURATIONS = {"oracle.linear_norm"}
FFT_FUNCTIONS = ("fft", "ifft", "fft2", "ifft2", "fftn", "ifftn", "rfft", "irfft",
                 "rfft2", "irfft2", "rfftn", "irfftn", "hfft", "ihfft")

#: (module, attribute, span name) for every place a caller looks a function up
TRACE_TARGETS = [
    ("sevolab.cli", "load_run_config", "cli.load_run_config"),
    ("sevolab.cli", "load_sweep_config", "cli.load_sweep_config"),
    ("sevolab.cli", "run_sweep", "cli.run_sweep"),
    ("sevolab.cli", "cmd_simulate", "cli.cmd_simulate"),
    ("sevolab.cli", "run_norms_csv", "cli.run_norms_csv"),
    ("sevolab.torus", "run", "torus.run"),
    ("sevolab.torus", "init", "torus.init"),
    ("sevolab.torus", "duhamel_step", "torus.duhamel_step"),
    ("sevolab.torus", "linear_step", "torus.linear_step"),
    ("sevolab.torus", "six_norms", "torus.six_norms"),
    ("sevolab.torus", "detect_blowup", "torus.detect_blowup"),
    ("sevolab.torus", "duhamel_weights", "multipliers.duhamel_weights"),
    ("sevolab.torus", "propagator_arrays", "multipliers.propagator_arrays"),
    ("sevolab.multipliers", "duhamel_weights", "multipliers.duhamel_weights"),
    ("sevolab.multipliers", "propagator_arrays", "multipliers.propagator_arrays"),
    ("sevolab.multipliers", "propagator", "multipliers.propagator"),
    ("sevolab.oracle", "linear_norm", "oracle.linear_norm"),
    ("sevolab.oracle", "decay_series", "oracle.decay_series"),
    ("sevolab.oracle", "adaptive_quad", "quadutil.adaptive_quad"),
    ("sevolab.testfn", "adaptive_quad", "quadutil.adaptive_quad"),
    ("sevolab.quadutil", "adaptive_quad", "quadutil.adaptive_quad"),
    ("sevolab.testfn", "fractional_laplacian_gamma", "testfn.fractional_laplacian_gamma"),
    ("sevolab.testfn", "fractional_laplacian_bracket", "testfn.fractional_laplacian_bracket"),
    ("sevolab.testfn", "fractional_laplacian_fourier", "testfn.fractional_laplacian_fourier"),
    ("sevolab.testfn", "envelope_ratio", "testfn.envelope_ratio"),
    ("sevolab.fitting", "fit_power_law", "fitting.fit_power_law"),
    ("sevolab.fitting", "compare_rates", "fitting.compare_rates"),
    ("sevolab.exponents", "classify_regime", "exponents.classify_regime"),
    ("sevolab.exponents", "theoretical_rates", "exponents.theoretical_rates"),
] + [("numpy.fft", name, "fft") for name in FFT_FUNCTIONS]

#: what an untraced run installs: enough to count time steps and stepping time
PROBE_TARGETS = [("sevolab.torus", "run", "torus.run"),
                 ("sevolab.torus", "duhamel_step", "torus.duhamel_step")]

_originals: dict[tuple[str, str], object] = {}
#: the tracer whose wrappers are installed in this process, if any
_active: "Tracer | None" = None


class Tracer:
    """Span aggregates of one process; ``export``/``merge`` move them between processes."""

    def __init__(self, full: bool, owner_pid: int | None = None,
                 calibrator: Calibrator | None = None):
        self.full = full  # all TRACE_TARGETS and stored spans, else PROBE_TARGETS only
        self.owner_pid = owner_pid  # the harness process; None in a spawned worker
        self.calibrator = calibrator  # sampled between time steps, if given
        self.pid = os.getpid()
        self.run_id = ""
        self.last_dur = 0.0
        self._stack: list[list] = []  # open spans: [id, name, child seconds, child names]
        self._next_id = 0
        self.clear()

    def clear(self) -> None:
        self.calls: Counter = Counter()
        self.total: defaultdict = defaultdict(float)
        self.self_s: defaultdict = defaultdict(float)
        self.child_s: defaultdict = defaultdict(float)
        self.failures: Counter = Counter()
        self.parents_with: Counter = Counter()  # (parent, child): parents with >= 1 such child
        self.fft: dict[tuple[str, str], list] = {}  # (span, shape): [calls, s, bytes]
        self.durations: defaultdict = defaultdict(list)
        self.spans: list[tuple] = []
        self._stored: Counter = Counter()

    def call(self, name: str, fn, args, kwargs):
        stack = self._stack
        parent = stack[-1] if stack else None
        self._next_id += 1
        frame = [(self.pid, self._next_id), name, 0.0, None]
        stack.append(frame)
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        except BaseException:
            self.failures[name] += 1
            raise
        finally:
            end = time.perf_counter()
            stack.pop()
            dur = self.last_dur = end - start
            self.calls[name] += 1
            self.total[name] += dur
            self.self_s[name] += dur - frame[2]
            if name in KEEP_DURATIONS:
                self.durations[name].append(dur)
            if parent is not None:
                parent[2] += dur
                self.child_s[parent[1]] += dur
                if parent[3] is None:
                    parent[3] = set()
                if name not in parent[3]:
                    parent[3].add(name)
                    self.parents_with[(parent[1], name)] += 1
            if self.full and self._stored[name] < SPAN_CAP:
                self._stored[name] += 1
                self.spans.append((name, start, end, frame[0],
                                   parent[0] if parent else None, self.run_id))

    def fft_call(self, fn, a, args, kwargs):
        inside_torus = any(f[1].startswith("torus.") for f in self._stack)
        name = "torus.fft" if inside_torus else "numpy.fft"
        out = self.call(name, fn, (a,) + args, kwargs)
        shape = "x".join(str(d) for d in np.shape(a))
        entry = self.fft.setdefault((name, shape), [0, 0.0, 0])
        entry[0] += 1
        entry[1] += self.last_dur
        entry[2] += np.asarray(a).nbytes + out.nbytes
        return out

    def adopt(self) -> None:
        """Start afresh in a forked worker, keeping the parent's open spans as parents."""
        self.pid = os.getpid()
        self.clear()

    def export(self) -> dict:
        return {"calls": dict(self.calls), "total": dict(self.total),
                "self_s": dict(self.self_s), "child_s": dict(self.child_s),
                "failures": dict(self.failures),
                "parents_with": list(self.parents_with.items()),
                "fft": list(self.fft.items()),
                "durations": dict(self.durations), "spans": self.spans}

    def merge(self, data: dict) -> None:
        for attr in ("calls", "total", "self_s", "child_s", "failures"):
            target = getattr(self, attr)
            for key, val in data[attr].items():
                target[key] += val
        for key, val in data["parents_with"]:
            self.parents_with[tuple(key)] += val
        for key, (calls, secs, nbytes) in data["fft"]:
            entry = self.fft.setdefault(tuple(key), [0, 0.0, 0])
            entry[0] += calls
            entry[1] += secs
            entry[2] += nbytes
        for key, vals in data["durations"].items():
            self.durations[key].extend(vals)
        self.spans.extend(data["spans"])


def _wrap(tracer: Tracer, span: str, fn):
    if span == "fft":
        @functools.wraps(fn)
        def wrapper(a, *args, **kwargs):
            return tracer.fft_call(fn, a, args, kwargs)
    elif span == "torus.duhamel_step" and tracer.calibrator is not None:
        tick = tracer.calibrator.tick

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            out = tracer.call(span, fn, args, kwargs)
            tick()
            return out
    else:
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            return tracer.call(span, fn, args, kwargs)
    return wrapper


def install(tracer: Tracer) -> Tracer:
    """Replace the targets with wrappers feeding ``tracer``, and the sweep
    cell with a ``CellProbe``."""
    global _active
    uninstall()
    targets = TRACE_TARGETS if tracer.full else PROBE_TARGETS
    for module, attr, span in targets + [("sevolab.cli", "sweep_cell", "cell")]:
        mod = importlib.import_module(module)
        original = _originals.setdefault((module, attr), getattr(mod, attr))
        if span == "cell":
            setattr(mod, attr, CellProbe(tracer.full, tracer.calibrator and
                                         tracer.calibrator.kernel))
        else:
            setattr(mod, attr, _wrap(tracer, span, original))
    _active = tracer
    return tracer


def uninstall() -> None:
    global _active
    for (module, attr), original in _originals.items():
        setattr(importlib.import_module(module), attr, original)
    _originals.clear()
    _active = None


class CellProbe:
    """Stands in for ``cli.sweep_cell``; picklable, so pool workers receive it.

    Adds ``_probe`` (start, end, pid, peak RSS of the process and, with a
    calibration kernel, its samples from just before to just after the cell
    and the seconds they took inside and around it) to each row and, in a
    worker, ``_trace`` with the spans and aggregates of the cell.
    """

    def __init__(self, trace: bool, kernel: str | None = None):
        self.trace = trace
        self.kernel = kernel

    def __call__(self, task: dict) -> dict:
        tracer = _active
        if tracer is None:  # a worker started without the parent's memory
            tracer = Tracer(self.trace,
                            calibrator=Calibrator(self.kernel) if self.kernel else None)
            install(tracer)
        if tracer.pid != os.getpid():
            tracer.adopt()
        in_worker = tracer.owner_pid != os.getpid()
        cell = _originals[("sevolab.cli", "sweep_cell")]
        tracer.run_id = f"cell {task['p']:g},{task['q']:g}"
        cal = tracer.calibrator
        if cal is not None:
            cal.sample()
            before = cal.mark()
        start = time.perf_counter()
        row = tracer.call("cli.sweep_cell", cell, (task,), {})
        end = time.perf_counter()
        probe = {"start": start, "end": end, "pid": os.getpid(),
                 "rss_kib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss}
        if cal is not None:
            inside_samples, inside_s = cal.since(before)
            cal.sample()
            probe["cal"] = {"samples": [cal.samples[before.samples - 1], *inside_samples,
                                        cal.samples[-1]],
                            "inside_s": inside_s,
                            "total_s": inside_s + cal.samples[before.samples - 1]
                            + cal.samples[-1]}
        row["_probe"] = probe
        if in_worker:
            row["_trace"] = tracer.export()
            tracer.clear()
        return row
