"""Machine-speed calibration by small kernels interleaved with the jobs.

The CPU speed of a small shared host drifts: a fixed job can take 1.35 s
in one minute and 2.4 s in the next, and CPU time moves with wall time, so
the drift is not time stolen from the process but slower execution.  A
run's wall-clock times therefore spread more between runs than any bound
worth gating.  Each workload runs a fixed kernel of the same kind of work
as its jobs, outside the jobs, every ``INTERVAL_S`` seconds of the timed
phase and just before and after each job:

* ``quad``: QUADPACK over a pure-Python scalar integrand (the oracle and
  test-function jobs, and the set-up probes, which are interpreter bound);
* ``grid:<shape>``: inverse FFT, a real power, forward FFT and a complex
  multiply-add on an array of the workload's grid shape (a torus step);
* ``spawn``: a fresh Python process that imports numpy and the scipy
  modules sevolab uses (set-up probes).  Process start-up speed varies
  from process to process far more than a kernel run in another process
  shows, so each set-up probe is paired with its own ``spawn`` run.

A job's speed factor is the mean kernel time sampled from just before it
to just after it, divided by the kernel's nominal time below.  Its scaled
time is its wall time, less the kernel runs inside it, divided by that
factor: the time it would take at the speed where the kernel takes its
nominal time.  Program changes move scaled times as they move wall times;
the kernels are the benchmark's own code, and a program change does not
run them.
"""

from __future__ import annotations

import math
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass

import numpy as np
from numpy.fft import fftn, ifftn
from scipy.integrate import quad

#: seconds of the timed phase between two kernel runs at most
INTERVAL_S = 0.4
#: kernel seconds at the reference speed (medians on a 2-vCPU Xeon VM)
NOMINAL_S = {"quad": 0.014, "grid:2048": 0.017, "grid:256x256": 0.014, "spawn": 0.75}
SPAWN_CODE = "import numpy, numpy.fft, scipy.integrate, scipy.special, json, argparse"


def _integrand(x: float) -> float:
    d = 1.0 - 4.0 * x * x
    if d >= 0.0:
        sq = math.sqrt(d)
        k = math.exp(-x / 2.0) * (math.cosh(sq * x) + math.sinh(sq * x) / (1.0 + sq))
    else:
        om = math.sqrt(-d) / 2.0
        k = math.exp(-x / 2.0) * math.cos(om) + math.sin(om) / (1.0 + om)
    return k * k * math.exp(-0.1 * x) * (1.0 + x) ** 0.5


def _quad_kernel():
    def run():
        for k in range(20):
            quad(_integrand, 0.0, 30.0 + k, points=[0.5], limit=200,
                 epsabs=1e-300, epsrel=1e-10)
    return run


def _grid_kernel(shape: tuple[int, ...], reps: int):
    rng = np.random.default_rng(0)
    base = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    weight = rng.standard_normal(shape)

    def run():
        x = base
        for _ in range(reps):
            phys = ifftn(x).real
            x = base + 1e-3 * weight * fftn(np.abs(phys) ** 1.5)
    return run


def make_kernel(name: str):
    if name == "quad":
        return _quad_kernel()
    shape = tuple(int(d) for d in name.split(":", 1)[1].split("x"))
    return _grid_kernel(shape, reps=max(1, 2 ** 18 // math.prod(shape)))


def spawn_factor() -> float:
    """Speed factor of one run of the ``spawn`` kernel."""
    start = time.perf_counter()
    subprocess.run([sys.executable, "-c", SPAWN_CODE], check=True)
    return (time.perf_counter() - start) / NOMINAL_S["spawn"]


@dataclass
class Mark:
    samples: int
    spent: float


class Calibrator:
    """The kernel samples (seconds each) of one process."""

    def __init__(self, kernel: str):
        self.kernel = kernel
        self.nominal = NOMINAL_S[kernel]
        self._run = make_kernel(kernel)
        self._run()  # warm-up: first-call costs are not machine speed
        self.samples: list[float] = []
        self.spent = 0.0
        self._last = time.perf_counter()

    def sample(self) -> None:
        start = time.perf_counter()
        self._run()
        self._last = time.perf_counter()
        dur = self._last - start
        self.samples.append(dur)
        self.spent += dur

    def tick(self) -> None:
        """Sample when ``INTERVAL_S`` has passed since the last sample."""
        if time.perf_counter() - self._last >= INTERVAL_S:
            self.sample()

    def mark(self) -> Mark:
        return Mark(len(self.samples), self.spent)

    def since(self, mark: Mark) -> tuple[list[float], float]:
        """(kernel seconds sampled, seconds spent in kernels) after ``mark``."""
        return self.samples[mark.samples:], self.spent - mark.spent

    def factor(self, samples: list[float]) -> float:
        """Speed factor of a stretch whose samples are given: > 1 is slower."""
        return statistics.fmean(samples) / self.nominal
