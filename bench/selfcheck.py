"""Harness self-check at smoke size: python3 bench/selfcheck.py

1. Each workload, untraced and traced, for one unit of work: the last line
   is the result object and carries every metric of BENCHMARK.json with its
   unit.
2. The jobs of a run depend on its seed and length only, and every seed
   draws the same number of inputs that fail at the seed commit.
3. A job that fails the way the reference failed counts as failed and
   keeps ``correct``; an injected job that raises counts as failed and
   clears ``correct``.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import subprocess
import sys

import env
import run

env.prepare()

import workloads  # noqa: E402  (needs env.prepare first)


def check_metrics() -> None:
    declared = run.declared_metrics()
    for name in workloads.WORKLOADS:
        for trace in (0, 1):
            proc = subprocess.run(
                [sys.executable, "bench/run.py", "--workload", name, "--seed", "0",
                 "--seconds", "1", "--trace", str(trace)],
                check=True, cwd=env.ROOT, stdout=subprocess.PIPE, text=True)
            result = json.loads(proc.stdout.splitlines()[-1])
            assert set(result) == {"correct", "attempted", "failed", "metrics"}, result
            assert result["correct"] and result["attempted"] >= 1, result
            section = declared["per_layer" if trace else "end_to_end"]
            got = {k: m["unit"] for k, m in result["metrics"].items()}
            assert got == section, (name, trace, set(got) ^ set(section))
            assert all(math.isfinite(m["value"]) for m in result["metrics"].values())
            print(f"ok   {name} trace={trace}: {len(got)} metrics with units", flush=True)


def check_draws() -> None:
    import itertools
    reference = workloads.load_reference("quadrature")
    count = workloads.batch_count("quadrature", 20)

    def draw(seed):
        return list(itertools.islice(workloads.batches("quadrature", seed), count))

    failing = set()
    for seed in range(5):
        specs = [spec for batch in draw(seed) for spec in batch]
        failing.add(sum("failed" in reference[workloads.quad_key(s)] for s in specs))
    assert draw(3) == draw(3)
    assert len(failing) == 1 and failing.pop() > 0, failing
    print("ok   quadrature draws repeat per seed and hold a fixed number of failing inputs")


def run_injected(batch: list[tuple]) -> dict:
    """run_workload on quadrature with every batch replaced by ``batch``."""
    original = workloads.batches, workloads.batch_count
    workloads.batches = lambda name, seed: iter([batch] * 1000)
    workloads.batch_count = lambda name, seconds: 1
    try:
        args = run.parse_args(["--workload", "quadrature", "--seconds", "0"])
        with contextlib.redirect_stdout(io.StringIO()):
            return run.run_workload(args)
    finally:
        workloads.batches, workloads.batch_count = original


def check_failure_counting() -> None:
    known = ("oracle", 3.0, 1, "dt", 8, 0)       # QuadratureFailure at the seed too
    good = ("oracle", 1.0, 1, "l2", 0, 0)
    injected = ("oracle", 1.0, 4, "l2", 0, 0)    # n = 4 raises ValueError
    result = run_injected([good, known])
    assert (result["correct"], result["attempted"], result["failed"]) == (True, 2, 1), result
    print("ok   a failure the reference shares is counted and stays correct")
    result = run_injected([good, injected])
    assert (result["correct"], result["attempted"], result["failed"]) == (False, 2, 1), result
    print("ok   an injected failing job is counted and clears correct")


if __name__ == "__main__":
    check_draws()
    check_failure_counting()
    check_metrics()
    print("self-check passed")
