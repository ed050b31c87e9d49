"""Write ``bench/reference/<workload>.json``: every catalogue job's output.

The files hold the outputs of the commit the benchmark was defined on, and
every later run is checked against them.  Regenerating them on a later
commit would hide any change in results; do it only when the catalogue
itself changes, on the commit that defines it.

    python3 bench/make_reference.py [sweep_1d] [simulate_2d] [quadrature]
"""

from __future__ import annotations

import json
import sys

import env

env.prepare()

import workloads as wl  # noqa: E402  (needs env.prepare first)


def sweep_outputs() -> dict:
    rows = wl.run_sweep_rows(wl.ACCEPTANCE_SWEEP)
    return {wl.cell_key(r["p"], r["q"]): wl.row_output(r) for r in rows}


def simulate_outputs() -> dict:
    out = {}
    for case in wl.SIM_CASES:
        job = wl.run_simulate(case, env.OUT / "reference-simulate")
        out[job.key] = job.output if job.output is not None else {"failed": job.error}
        print(job.key, f"{job.seconds:.1f}s", job.error, flush=True)
    return out


def quadrature_outputs() -> dict:
    out = {}
    for specs in wl.quad_catalogue().values():
        for spec in specs:
            job = wl.run_quad_job(spec)
            out[job.key] = job.output if job.output is not None else {"failed": job.error}
    return out


MAKERS = {"sweep_1d": sweep_outputs, "simulate_2d": simulate_outputs,
          "quadrature": quadrature_outputs}


def main(names: list[str]) -> None:
    for name in names or wl.WORKLOADS:
        outputs = MAKERS[name]()
        failed = sum(1 for o in outputs.values() if "failed" in o or o.get("error"))
        path = wl.REFERENCE_DIR / f"{name}.json"
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"workload": name, "outputs": outputs}, fh, indent=0,
                      sort_keys=True)
            fh.write("\n")
        print(f"{path}: {len(outputs)} outputs, {failed} failed", flush=True)


if __name__ == "__main__":
    main(sys.argv[1:])
