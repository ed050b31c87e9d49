"""Every ``sevolab`` name that the benchmark's tracer wraps still exists, the
package itself re-exports nothing, so importing it loads no module, and
importing the CLI or reading a sweep config with it loads no scipy module."""

import importlib
import json
import os
import pathlib
import subprocess
import sys

import sevolab

BENCH = pathlib.Path(__file__).resolve().parents[1] / "bench"


def test_bench_trace_targets_resolve(monkeypatch):
    # bench/tracing.py replaces these attributes in place, so a renamed or
    # deleted one breaks the benchmark's traced runs
    monkeypatch.syspath_prepend(str(BENCH))
    tracing = importlib.import_module("tracing")
    traced = tracing.TRACE_TARGETS + tracing.PROBE_TARGETS
    targets = [(module, attr) for module, attr, _ in traced if module.startswith("sevolab.")]
    targets.append(("sevolab.cli", "sweep_cell"))
    assert len(targets) > 20
    missing = [t for t in targets if not hasattr(importlib.import_module(t[0]), t[1])]
    assert missing == []


def loaded_after(module, then=""):
    """The modules a fresh interpreter holds after importing ``module`` and
    running the statement ``then``."""
    src = str(pathlib.Path(sevolab.__file__).resolve().parents[1])
    path = [src, *filter(None, os.environ.get("PYTHONPATH", "").split(os.pathsep))]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(path))
    code = f"import sys, {module}\n{then}\nprint(' '.join(sys.modules))"
    return subprocess.run([sys.executable, "-c", code], env=env, check=True,
                          capture_output=True, text=True).stdout.split()


def test_package_import_loads_no_numpy_or_scipy():
    # callers import the modules they use; the package's own import is free
    loaded = loaded_after("sevolab")
    assert "sevolab" in loaded
    assert [m for m in loaded if m.split(".")[0] in ("numpy", "scipy")] == []


def test_cli_import_loads_no_scipy():
    # the simulator, testfn and quadutil import their scipy modules on first use,
    # so a command that needs none of them (classify) loads none
    loaded = loaded_after("sevolab.cli")
    assert "sevolab.cli" in loaded
    assert [m for m in loaded if m.split(".")[0] == "scipy"] == []


def test_sweep_config_load_loads_no_scipy():
    # a sweep's set-up reads its config in the parent process: the box and
    # amplitude checks sample the data with numpy alone, and transform nothing
    config = {"p_range": [2, 2.5, 0.5], "q_range": [2, 2, 0.5],
              "fixed": {"n": 1, "sigma1": 1, "sigma2": 1},
              "cell": {"grid": {"n_dim": 1, "points_per_dim": 128, "half_length": 20.0},
                       "amplitude": 0.01, "width": 1.0, "t_max": 5}}
    then = f"import json; sevolab.cli.load_sweep_config(json.loads({json.dumps(config)!r}))"
    loaded = loaded_after("sevolab.cli", then)
    assert "sevolab.torus" in loaded
    assert [m for m in loaded if m.split(".")[0] == "scipy"] == []
