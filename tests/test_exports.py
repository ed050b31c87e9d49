"""Every ``sevolab`` name that the benchmark's tracer wraps still exists, and
the package itself re-exports nothing, so importing it loads no module."""

import importlib
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


def test_package_import_loads_no_numpy_or_scipy():
    # callers import the modules they use; the package's own import is free
    src = str(pathlib.Path(sevolab.__file__).resolve().parents[1])
    path = [src, *filter(None, os.environ.get("PYTHONPATH", "").split(os.pathsep))]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(path))
    code = "import sys, sevolab; print(' '.join(sys.modules))"
    loaded = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                            capture_output=True, text=True).stdout.split()
    assert "sevolab" in loaded
    assert [m for m in loaded if m.split(".")[0] in ("numpy", "scipy")] == []
