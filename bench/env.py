"""Process set-up shared by the benchmark's entry points."""

from __future__ import annotations

import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = Path(__file__).resolve().parent / "out"
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")


def prepare() -> None:
    """Pin BLAS/OpenMP pools to one thread and import sevolab from ``src/``.

    Must run before numpy is imported.  Exits with code 2 when the checkout
    holds no sevolab sources.
    """
    if not (SRC / "sevolab" / "__init__.py").is_file():
        sys.stderr.write(f"error: no sevolab sources under {SRC}\n")
        raise SystemExit(2)
    for var in THREAD_VARS:
        os.environ[var] = "1"
    old = os.environ.get("PYTHONPATH")
    os.environ["PYTHONPATH"] = str(SRC) + (os.pathsep + old if old else "")
    sys.path.insert(0, str(SRC))
