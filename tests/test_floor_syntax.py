"""Every source and test file parses under the grammar of Python 3.10, the
oldest version that ``requires-python`` admits, so a floor-syntax break
fails on any interpreter that runs the suite."""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
FILES = sorted(str(p.relative_to(ROOT)) for d in ("src", "tests") for p in (ROOT / d).rglob("*.py"))


@pytest.mark.parametrize("path", FILES)
def test_parses_at_python_3_10(path):
    ast.parse((ROOT / path).read_text(), filename=path, feature_version=(3, 10))
