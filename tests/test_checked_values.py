"""No module of the library calls an input check as a bare statement, its value
dropped: a function that checks a number computes with the number the check
returns, so a numpy scalar computes as the float or int it holds, not in its
own precision.  A checked value used inline and then dropped is out of this
walk's sight; ``test_finite_inputs`` compares such calls' results."""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
MODULES = sorted(str(p.relative_to(ROOT)) for p in (ROOT / "src" / "sevolab").rglob("*.py"))
CHECKS = {"require", "dimension", "auto_or_positive", "require_reals"}


def dropped_checks(source: str) -> list[int]:
    """The line of each expression statement in ``source`` that calls a check."""
    return [node.lineno for node in ast.walk(ast.parse(source))
            if isinstance(node, ast.Expr) and isinstance(node.value, ast.Call)
            and getattr(node.value.func, "id", getattr(node.value.func, "attr", None)) in CHECKS]


@pytest.mark.parametrize("path", MODULES)
def test_no_check_drops_its_value(path):
    assert dropped_checks((ROOT / path).read_text()) == []


def test_a_dropped_check_is_found():
    source = "def f(x, n):\n    require(x, 'x')\n    _inputs.dimension(n, 'n')\n    return x\n"
    assert dropped_checks(source) == [2, 3]
