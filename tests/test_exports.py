"""Every name a module lists in ``__all__`` exists, so ``import *`` works."""

import importlib
import pkgutil

import pytest

import sevolab

MODULES = sorted(f"sevolab.{m.name}" for m in pkgutil.iter_modules(sevolab.__path__))


@pytest.mark.parametrize("name", MODULES)
def test_all_names_resolve(name):
    module = importlib.import_module(name)
    missing = [n for n in getattr(module, "__all__", ()) if not hasattr(module, n)]
    assert missing == []
