"""Every name a module exports is defined there, and the engine and the
check import only what they must."""

import ast
import importlib
import pkgutil
from pathlib import Path

import pytest

import polariton_lab

MODULES = [polariton_lab] + [importlib.import_module(f"polariton_lab.{m.name}")
                             for m in pkgutil.iter_modules(polariton_lab.__path__)]


@pytest.mark.parametrize("module", MODULES, ids=lambda m: m.__name__)
def test_every_export_resolves(module):
    # a stale __all__ entry breaks `from module import *`
    missing = [name for name in getattr(module, "__all__", ()) if not hasattr(module, name)]
    assert missing == []


def _relative_imports(module) -> set[str]:
    """The package modules ``module``'s source imports, anywhere in it."""
    tree = ast.parse(Path(module.__file__).read_text(encoding="utf-8"))
    return {node.module or "" for node in ast.walk(tree)
            if isinstance(node, ast.ImportFrom) and node.level > 0}


@pytest.mark.parametrize("name, allowed", [
    ("lattice", {"model"}),
    ("kernels", {"model", "quadrature"}),
    ("spectral", {"lattice", "model"}),
])
def test_engine_and_check_import_neither_each_other(name, allowed):
    # read from the source: the package __init__ loads every module, so
    # sys.modules cannot show which module needs which
    module = importlib.import_module(f"polariton_lab.{name}")
    assert _relative_imports(module) == allowed

