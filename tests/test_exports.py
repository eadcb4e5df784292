"""Every name a module exports is defined there."""

import importlib
import pkgutil

import pytest

import polariton_lab

MODULES = [polariton_lab] + [importlib.import_module(f"polariton_lab.{m.name}")
                             for m in pkgutil.iter_modules(polariton_lab.__path__)]


@pytest.mark.parametrize("module", MODULES, ids=lambda m: m.__name__)
def test_every_export_resolves(module):
    # a stale __all__ entry breaks `from module import *`
    missing = [name for name in getattr(module, "__all__", ()) if not hasattr(module, name)]
    assert missing == []
