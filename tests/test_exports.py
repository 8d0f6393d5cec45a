import importlib
import pkgutil

import pytest

import lexiscope

MODULES = ["lexiscope"] + [
    f"lexiscope.{module.name}" for module in pkgutil.iter_modules(lexiscope.__path__)
]


@pytest.mark.parametrize("module_name", MODULES)
def test_every_export_resolves(module_name):
    module = importlib.import_module(module_name)
    missing = [name for name in module.__all__ if not hasattr(module, name)]
    assert missing == []
