"""Every exported name resolves, in the package and in each module."""
import importlib
import pkgutil

import pytest

import latticebands

MODULES = [
    importlib.import_module(f"latticebands.{m.name}")
    for m in pkgutil.iter_modules(latticebands.__path__)
]


def _unresolved(module):
    return [name for name in module.__all__ if not hasattr(module, name)]


def test_package_all_resolves():
    assert _unresolved(latticebands) == []
    assert len(set(latticebands.__all__)) == len(latticebands.__all__)


@pytest.mark.parametrize(
    "module", [m for m in MODULES if hasattr(m, "__all__")], ids=lambda m: m.__name__
)
def test_module_all_resolves(module):
    assert _unresolved(module) == []
