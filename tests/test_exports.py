"""Every exported name resolves, in the package and in each module, and the
modules the package loads on first use stay unloaded until then."""
import importlib
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import pytest

import latticebands

MODULES = [
    importlib.import_module(f"latticebands.{m.name}")
    for m in pkgutil.iter_modules(latticebands.__path__)
]

LAZY = ("fractions", "latticebands.counterexample", "latticebands.degeneracy",
        "latticebands.freebands")


def _unresolved(module):
    return [name for name in module.__all__ if not hasattr(module, name)]


def _fresh_python(code):
    """stdout of `code` run in a new interpreter that imports this package."""
    env = {**os.environ, "PYTHONPATH": str(Path(latticebands.__file__).parents[1])}
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=env, check=True)
    return proc.stdout


def test_package_all_resolves():
    assert _unresolved(latticebands) == []
    assert len(set(latticebands.__all__)) == len(latticebands.__all__)
    with pytest.raises(AttributeError, match="no_such_name"):
        latticebands.no_such_name


@pytest.mark.parametrize(
    "module", [m for m in MODULES if hasattr(m, "__all__")], ids=lambda m: m.__name__
)
def test_module_all_resolves(module):
    assert _unresolved(module) == []


def test_star_import_binds_every_exported_name():
    out = _fresh_python(f"""
import sys
import latticebands
print(sorted(m for m in {LAZY!r} if m in sys.modules))
print(sorted(set(latticebands.__all__) - set(dir(latticebands))))
print(latticebands.freebands.__name__)
names = {{}}
exec("from latticebands import *", names)
print(sorted(set(latticebands.__all__) - set(names)))
print(names["classify"] is latticebands.degeneracy.classify)
""")
    assert out == "[]\n[]\nlatticebands.freebands\n[]\nTrue\n"


@pytest.mark.parametrize("name", sorted(latticebands._LAZY))
def test_lazy_names_are_the_module_all(name):
    # the package lists a lazy module's names itself, so that naming one
    # loads only its module; the list must be that module's __all__
    module = importlib.import_module(f"latticebands.{name}")
    assert sorted(latticebands._LAZY[name]) == sorted(module.__all__)
    names = {}
    exec("from latticebands import *", names)
    assert [n for n in module.__all__ if names.get(n) is not getattr(module, n)] == []


@pytest.mark.parametrize("argv", [
    ("spectrum", "--q", "2,2", "--grid", "16,16", "--json"),
    ("bands", "--q", "2,2", "--grid", "4,4", "--potential", "random", "--delta", "0.1"),
    ("cq", "--q", "2,2", "--grid", "8,8", "--json"),
], ids=lambda argv: argv[0])
def test_core_commands_load_no_lazy_module(argv):
    out = _fresh_python(f"""
import contextlib, io, sys
from latticebands import cli
with contextlib.redirect_stdout(io.StringIO()):
    rc = cli.main({list(argv)!r})
print(rc, sorted(m for m in {LAZY!r} if m in sys.modules))
""")
    assert out == "0 []\n"


def test_degeneracy_command_loads_no_mpmath():
    # coincident levels are grouped in cyclotomic integers, with numpy only
    out = _fresh_python("""
import contextlib, io, sys
from latticebands import cli
with contextlib.redirect_stdout(io.StringIO()):
    rc = cli.main(["degeneracy", "--q", "3,2", "--theta", "0.16666666666666666,0",
                   "--l", "1,0", "--beta", "1,0", "--t", "0.001", "--json"])
print(rc, "mpmath" in sys.modules)
""")
    assert out == "0 False\n"
