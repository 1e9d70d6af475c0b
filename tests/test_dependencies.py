"""The third-party modules the package imports are exactly the dependencies
pyproject.toml declares: no stale entry, and no module that only happens to
be installed."""
import ast
import re
import sys
from pathlib import Path

import pytest

tomllib = pytest.importorskip("tomllib")  # Python 3.11+

ROOT = Path(__file__).resolve().parents[1]


def _imported_top_level_modules(src: Path) -> set[str]:
    names = set()
    for path in src.rglob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                names |= {alias.name.split(".")[0] for alias in node.names}
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names.add(node.module.split(".")[0])
    return names


def _project():
    return tomllib.loads((ROOT / "pyproject.toml").read_text(encoding="utf-8"))["project"]


def _names(requirements) -> set[str]:
    return {re.match(r"[A-Za-z0-9_.-]+", dep).group(0) for dep in requirements}


def _third_party(directory: Path) -> set[str]:
    local = {"latticebands"} | {path.stem for path in directory.glob("*.py")}
    return _imported_top_level_modules(directory) - set(sys.stdlib_module_names) - local


def test_src_imports_exactly_the_declared_dependencies():
    assert _third_party(ROOT / "src") == _names(_project()["dependencies"])


def test_test_extra_declares_exactly_what_the_tests_import_beyond_the_package():
    project = _project()
    declared = _names(project["dependencies"])
    assert _third_party(ROOT / "tests") - declared == _names(project["optional-dependencies"]["test"])
