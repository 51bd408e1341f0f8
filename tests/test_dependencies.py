"""The package imports only the standard library, itself and what
``pyproject.toml`` declares; numpy, a test-only reference, is not declared."""

import ast
import re
import sys
from pathlib import Path

import pytest

tomllib = pytest.importorskip("tomllib")  # in the standard library from Python 3.11

ROOT = Path(__file__).resolve().parents[1]


def declared_dependencies() -> set[str]:
    """The distribution names in ``[project].dependencies``, lowercased."""
    project = tomllib.loads((ROOT / "pyproject.toml").read_text())["project"]
    return {re.match(r"[A-Za-z0-9_.-]+", spec).group(0).lower() for spec in project["dependencies"]}


def top_level_imports(path: Path) -> set[str]:
    """The first component of every absolute import in ``path``; relative
    imports are the package itself."""
    names = set()
    for node in ast.walk(ast.parse(path.read_text(), str(path))):
        if isinstance(node, ast.Import):
            names.update(alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names.add(node.module.split(".")[0])
    return names


def test_package_imports_only_the_stdlib_itself_and_its_dependencies():
    allowed = set(sys.stdlib_module_names) | {"cruxkit"} | declared_dependencies()
    sources = sorted((ROOT / "src" / "cruxkit").glob("*.py"))
    assert sources
    stray = {f"{path.name}: {name}" for path in sources
             for name in top_level_imports(path) - allowed}
    assert stray == set()


def test_numpy_is_not_a_dependency():
    assert "numpy" not in declared_dependencies()
