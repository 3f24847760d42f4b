"""Dependency hygiene: the package imports only what pyproject.toml
declares, and no longer imports jsonschema."""

import ast
import pathlib
import re
import sys

import pytest

ROOT = pathlib.Path(__file__).resolve().parents[1]


def third_party_imports() -> set:
    """Top-level names of every non-stdlib module that ``src/vww``
    imports, at module level or inside a function."""
    names = set()
    for path in (ROOT / "src" / "vww").glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                names.update(a.name.split(".")[0] for a in node.names)
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names.add(node.module.split(".")[0])
    return names - set(sys.stdlib_module_names) - {"vww"}


def test_imports_are_declared_dependencies():
    tomllib = pytest.importorskip("tomllib")  # Python 3.11+
    project = tomllib.loads((ROOT / "pyproject.toml").read_text())["project"]
    # a distribution named as its import name, as numpy, scipy and orjson are
    declared = {re.match(r"[A-Za-z0-9_.-]+", spec).group().lower()
                for spec in project["dependencies"]}
    # function-level imports count
    assert {"orjson", "scipy"} <= third_party_imports()
    assert third_party_imports() <= declared


def test_no_jsonschema_import():
    assert "jsonschema" not in third_party_imports()
