"""Dependency hygiene: the package imports only what pyproject.toml
declares, no longer imports jsonschema, and exports only what it uses."""

import ast
import inspect
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


def _reads(tree: ast.AST, name: str) -> bool:
    """Whether ``tree`` names ``name`` outside the definition of ``name``."""
    stack = [tree]
    while stack:
        node = stack.pop()
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)) \
                and node.name == name:
            continue
        if (isinstance(node, ast.Name) and node.id == name
                or isinstance(node, ast.Attribute) and node.attr == name):
            return True
        stack.extend(ast.iter_child_nodes(node))
    return False


def test_public_names_are_used_by_the_package():
    # an exported function or class that only tests read belongs in the
    # tests; parseval_defect is reported by no command yet, but is kept
    import vww
    trees = [ast.parse(path.read_text())
             for path in (ROOT / "src" / "vww").glob("*.py")
             if path.name != "__init__.py"]
    public = [name for name in vww.__all__
              if inspect.isfunction(getattr(vww, name))
              or inspect.isclass(getattr(vww, name))]
    unused = [name for name in public
              if not any(_reads(tree, name) for tree in trees)]
    assert unused == ["parseval_defect"]
