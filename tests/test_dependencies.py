"""Dependency hygiene: the package imports only what pyproject.toml
declares, no longer imports jsonschema, and exports only what it uses,
down to the members of its exported classes."""

import ast
import dataclasses
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


def _loaded_attributes(tree: ast.AST, enclosing=()):
    """(attribute name, names of the enclosing defs) of every attribute
    load in ``tree``."""
    for node in ast.iter_child_nodes(tree):
        if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            yield node.attr, enclosing
        inner = (enclosing + (node.name,)
                 if isinstance(node, ast.FunctionDef) else enclosing)
        yield from _loaded_attributes(node, inner)


def _own_bases(cls) -> list:
    return [base for base in cls.__mro__ if base.__module__.startswith("vww")]


def _members(cls) -> set:
    """Public fields (dataclass or NamedTuple), methods and properties of
    cls, its own and those of its vww bases."""
    names = set(getattr(cls, "_fields", ()))
    if dataclasses.is_dataclass(cls):
        names |= {f.name for f in dataclasses.fields(cls)}
    for base in _own_bases(cls):
        names |= {k for k, v in vars(base).items()
                  if inspect.isfunction(v)
                  or isinstance(v, (property, classmethod, staticmethod))}
    return {name for name in names if not name.startswith("_")}


def _serializes_fields(cls) -> bool:
    """Whether cls or a vww base hands ``self`` to dataclasses.fields or
    asdict, which reads every field."""
    for base in _own_bases(cls):
        for node in ast.walk(ast.parse(inspect.getsource(base))):
            if (isinstance(node, ast.Call)
                    and getattr(node.func, "id", None) in ("fields", "asdict")
                    and any(isinstance(a, ast.Name) and a.id == "self"
                            for a in node.args)):
                return True
    return False


def test_public_members_are_read_by_the_package():
    # a field, method or property of an exported class that only tests
    # read belongs in the tests.  Reads are attribute loads by name
    # anywhere under src/vww outside the member's own def, so a name that
    # two classes share counts as read for both
    import vww
    read = {name for path in (ROOT / "src" / "vww").glob("*.py")
            for name, enclosing in _loaded_attributes(
                ast.parse(path.read_text()))
            if name not in enclosing}
    unread = []
    for cls_name in vww.__all__:
        cls = getattr(vww, cls_name)
        if not inspect.isclass(cls):
            continue
        fields = ({f.name for f in dataclasses.fields(cls)}
                  if _serializes_fields(cls) else set())
        unread += [f"{cls_name}.{member}"
                   for member in sorted(_members(cls) - fields - read)]
    assert unread == []
