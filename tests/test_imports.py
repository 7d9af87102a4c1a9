"""Every import in the package and in its tests is used by the module
that makes it, and every module-level private name is used somewhere in
the package.

A name counts as used when the module reads it, or lists it in
``__all__`` to re-export it.  An import statement marked ``# noqa: F401``
is kept on purpose (a name bound only so that callers can find and
replace it there) and is exempt.  A private ``_name`` counts as used
when any module of the package reads it, as a name or an attribute, or
imports it; a helper that a simplification leaves behind fails here.
"""

import ast
from pathlib import Path

import delgraphs

PACKAGE = Path(delgraphs.__file__).parent
TESTS = Path(__file__).parent


def unused_imports(source: str) -> list[str]:
    """The names ``source`` imports and never uses, in source order."""
    tree = ast.parse(source)
    lines = source.splitlines()
    imported = []  # (name, line)
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            span = lines[node.lineno - 1:node.end_lineno]
            if any("# noqa: F401" in line for line in span):
                continue
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported.append((name, node.lineno))
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    for node in ast.walk(tree):
        if (isinstance(node, ast.Assign)
                and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets)):
            used |= {e.value for e in node.value.elts if isinstance(e, ast.Constant)}
    return [f"{name} (line {line})" for name, line in sorted(imported, key=lambda x: x[1])
            if name not in used]


def unused_imports_in(directory: Path) -> dict[str, list[str]]:
    return {path.name: unused for path in sorted(directory.glob("*.py"))
            if (unused := unused_imports(path.read_text(encoding="utf-8")))}


def test_every_import_in_the_package_is_used():
    assert unused_imports_in(PACKAGE) == {}


def test_every_import_in_the_tests_is_used():
    assert unused_imports_in(TESTS) == {}


def test_the_import_check_flags_what_it_should():
    source = (
        "from __future__ import annotations\n"
        "import os, sys as system\n"
        "from math import (ceil,\n"
        "                  floor)\n"
        "from re import compile  # noqa: F401  (kept to be replaced)\n"
        "import os.path\n"
        "from json import dumps\n"
        "__all__ = ['dumps']\n"
        "x: floor = system.argv\n")
    assert unused_imports(source) == ["os (line 2)", "ceil (line 3)", "os (line 6)"]


def unused_private_names(sources: dict[str, str]) -> list[str]:
    """The module-level ``_name``s (dunders aside) that no module of
    ``sources`` (module name -> source) reads or imports, as
    ``module._name (line n)``."""
    defined, used = [], set()
    for module, source in sources.items():
        tree = ast.parse(source)
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                names = [node.name]
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                names = [t.id for t in targets if isinstance(t, ast.Name)]
            else:
                continue
            defined += [(module, name, node.lineno) for name in names
                        if name.startswith("_") and not name.startswith("__")]
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
            elif isinstance(node, ast.ImportFrom):
                used |= {alias.name for alias in node.names}
    return [f"{module}.{name} (line {line})" for module, name, line in defined
            if name not in used]


def test_every_private_name_in_the_package_is_used():
    sources = {path.stem: path.read_text(encoding="utf-8")
               for path in sorted(PACKAGE.glob("*.py"))}
    assert unused_private_names(sources) == []


def test_the_private_name_check_flags_what_it_should():
    sources = {
        "a": ("_LIMIT = 3\n"
              "_unused_table: dict = {}\n"
              "__version__ = '1'\n"
              "def _local():\n"
              "    return _LIMIT\n"
              "def _imported():\n"
              "    pass\n"
              "def _attribute():\n"
              "    pass\n"
              "def _left_behind():\n"
              "    _left_behind = 1\n"
              "class _Gone:\n"
              "    pass\n"
              "def public():\n"
              "    return _local()\n"),
        "b": ("from .a import _imported\n"
              "from . import a\n"
              "a._attribute()\n"),
    }
    assert unused_private_names(sources) == [
        "a._unused_table (line 2)", "a._left_behind (line 10)", "a._Gone (line 12)"]
