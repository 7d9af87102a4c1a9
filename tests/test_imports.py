"""Every import in the package is used by the module that makes it.

A name counts as used when the module reads it, or lists it in
``__all__`` to re-export it.  An import statement marked ``# noqa: F401``
is kept on purpose (a name bound only so that callers can find and
replace it there) and is exempt.
"""

import ast
from pathlib import Path

import delgraphs

PACKAGE = Path(delgraphs.__file__).parent


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


def test_every_import_in_the_package_is_used():
    found = {path.name: unused for path in sorted(PACKAGE.glob("*.py"))
             if (unused := unused_imports(path.read_text(encoding="utf-8")))}
    assert found == {}


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
