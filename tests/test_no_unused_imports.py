"""Every name a library module imports is read in that module.

``__init__`` re-exports its imports, so it is exempt, and so is a line
marked ``# noqa: F401``: an import kept on purpose for another module.
"""

import ast
from pathlib import Path

import xoverlab

PACKAGE = Path(xoverlab.__file__).parent


def unused_imports(source: str) -> list[str]:
    """Names bound by import statements of source and never loaded there."""
    tree = ast.parse(source)
    lines = source.splitlines()
    bound = {}
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            if getattr(node, "module", None) == "__future__":
                continue
            if "# noqa: F401" in lines[node.end_lineno - 1]:
                continue
            for alias in node.names:
                bound[(alias.asname or alias.name).split(".")[0]] = node.lineno
    read = {node.id for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    return sorted(f"{name} (line {line})" for name, line in bound.items()
                  if name not in read)


def test_every_imported_name_is_read():
    modules = sorted(p for p in PACKAGE.rglob("*.py") if p.name != "__init__.py")
    assert modules
    found = {p.name: unused_imports(p.read_text()) for p in modules}
    assert {name: names for name, names in found.items() if names} == {}


def test_the_scan_sees_an_unused_import():
    source = "from os import path, sep\nimport sys\nprint(sep)\n"
    assert unused_imports(source) == ["path (line 1)", "sys (line 2)"]
    assert unused_imports("import sys  # noqa: F401\n") == []
