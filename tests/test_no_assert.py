"""Library checks must survive ``python -O``, so no module may use ``assert``."""

import ast
from pathlib import Path

import xoverlab

PACKAGE = Path(xoverlab.__file__).parent


def test_no_assert_statements_in_the_package():
    modules = sorted(PACKAGE.rglob("*.py"))
    assert modules
    found = [
        f"{path.name}:{node.lineno}"
        for path in modules
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if isinstance(node, ast.Assert)
    ]
    assert found == []
