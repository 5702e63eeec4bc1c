"""Invariants in the package raise real exceptions: ``python -O`` strips
``assert`` statements, so none may guard a result."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "secantinv"


def test_package_has_no_assert_statements():
    found = [
        f"{path.name}:{node.lineno}"
        for path in sorted(SRC.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if isinstance(node, ast.Assert)
    ]
    assert not found, f"assert statements in src/secantinv: {found}"
