"""No dataclass in the package is both ``frozen=True`` and ``slots=True``.

On Python 3.11 ``slots=True`` rebuilds the class, but the ``__setattr__``
that ``frozen=True`` generated still refers to the class from before.
Assigning to a property of an instance then raises ``TypeError: super(type,
obj): obj must be an instance or subtype of type`` instead of
``FrozenInstanceError``.  A frozen dataclass declares ``__slots__`` in its
body instead."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "secantinv"


def _sets_true(call: ast.Call, name: str) -> bool:
    return any(
        kw.arg == name and isinstance(kw.value, ast.Constant) and kw.value.value is True
        for kw in call.keywords
    )


def test_no_dataclass_is_both_frozen_and_slotted():
    found = [
        f"{path.name}:{node.lineno}"
        for path in sorted(SRC.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if isinstance(node, ast.Call)
        and getattr(node.func, "id", getattr(node.func, "attr", None)) == "dataclass"
        and _sets_true(node, "frozen")
        and _sets_true(node, "slots")
    ]
    assert not found, f"frozen slotted dataclasses in src/secantinv: {found}"
