"""The package exports only what the library itself or the benchmark uses:
a name that only tests call belongs with the tests.  The same holds for
every public module-level function and class, exported or not, and for
the public methods and properties of its classes."""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "secantinv"


def referenced_names(path: Path, imports: bool = True) -> set:
    names = set()
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif imports and isinstance(node, ast.ImportFrom):
            names.update(alias.name for alias in node.names)
    return names


def test_every_export_is_used_outside_the_tests():
    init = SRC / "__init__.py"
    exported = [
        alias.name
        for node in ast.parse(init.read_text()).body
        if isinstance(node, ast.ImportFrom)
        for alias in node.names
    ]
    users = [p for p in sorted(SRC.glob("*.py")) if p != init]
    users += sorted((ROOT / "perfbench").glob("*.py"))
    used = set().union(*(referenced_names(p) for p in users))
    unused = [name for name in exported if name not in used]
    assert exported and not unused, f"exported but used only by tests: {unused}"


def test_every_public_method_is_used_outside_the_tests():
    # Matched by name alone, so a method whose name some other attribute
    # shares (`dim`, `total`) passes: this is a lower bound on what is unused.
    users = sorted(SRC.glob("*.py")) + sorted((ROOT / "perfbench").glob("*.py"))
    used = set().union(*(referenced_names(p, imports=False) for p in users))
    methods = [
        (f"{path.stem}.{cls.name}.{item.name}", item.name)
        for path in sorted(SRC.glob("*.py"))
        for cls in ast.parse(path.read_text()).body
        if isinstance(cls, ast.ClassDef)
        for item in cls.body
        if isinstance(item, ast.FunctionDef) and not item.name.startswith("_")
    ]
    unused = [where for where, name in methods if name not in used]
    assert methods and not unused, f"public methods used only by tests: {unused}"


def test_every_public_function_and_class_is_used_outside_the_tests():
    # A use is a bare name read in any module (its own included), or the
    # name qualified by its module (`cli.main`).  An import alone is none,
    # and neither is a field or an attribute of that name: `rank: int` and
    # `summand.rank` do not use `linalg.rank`.
    users = sorted(SRC.glob("*.py")) + sorted((ROOT / "perfbench").glob("*.py"))
    used = set()
    for path in users:
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                used.add(node.id)
            elif isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name):
                used.add(f"{node.value.id}.{node.attr}")
    defined = [
        (path.stem, node.name)
        for path in sorted(SRC.glob("*.py"))
        for node in ast.parse(path.read_text()).body
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_")
    ]
    unused = [
        f"{module}.{name}"
        for module, name in defined
        if name not in used and f"{module}.{name}" not in used
    ]
    assert defined and not unused, f"defined but used only by tests: {unused}"


def test_every_private_function_and_class_is_used_in_the_package():
    # A private helper is used when some code in src/ outside its own
    # definition reads its name, bare or as an attribute: a helper only its
    # own recursion or the tests call is left behind.  Matched by name alone,
    # like the public methods above.
    defined, used = [], set()
    for path in sorted(SRC.glob("*.py")):
        for stmt in ast.parse(path.read_text(), filename=str(path)).body:
            own = stmt.name if isinstance(stmt, (ast.FunctionDef, ast.ClassDef)) else None
            if own and own.startswith("_") and not own.startswith("__"):
                defined.append(f"{path.stem}.{own}")
            for node in ast.walk(stmt):
                if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                    name = node.id
                elif isinstance(node, ast.Attribute):
                    name = node.attr
                else:
                    continue
                if name != own:
                    used.add(name)
    unused = [where for where in defined if where.split(".")[1] not in used]
    assert defined and not unused, f"private helpers used nowhere in src/: {unused}"
