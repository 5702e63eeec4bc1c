"""List the statements of `secantinv` that the benchmark traffic never runs.

Run from the repository root:

    python3 tests/traffic_coverage.py [symbolic] [twisted] [oracles] [cli]

With no arguments it runs, under the standard library's ``trace`` module,
one full-size batch of each benchmark workload (``perfbench/workloads.py``,
imported read-only; every check must pass) and every command of
``tests/goldens/cli_goldens.json`` (every output must match its golden
bytes).  Naming sources runs only those.  It then prints each executable
statement of ``src/secantinv/*.py`` that never ran, as ``file:line:
source``, and one summary line per module.  ``raise`` statements,
docstrings and annotations in class bodies are left out: they mark paths
that should not run, or do nothing when run.

A statement counts as run when any line of its span ran, so a multi-line
statement and a compound statement whose body ran both count.  The package
is imported inside the trace, so its module-level statements count too.
"""

from __future__ import annotations

import argparse
import ast
import io
import json
import os
import random
import sys
import trace
from pathlib import Path
from typing import Dict, List, Set, Tuple

sys.dont_write_bytecode = True  # leave no __pycache__ in perfbench/ or src/
ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "secantinv"
GOLDENS = ROOT / "tests" / "goldens" / "cli_goldens.json"
SEED = 7
SOURCES = ("symbolic", "twisted", "oracles", "cli")


def run_workload(name: str) -> None:
    from recorder import Recorder
    from workloads import SIZES, WORKLOADS

    build, run_batch = WORKLOADS[name]
    inputs = build(SIZES["full"][name], random.Random(SEED))
    expected = json.loads((ROOT / "perfbench" / "expected.json").read_text())
    rec = Recorder(tracing=False)
    run_batch(rec, inputs, expected)
    if rec.failed:
        raise SystemExit(f"{name}: {rec.failed} of {rec.attempted} checks failed: {rec.errors}")


def run_cli_goldens() -> None:
    from secantinv import cli

    for command, golden in json.loads(GOLDENS.read_text())["commands"].items():
        out = io.StringIO()
        if cli.run(command.split(), out=out) != 0 or out.getvalue() != golden:
            raise SystemExit(f"cli: `{command}` does not reproduce its golden output")


def _ignored(stmt: ast.stmt, parent: ast.AST) -> bool:
    if isinstance(stmt, ast.Raise):
        return True
    if isinstance(stmt, ast.AnnAssign) and stmt.value is None:
        return isinstance(parent, ast.ClassDef)
    return (
        isinstance(parent, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef))
        and parent.body[0] is stmt
        and isinstance(stmt, ast.Expr)
        and isinstance(stmt.value, ast.Constant)
        and isinstance(stmt.value.value, str)
    )


def statements(path: Path) -> List[Tuple[int, int]]:
    """(first line, last line) of every executable statement in ``path``."""
    spans = []
    for parent in ast.walk(ast.parse(path.read_text())):
        for field in ("body", "orelse", "finalbody"):
            block = getattr(parent, field, ())
            for stmt in block if isinstance(block, list) else ():
                if not _ignored(stmt, parent):
                    decorators = getattr(stmt, "decorator_list", ())
                    first = min([stmt.lineno] + [d.lineno for d in decorators])
                    spans.append((first, stmt.end_lineno))
    return sorted(spans)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("sources", nargs="*", help=" ".join(SOURCES) + " (default: all)")
    sources = parser.parse_args(argv).sources or list(SOURCES)
    if set(sources) - set(SOURCES):
        parser.error(f"sources must be among {' '.join(SOURCES)}")
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]
    if "secantinv" in sys.modules:
        raise SystemExit("secantinv is imported already; its import would not be traced")

    def traffic() -> None:
        for source in sources:
            if source == "cli":
                run_cli_goldens()
            else:
                run_workload(source)

    tracer = trace.Trace(count=1, trace=0)
    # Trace only the package, deciding by path: `trace`'s own ignore list
    # caches its verdict by a module's base name, so every `__init__.py`
    # would share the verdict of the first one seen, a site-packages one.
    package = f"{PACKAGE}{os.sep}"
    tracer.ignore.names = lambda filename, modulename: not filename.startswith(package)
    tracer.runfunc(traffic)
    hit: Dict[str, Set[int]] = {}
    for filename, line in tracer.results().counts:
        hit.setdefault(filename, set()).add(line)

    summary = []
    for path in sorted(PACKAGE.glob("*.py")):
        lines = hit.get(str(path), set())
        source = path.read_text().splitlines()
        spans = statements(path)
        never = [first for first, last in spans if not lines & set(range(first, last + 1))]
        for first in never:
            print(f"{path.relative_to(ROOT)}:{first}: {source[first - 1].strip()}")
        summary.append(f"{path.stem}: {len(spans)} statements, {len(never)} never ran")
    print(f"\nsources: {' '.join(sources)}")
    print("\n".join(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
