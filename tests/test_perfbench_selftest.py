"""The benchmark's own self-test, run as part of the test suite.

`perfbench/selftest.py` runs every workload at tiny sizes against its
pinned expected values, so a program change that breaks one of the
benchmark's checks fails here too.  It runs from a copy of `src/`,
`perfbench/` and `BENCHMARK.json` in a temporary directory: the self-test
writes its corrupted expected values, spans and bytecode next to the copy,
so even a run killed on the timeout leaves nothing in the checkout.
"""

import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


def _text(output) -> str:
    # TimeoutExpired keeps the partial output as bytes even in text mode.
    if isinstance(output, bytes):
        return output.decode(errors="replace")
    return output or ""


def test_benchmark_selftest_passes(tmp_path):
    for tree in ("src", "perfbench"):
        shutil.copytree(ROOT / tree, tmp_path / tree, ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy2(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    try:
        proc = subprocess.run(
            [sys.executable, str(tmp_path / "perfbench" / "selftest.py")],
            cwd=tmp_path,
            capture_output=True,
            text=True,
            timeout=300,
        )
    except subprocess.TimeoutExpired as timeout:
        pytest.fail(
            f"selftest timed out after {timeout.timeout} s\n"
            f"stdout so far:\n{_text(timeout.stdout)}\nstderr so far:\n{_text(timeout.stderr)}"
        )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert "selftest passed" in proc.stdout
