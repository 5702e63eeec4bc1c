"""Regenerate the committed CLI golden outputs.

Run from the repository root after an intentional output-format change:

    python3 tests/make_goldens.py

The test suite compares current CLI bytes against these files, so any
unintentional drift in serialization, ordering, or schema fails loudly.
"""

from __future__ import annotations

import io
import json
from pathlib import Path

from secantinv import cli

GOLDEN_COMMANDS = [
    ["strata", "-n", "0"],
    ["strata", "-n", "2"],
    ["strata", "-n", "3", "--format", "table"],
    ["strata", "-n", "5"],
    ["strata", "-n", "8"],
    ["hodge", "-n", "2"],
    ["hodge", "-n", "5", "-d", "3"],
    ["hodge", "-n", "5", "-d", "3", "--gbundle"],
    ["hodge", "-n", "5", "-d", "3", "--format", "table"],
    ["hodge", "-n", "5", "-d", "3", "--gbundle", "--format", "table"],
    ["hodge", "-n", "3", "--format", "table"],
    ["hodge", "-n", "11", "-d", "4"],
    ["betti", "--milnor", "-n", "2"],
    ["betti", "--milnor", "-n", "5"],
    ["betti", "--sec2", "-g", "2"],
    ["betti", "--milnor", "-n", "3", "--format", "latex"],
    ["betti", "--milnor", "-n", "12"],
    ["ih", "-g", "0", "-k", "3"],
    ["ih", "-g", "1", "-k", "2", "--format", "table"],
    ["ih", "-g", "2", "-k", "2", "--format", "latex"],
    ["monodromy", "-n", "4"],
    ["monodromy", "-n", "3", "--format", "table"],
    ["monodromy", "-n", "12"],
    ["nearby", "-n", "2"],
    ["nearby", "-n", "3", "--format", "table"],
    ["nearby", "-n", "12"],
    ["nearby", "-n", "12", "--format", "table"],
    ["eigenvectors"],
    ["eigenvectors", "--format", "table"],
    ["blockreduce", "-n", "2", "-k", "1"],
    ["blockreduce", "-n", "2", "-k", "1", "--format", "table"],
    ["blockreduce", "-n", "4", "-k", "1"],
    ["blockreduce", "-n", "5", "-k", "0"],
    ["blockreduce", "-n", "5", "-k", "4"],
    ["verify", "-n", "3"],
    ["verify", "-n", "3", "--format", "table"],
    ["verify", "-n", "5"],
]


def generate() -> dict:
    out: dict = {"schema_version": "secantinv.cli_goldens.v1", "commands": {}}
    for argv in GOLDEN_COMMANDS:
        buf = io.StringIO()
        code = cli.run(argv, out=buf)
        assert code == 0, (argv, code)
        out["commands"][" ".join(argv)] = buf.getvalue()
    return out


def main() -> None:
    path = Path(__file__).parent / "goldens" / "cli_goldens.json"
    path.parent.mkdir(exist_ok=True)
    path.write_text(json.dumps(generate(), indent=2, sort_keys=True) + "\n")
    print(f"wrote {path}")


if __name__ == "__main__":
    main()
