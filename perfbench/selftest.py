"""Smoke self-test of the benchmark: each workload at tiny sizes.

    python3 perfbench/selftest.py

Runs every workload once through a real worker with the pinned expected
values and requires zero failures, then again with one pinned value
corrupted and requires that the corruption is reported as a failed check.
It also checks that BENCHMARK.json lists exactly the metrics the benchmark
reports.  Takes a few seconds.
"""

from __future__ import annotations

import json
import sys
import tempfile
from pathlib import Path

from run import HERE, PER_LAYER, ROOT, WORKLOAD_NAMES, launch_worker

# One pinned value per workload, corrupted to show it is really checked.
CORRUPTIONS = {
    "symbolic": ("det_sha256", "3"),
    "twisted": ("truncated_dims", "H_1 mod 2 residue 1 truncation 4"),
    "oracles": ("cli_stdout_sha256", "strata -n 4"),
}


def corrupt(expected: dict, section: str, key: str) -> dict:
    bad = json.loads(json.dumps(expected))
    value = bad[section][key]
    if isinstance(value, str):
        bad[section][key] = "0" * len(value)
    else:
        value["dims"][-1][1] += 1
    return bad


def run_tiny(workload: str, expected_path: Path, trace: bool) -> dict:
    _, result = launch_worker(
        ["--workload", workload, "--seed", "7", "--size", "tiny",
         "--expected", str(expected_path), "--trace", str(int(trace))]
    )
    return result


def main() -> int:
    expected = json.loads((HERE / "expected.json").read_text())
    problems = []
    with tempfile.TemporaryDirectory(dir=ROOT) as tmp:
        for workload in WORKLOAD_NAMES:
            good = run_tiny(workload, HERE / "expected.json", trace=True)
            if good["failed"] or good["attempted"] < 1:
                problems.append(f"{workload}: clean run failed: {good['errors']}")
            if any(v for k, v in good["layers"].items() if k.endswith(".failed")):
                problems.append(f"{workload}: spans report failures on a clean run")
            bad_path = Path(tmp) / f"{workload}.json"
            bad_path.write_text(json.dumps(corrupt(expected, *CORRUPTIONS[workload])))
            bad = run_tiny(workload, bad_path, trace=False)
            if bad["failed"] != 1:
                problems.append(f"{workload}: corrupted value gave {bad['failed']} failures, not 1")
            print(f"{workload}: {good['attempted']} checks clean, corrupted value caught: {bad['errors']}")

    listed = json.loads((ROOT / "BENCHMARK.json").read_text())
    if [m["name"] for m in listed["per_layer"]] != [name for name, _, _ in PER_LAYER]:
        problems.append("BENCHMARK.json per_layer differs from run.PER_LAYER")
    if sorted(w["name"] for w in listed["workloads"]) != sorted(WORKLOAD_NAMES):
        problems.append("BENCHMARK.json workloads differ from run.WORKLOAD_NAMES")
    for line in problems:
        print(f"FAIL {line}")
    print("selftest", "failed" if problems else "passed")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
