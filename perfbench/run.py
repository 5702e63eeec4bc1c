"""Exact-arithmetic benchmark for secantinv.

    python3 perfbench/run.py --workload {symbolic,twisted,oracles} \
        --seed N --seconds S --trace {0,1}
    python3 perfbench/selftest.py        # tiny sizes, a few seconds

Run from the root of a checkout; the program is imported from its src/.
One client, one process, one thread: each call is issued only after the
previous one returns, and every output is checked (see workloads.py).
Set-up is timed over several fresh worker interpreters that stop when
ready; then one more worker repeats the workload's fixed batch for about S
seconds.

The last line of stdout is one JSON object with keys correct, attempted,
failed and metrics.  With --trace 0 the metrics are the end-to-end ones:

* wall_s      -- median time of one batch, in reference seconds;
* setup_s     -- median time from launching a worker to READY, in
                 reference seconds;
* peak_rss_mb -- peak resident memory of the measuring worker.

Reference seconds are wall seconds rescaled by the host's current speed,
measured by a fixed stdlib probe (see hostclock.py); the raw median batch
wall time is reported as bench.raw_wall_s.  With --trace 1 the metrics are
the per-layer ones, from spans around every public call; the spans are
written to .perfbench-out/.  The exit code is 0 only when every check
passed, and nonzero with no result line when the program is missing.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

from hostclock import HostClock
from recorder import LAYERS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKER = HERE / "worker.py"
SPANS_DIR = ROOT / ".perfbench-out"

WORKLOAD_NAMES = ("symbolic", "twisted", "oracles")
SETUP_SAMPLES = 15
WORKER_TIMEOUT_S = 150


# Per-layer metrics: (name, unit, where the value comes from).  "span:" names
# a value summarized from the spans, "count:" a work count made by the
# benchmark; the rest are computed below.
PER_LAYER = (
    [(f"{layer}.self_s", "s", f"span:{layer}.self_s") for layer in LAYERS]
    + [(f"{layer}.calls", "count", f"span:{layer}.calls") for layer in LAYERS]
    + [(f"{layer}.failed", "count", f"span:{layer}.failed") for layer in LAYERS]
    + [
        ("exactalg.poly_det_s", "s", "span:exactalg.poly_det_s"),
        ("exactalg.poly_det_calls", "count", "span:exactalg.poly_det_calls"),
        ("exactalg.det_terms", "count", "count:exactalg.det_terms"),
        ("hankel.block_reduce_s", "s", "span:hankel.block_reduce_s"),
        ("hankel.verify_s", "s", "span:hankel.verify_s"),
        ("hankel.factorization_s", "s", "span:hankel.factorization_s"),
        ("hankel.point_check_s", "s", "span:hankel.point_check_s"),
        ("hankel.point_checks", "count", "span:hankel.point_check_calls"),
        ("drk.truncated_dims_s", "s", "span:drk.truncated_dims_s"),
        ("drk.slice_domain", "count", "count:drk.slice_domain"),
        ("drk.stabilized_frac", "ratio", "stabilized_frac"),
        ("drk.eigenvectors_s", "s", "span:drk.eigenvectors_s"),
        ("drk.univariate_s", "s", "span:drk.univariate_s"),
        ("strata.stratify_s", "s", "span:strata.stratify_s"),
        ("strata.normal_form_s", "s", "span:strata.normal_form_s"),
        ("strata.records", "count", "count:strata.records"),
        ("hodge.bruteforce_s", "s", "span:hodge.bruteforce_s"),
        ("compositions.enumerate_s", "s", "span:compositions.enumerate_s"),
        ("cohomtables.tables_s", "s", "span:cohomtables.tables_s"),
        ("cli.verify_s", "s", "span:cli.verify_s"),
        ("cli.strata_s", "s", "span:cli.strata_s"),
        ("cli.bytes_out", "count", "count:cli.bytes_out"),
        ("checks.attempted", "count", "checks_per_batch"),
        ("error_rate", "ratio", "error_rate"),
        ("trace.overhead_s", "s", "overhead"),
        ("bench.raw_wall_s", "s", "raw_wall"),
    ]
)


class WorkerError(RuntimeError):
    pass


def launch_worker(args: list, clock=time.perf_counter) -> tuple:
    """Run one worker to completion; returns (set-up time on `clock`,
    result dict or None for a set-up-only worker)."""
    t0 = clock()
    proc = subprocess.Popen(
        [sys.executable, "-I", str(WORKER), *args],
        cwd=ROOT,
        stdin=subprocess.DEVNULL,
        stdout=subprocess.PIPE,
        text=True,
    )
    try:
        ready = proc.stdout.readline()
        setup_s = clock() - t0
        rest, _ = proc.communicate(timeout=WORKER_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        raise WorkerError("worker timed out")
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    if ready.strip() != "READY" or proc.returncode != 0:
        raise WorkerError(f"worker failed with exit code {proc.returncode}")
    lines = rest.strip().splitlines()
    return setup_s, (json.loads(lines[-1]) if lines else None)


def metrics_of(result: dict, setups: list, trace: bool) -> dict:
    if not trace:
        return {
            "wall_s": (result["wall_s"], "s"),
            "setup_s": (statistics.median(setups), "s"),
            "peak_rss_mb": (result["peak_rss_mb"], "MB"),
        }
    counts, layers = result["counts"], result["layers"]
    derived = {
        "stabilized_frac": counts.get("drk.stabilized", 0)
        / max(layers.get("drk.truncated_dims_calls", 0), 1),
        "checks_per_batch": result["checks_per_batch"],
        "error_rate": result["failed"] / result["attempted"],
        "overhead": result["traced_wall_s"] - result["wall_s"],
        "raw_wall": result["raw_wall_s"],
    }
    out = {}
    for name, unit, source in PER_LAYER:
        kind, _, key = source.partition(":")
        if kind == "span":
            value = layers.get(key, 0)
        elif kind == "count":
            value = counts.get(key, 0)
        else:
            value = derived[source]
        out[name] = (value, unit)
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="secantinv benchmark")
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "secantinv" / "__init__.py").is_file():
        print(f"error: no secantinv sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    common = ["--workload", args.workload, "--seed", str(args.seed)]
    spans_out = SPANS_DIR / f"spans-{args.workload}-seed{args.seed}.jsonl"
    run_args = ["--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.trace:
        run_args += ["--spans-out", str(spans_out)]
    try:
        with HostClock() as clock:
            setups = [
                launch_worker(common + ["--setup-only"], clock.now)[0]
                for _ in range(SETUP_SAMPLES)
            ]
        _, result = launch_worker(common + run_args)
    except WorkerError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    for line in result["errors"]:
        print(f"check failed: {line}", file=sys.stderr)
    metrics = metrics_of(result, setups, bool(args.trace))
    correct = result["failed"] == 0
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": result["attempted"],
                "failed": result["failed"],
                "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
            }
        )
    )
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
