"""One benchmark worker: a fresh interpreter that sets up one workload and
runs its batch in a closed loop.

Protocol on stdout: the line READY once `secantinv` is imported and the
inputs are built, then (unless --setup-only) one JSON line with the batch
times, check counts, per-batch work counts, peak RSS and, when tracing,
the per-layer summary.  The parent times set-up from launch to READY.
"""

from __future__ import annotations

import argparse
import json
import random
import resource
import statistics
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"


def import_program():
    """Import `secantinv` from this checkout's src/, and nowhere else."""
    sys.path[:0] = [str(HERE), str(SRC)]
    import secantinv

    origin = Path(secantinv.__file__).resolve()
    if SRC.resolve() not in origin.parents:
        raise SystemExit(f"secantinv imported from {origin}, not from {SRC}")


def per_batch(name: str, values: list):
    """One value per batch from the traced batches' values: the median of
    times, the sum of failures (never hidden), else the last batch's count,
    which repeats exactly."""
    if name.endswith("_s"):
        return statistics.median(values)
    if name.endswith(".failed"):
        return sum(values)
    return values[-1]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full")
    parser.add_argument("--expected", default=str(HERE / "expected.json"))
    parser.add_argument("--spans-out", default="")
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    import_program()
    from hostclock import HostClock
    from recorder import Recorder, summarize
    from workloads import SIZES, WORKLOADS

    build, run_batch = WORKLOADS[args.workload]
    inputs = build(SIZES[args.size][args.workload], random.Random(args.seed))
    with open(args.expected) as fh:
        expected = json.load(fh)
    print("READY", flush=True)
    if args.setup_only:
        return 0

    # Closed loop: one batch after another until the window is used up.  With tracing, batches alternate untraced and traced, and
    # the difference of the two is the tracing overhead.  Batch times are
    # read on the host clock, in reference seconds; raw wall time is kept
    # alongside.
    recorders = {False: Recorder(tracing=False), True: Recorder(tracing=True)}
    batch_s = {False: [], True: []}
    raw_s = []
    summaries = []
    counts = None
    deadline = time.perf_counter() + args.seconds
    with HostClock() as clock:
        while True:
            tracing = bool(args.trace) and len(batch_s[False]) > len(batch_s[True])
            rec = recorders[tracing]
            before, first_span = dict(rec.counts), len(rec.spans)
            t0, c0 = time.perf_counter(), clock.now()
            if tracing:
                rec.call("bench", "batch", run_batch, rec, inputs, expected)
                summaries.append(summarize(rec.spans[first_span:]))
            else:
                run_batch(rec, inputs, expected)
            batch_s[tracing].append(clock.now() - c0)
            raw = time.perf_counter() - t0
            if not tracing:
                raw_s.append(raw)
            counts = {k: v - before.get(k, 0) for k, v in rec.counts.items()}
            # Start another batch only if at least half of it fits.
            if len(batch_s[True]) >= args.trace and time.perf_counter() + raw / 2 > deadline:
                break

    plain, traced = recorders[False], recorders[True]
    result = {
        "wall_s": statistics.median(batch_s[False]),
        "raw_wall_s": statistics.median(raw_s),
        "batches": len(batch_s[False]),
        "attempted": plain.attempted + traced.attempted,
        "failed": plain.failed + traced.failed,
        "errors": plain.errors + traced.errors,
        "counts": counts,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "checks_per_batch": plain.attempted // len(batch_s[False]),
    }
    if args.trace:
        result["traced_wall_s"] = statistics.median(batch_s[True])
        result["layers"] = {
            k: per_batch(k, [s.get(k, 0) for s in summaries])
            for k in set().union(*summaries)
        }
        if args.spans_out:
            Path(args.spans_out).parent.mkdir(parents=True, exist_ok=True)
            with open(args.spans_out, "w") as fh:
                for span in traced.spans:
                    fh.write(json.dumps(span) + "\n")
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
