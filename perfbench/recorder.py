"""Check counting and in-memory spans for the benchmark.

A `Recorder` counts every correctness check and its failures, and, when
tracing is on, records one span per public call into `secantinv` and one
per check: name, layer, start, end, parent span and outcome.  Spans stay in memory
until the worker writes them out at the end of the run.  With tracing off,
`call` is a plain function call, so untraced batches pay nothing for it.
"""

from __future__ import annotations

import time
from collections import Counter
from typing import Callable, Dict, List, Optional

# The package's modules, in the order the per-layer metrics list them.
LAYERS = (
    "exactalg",
    "hankel",
    "drk",
    "strata",
    "hodge",
    "compositions",
    "cohomtables",
    "cli",
)

MAX_ERRORS_KEPT = 20


class Recorder:
    def __init__(self, tracing: bool):
        self.tracing = tracing
        self.spans: List[dict] = []
        self._stack: List[int] = []
        self.attempted = 0
        self.failed = 0
        self.counts: Counter = Counter()
        self.errors: List[str] = []

    def call(self, layer: str, op: str, fn: Callable, *args):
        """Run one public call of `layer`; traced as span `layer.op`."""
        if not self.tracing:
            return fn(*args)
        return self._span(f"{layer}.{op}", layer, fn, args)

    def check(self, layer: str, what: str, fn: Callable[[], bool]) -> None:
        """Run one check of `layer`.  It fails unless `fn` returns True;
        an exception inside `fn` is a failure, never an abort."""
        self.attempted += 1
        span = len(self.spans)
        try:
            if self.tracing:
                ok = self._span("check", "bench", fn, ()) is True
            else:
                ok = fn() is True
            reason = "returned a wrong value"
        except Exception as exc:  # a failing check must not stop the batch
            ok = False
            reason = f"raised {type(exc).__name__}: {exc}"
        if self.tracing:
            self.spans[span].update(target=layer, ok=ok, what=what)
        if not ok:
            self.failed += 1
            if len(self.errors) < MAX_ERRORS_KEPT:
                self.errors.append(f"{layer}: {what}: {reason}")

    def count(self, name: str, value: int) -> None:
        self.counts[name] += value

    def _span(self, name: str, layer: str, fn: Callable, args) -> object:
        parent: Optional[int] = self._stack[-1] if self._stack else None
        rec = {"id": len(self.spans), "name": name, "layer": layer, "parent": parent, "ok": True}
        self._stack.append(rec["id"])
        self.spans.append(rec)
        rec["start"] = time.perf_counter()
        try:
            return fn(*args)
        except Exception:
            rec["ok"] = False
            raise
        finally:
            rec["end"] = time.perf_counter()
            self._stack.pop()


def summarize(spans: List[dict]) -> Dict[str, float]:
    """Per-layer self time, calls and failed checks, and per-operation busy
    time and calls, from the spans of one batch.

    A span's self time is its duration minus the time its child spans
    cover.  Failed checks count toward the layer the check targets.
    """
    child_time: Counter = Counter()
    for s in spans:
        if s["parent"] is not None:
            child_time[s["parent"]] += s["end"] - s["start"]
    out: Dict[str, float] = {}
    for layer in LAYERS:
        out[f"{layer}.self_s"] = 0.0
        out[f"{layer}.calls"] = 0
        out[f"{layer}.failed"] = 0
    for s in spans:
        duration = s["end"] - s["start"]
        if s["layer"] in LAYERS:
            out[f"{s['layer']}.self_s"] += duration - child_time[s["id"]]
            out[f"{s['layer']}.calls"] += 1
            out[f"{s['name']}_s"] = out.get(f"{s['name']}_s", 0.0) + duration
            out[f"{s['name']}_calls"] = out.get(f"{s['name']}_calls", 0) + 1
        elif s["name"] == "check" and not s["ok"]:
            out[f"{s['target']}.failed"] += 1
    return out
