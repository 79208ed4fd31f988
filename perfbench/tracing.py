"""In-memory span recorder for the traced run.

A span is recorded around each of the benchmark's own calls into a layer
of the package: name, case id, parent span, start and end (perf_counter
seconds), plus counts attached at the same boundary (candidates, nodes,
bytes, ...).  Spans stay in memory and are written out once at the end.
With tracing disabled the same code runs and nothing is recorded, which
gives the untraced wall time the tracing overhead is measured against.
"""

from __future__ import annotations

import time
from contextlib import contextmanager


class Tracer:
    def __init__(self, enabled: bool):
        self.enabled = enabled
        self.spans: list[dict] = []
        self._stack: list[int] = []
        self.case: str | None = None

    @contextmanager
    def span(self, name: str, case: str | None = None):
        """Record one span; yields a dict for counts measured at this boundary."""
        attrs: dict = {}
        if not self.enabled:
            yield attrs
            return
        if case is not None:
            self.case = case
        record = {
            "id": len(self.spans),
            "name": name,
            "case": self.case,
            "parent": self._stack[-1] if self._stack else None,
            "start": time.perf_counter(),
            "end": None,
            "attrs": attrs,
        }
        self.spans.append(record)
        self._stack.append(record["id"])
        try:
            yield attrs
        finally:
            record["end"] = time.perf_counter()
            self._stack.pop()

    def self_times(self) -> list[float]:
        """Per span: its duration minus the part its child spans cover."""
        child_time = [0.0] * len(self.spans)
        for s in self.spans:
            if s["parent"] is not None:
                child_time[s["parent"]] += s["end"] - s["start"]
        return [s["end"] - s["start"] - child_time[s["id"]] for s in self.spans]

    def totals(self) -> dict[str, dict]:
        """Per span name: summed self time, call count and summed counts."""
        out: dict[str, dict] = {}
        for s, self_s in zip(self.spans, self.self_times()):
            agg = out.setdefault(s["name"], {"s": 0.0, "calls": 0})
            agg["s"] += self_s
            agg["calls"] += 1
            for key, value in s["attrs"].items():
                agg[key] = agg.get(key, 0) + value
        return out

    def case_durations(self) -> dict[str, float]:
        """Duration of each root ("case") span, by case id."""
        return {
            s["case"]: s["end"] - s["start"]
            for s in self.spans
            if s["parent"] is None and s["name"] == "case"
        }
