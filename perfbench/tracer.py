"""In-memory spans around calls into the engine's layers.

A span records its name, start, end, the span that caused it and the
repetition it belongs to, plus any counts the caller attaches. Spans
stay in memory; the benchmark writes them out when it ends.
"""

from __future__ import annotations

import contextlib
import time
from collections import defaultdict


class Tracer:
    """Collects nested spans for one repetition; disabled tracers record nothing."""

    def __init__(self, rep_id: str, enabled: bool = True):
        self.rep_id = rep_id
        self.enabled = enabled
        self.spans: list[dict] = []
        self._stack: list[int] = []

    @contextlib.contextmanager
    def span(self, name: str, **attrs):
        """Time the enclosed block; yields a dict the caller may add counts to."""
        if not self.enabled:
            yield {}
            return
        rec = {"id": len(self.spans), "name": name, "rep": self.rep_id,
               "parent": self._stack[-1] if self._stack else None,
               "start": time.perf_counter(), "end": None, **attrs}
        self.spans.append(rec)
        self._stack.append(rec["id"])
        try:
            yield rec
        finally:
            rec["end"] = time.perf_counter()
            self._stack.pop()

    def add(self, name: str, start: float, end: float, **attrs) -> dict:
        """Record a finished top-level span, e.g. one timed before the tracer existed."""
        rec = {"id": len(self.spans), "name": name, "rep": self.rep_id,
               "parent": None, "start": start, "end": end, **attrs}
        if self.enabled:
            self.spans.append(rec)
        return rec


def self_times(spans: list[dict]) -> dict[int, float]:
    """Each span's duration minus the time its child spans cover.

    Children of one span run one after another, so their durations add.
    """
    covered: dict[int, float] = defaultdict(float)
    for s in spans:
        if s["parent"] is not None:
            covered[s["parent"]] += s["end"] - s["start"]
    return {s["id"]: (s["end"] - s["start"]) - covered[s["id"]] for s in spans}
