"""The benchmark's own span recorder for the traced pass.

Spans are recorded by benchmark code around calls into the program's
public functions; the program itself is not instrumented.  Each span
has a name, start, end, parent and the run id.  Spans stay in memory and
are written out once, when the run ends.  A span's self time is its
duration minus the time its children cover.
"""

from __future__ import annotations

import json
import time
from contextlib import contextmanager
from pathlib import Path
from typing import Iterator


class Tracer:
    """Records spans when *enabled*; otherwise every call is a no-op."""

    def __init__(self, run_id: str, enabled: bool) -> None:
        self.run_id = run_id
        self.enabled = enabled
        # (span id, parent id, name, start, end); parent -1 is the root.
        self.spans: list[tuple[int, int, str, float, float]] = []
        self._stack: list[int] = []

    @contextmanager
    def span(self, name: str) -> Iterator[None]:
        if not self.enabled:
            yield
            return
        span_id = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append((span_id, parent, name, time.perf_counter(), 0.0))
        self._stack.append(span_id)
        try:
            yield
        finally:
            self._stack.pop()
            _, _, _, start, _ = self.spans[span_id]
            self.spans[span_id] = (span_id, parent, name, start, time.perf_counter())

    def record(self, name: str, start: float, end: float) -> None:
        """A leaf span timed by the caller (hot loops avoid the context)."""
        parent = self._stack[-1] if self._stack else -1
        self.spans.append((len(self.spans), parent, name, start, end))

    def seconds(self, name: str) -> float:
        """Duration of the last span called *name*."""
        for _, _, span_name, start, end in reversed(self.spans):
            if span_name == name:
                return end - start
        raise KeyError(f"no span named {name!r}")

    def durations(self, name: str) -> list[float]:
        return [end - start for _, _, n, start, end in self.spans if n == name]

    def self_times(self) -> dict[str, float]:
        """Total self time per span name (children nest, never overlap)."""
        child_time = [0.0] * len(self.spans)
        for _, parent, _, start, end in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        totals: dict[str, float] = {}
        for span_id, _, name, start, end in self.spans:
            totals[name] = totals.get(name, 0.0) + (end - start) - child_time[span_id]
        return totals

    def write(self, path: Path) -> None:
        """Write every span as ``repro-perfbench.spans/1`` JSON."""
        path.parent.mkdir(parents=True, exist_ok=True)
        origin = self.spans[0][3] if self.spans else 0.0
        document = {
            "schema": "repro-perfbench.spans/1",
            "run_id": self.run_id,
            "fields": ["id", "parent", "name", "start_s", "end_s"],
            "spans": [
                [i, p, n, round(s - origin, 7), round(e - origin, 7)]
                for i, p, n, s, e in self.spans
            ],
        }
        path.write_text(json.dumps(document, separators=(",", ":")) + "\n")
