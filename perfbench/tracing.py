"""In-memory spans around calls into cgkit's public functions, and the
statistics the benchmark reports.

A span records (name, start, end, parent span, operation id).  The layer of
a span is the part of its name before the first dot (``cg.solve`` belongs to
``cg``).  Spans are kept in a list while the workload runs and written out
once, at the end, so the tracer itself does no I/O inside timed regions.
"""

from __future__ import annotations

import json
import time
from contextlib import contextmanager, nullcontext
from pathlib import Path


class Tracer:
    """Collects spans; ``enabled=False`` makes every span a no-op."""

    def __init__(self, enabled: bool):
        self.enabled = enabled
        self.spans: list[list] = []  # [name, start, end, parent, op]
        self._stack: list[int] = []
        self.op: int | None = None

    def span(self, name: str):
        return self._span(name) if self.enabled else nullcontext()

    @contextmanager
    def _span(self, name: str):
        parent = self._stack[-1] if self._stack else None
        index = len(self.spans)
        self.spans.append([name, time.perf_counter(), None, parent, self.op])
        self._stack.append(index)
        try:
            yield
        finally:
            self._stack.pop()
            self.spans[index][2] = time.perf_counter()

    def durations(self, name: str, ops=None) -> list[float]:
        """Durations of the spans called ``name`` (within ``ops`` if given)."""
        return [end - start for n, start, end, _, op in self.spans
                if n == name and (ops is None or op in ops)]

    def self_time_by_layer(self, keep) -> dict[str, float]:
        """Total self time per layer over the spans whose operation id
        satisfies ``keep``: each span's duration minus the time its direct
        children cover."""
        child_time = [0.0] * len(self.spans)
        for _, start, end, parent, _ in self.spans:
            if parent is not None:
                child_time[parent] += end - start
        out: dict[str, float] = {}
        for i, (name, start, end, _, op) in enumerate(self.spans):
            if not keep(op):
                continue
            layer = name.split(".", 1)[0]
            out[layer] = out.get(layer, 0.0) + (end - start) - child_time[i]
        return out

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as stream:
            for i, (name, start, end, parent, op) in enumerate(self.spans):
                stream.write(json.dumps({"id": i, "name": name, "start": start,
                                         "end": end, "parent": parent,
                                         "op": op}) + "\n")


def tail(values) -> tuple[float, float] | None:
    """(percentile, value) of the highest percentile that has at least ten
    samples beyond it, or None when there are fewer than eleven samples."""
    n = len(values)
    if n < 11:
        return None
    ordered = sorted(values)
    return 100.0 * (n - 10) / n, ordered[n - 11]
