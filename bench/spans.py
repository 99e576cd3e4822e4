"""In-memory spans taken around calls into hswit, written out at the end.

Each span records a name, a start, an end and the index of its parent
span (-1 at top level).  Spans are opened only from the benchmark's own
files; nothing inside hswit is instrumented.
"""

from __future__ import annotations

import contextlib
import json
import time
from pathlib import Path


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list] = []  # [name, start, end, parent]
        self._stack: list[int] = []

    @contextlib.contextmanager
    def span(self, name: str):
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), None, parent])
        self._stack.append(index)
        try:
            yield
        finally:
            self.spans[index][2] = time.perf_counter()
            self._stack.pop()

    def durations(self, name: str, first: int = 0, last: int | None = None) -> list[float]:
        """Durations of the spans called ``name`` among spans[first:last]."""
        return [end - start for n, start, end, _ in self.spans[first:last] if n == name]

    def self_time(self, first: int, last: int) -> float:
        """Time of the top-level spans in [first, last) not covered by their children."""
        total = 0.0
        for index in range(first, last):
            name, start, end, parent = self.spans[index]
            if parent == -1:
                total += end - start
            elif self.spans[parent][3] == -1:
                total -= end - start
        return total

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        doc = [
            {"name": n, "start": s, "end": e, "parent": p} for n, s, e, p in self.spans
        ]
        path.write_text(json.dumps(doc))


class NullTracer:
    """Stands in for a Tracer in untraced runs: opens no spans."""

    _null = contextlib.nullcontext()

    def span(self, name: str):
        return self._null
