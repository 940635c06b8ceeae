"""Spans recorded around calls into the lanterns package.

The benchmark records a span around each public call it makes, from its own
files; nothing inside `src/` is instrumented.  Spans stay in memory and are
written out once, when the run ends.  Untraced runs use `NullTracer`, whose
spans cost one shared no-op context manager per call.
"""

from __future__ import annotations

import contextlib
import json
from collections import Counter
from pathlib import Path
from time import perf_counter_ns

_NULL_SPAN = contextlib.nullcontext()


class NullTracer:
    """Tracing off: a span is a shared no-op context manager."""

    def span(self, name: str, probe: bool = False):
        return _NULL_SPAN


class Tracer:
    """Tracing on: every span is (name, start_ns, end_ns, parent, op, probe).

    `parent` is the index of the enclosing span (-1 for none) and `op` the
    index of the operation the span belongs to, so the spans of one
    operation share an identifier.  Probe spans are calls the benchmark
    makes beside an operation to time an inner stage on the same input.
    """


    def __init__(self):
        self.spans: list[list] = []
        self.peaks: dict[str, int] = {}
        self.op = -1
        self._stack: list[int] = []

    @contextlib.contextmanager
    def span(self, name: str, probe: bool = False):
        parent = self._stack[-1] if self._stack else -1
        index = len(self.spans)
        record = [name, perf_counter_ns(), 0, parent, self.op, probe]
        self.spans.append(record)
        self._stack.append(index)
        try:
            yield
        finally:
            record[2] = perf_counter_ns()
            self._stack.pop()

    def peak(self, name: str, value: int) -> None:
        self.peaks[name] = max(self.peaks.get(name, value), value)

    def names_since(self, first_span: int) -> set[str]:
        return {record[0] for record in self.spans[first_span:]}

    def seconds_by_name(self) -> Counter[str]:
        """Summed span durations per name."""
        totals: Counter[str] = Counter()
        for name, start, end, *_ in self.spans:
            totals[name] += (end - start) / 1e9
        return totals

    def durations(self, name: str) -> list[float]:
        return [(end - start) / 1e9 for n, start, end, *_ in self.spans if n == name]

    def write(self, path: Path) -> None:
        keys = ("name", "start_ns", "end_ns", "parent", "op", "probe")
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps([dict(zip(keys, record)) for record in self.spans]))
