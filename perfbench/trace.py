"""In-memory spans around the benchmark's calls into each layer.

A span records a name, its start and end (``time.perf_counter``), the span
that was open when it started, and the item it belongs to.  Spans stay in
memory until :meth:`Tracer.write` at the end of the run.  A layer's self
time is its span's duration minus the time its child spans cover.

Workload code calls every layer through ``tracer.call(name, fn, ...)``.
The untraced run passes :data:`OFF`, whose ``call`` only forwards the call,
so the untraced and traced runs execute the same code apart from the
recording.
"""

from __future__ import annotations

import json
from contextlib import contextmanager
from pathlib import Path
from time import perf_counter


class _Off:
    """Tracing switched off: calls go straight through."""

    @staticmethod
    def call(name, fn, *args, **kwargs):
        return fn(*args, **kwargs)


OFF = _Off()


class Tracer:
    """Records spans in memory; ``item(i)`` opens the span of item i."""

    def __init__(self):
        # (name, start, end, parent index or -1, item id)
        self.spans: list[tuple[str, float, float, int, int]] = []
        self._open: list[int] = []
        self._item = -1

    def _start(self, name: str) -> int:
        parent = self._open[-1] if self._open else -1
        self.spans.append((name, perf_counter(), 0.0, parent, self._item))
        idx = len(self.spans) - 1
        self._open.append(idx)
        return idx

    def _end(self, idx: int) -> None:
        end = perf_counter()
        self._open.pop()
        name, start, _, parent, item = self.spans[idx]
        self.spans[idx] = (name, start, end, parent, item)

    def call(self, name, fn, *args, **kwargs):
        idx = self._start(name)
        try:
            return fn(*args, **kwargs)
        finally:
            self._end(idx)

    @contextmanager
    def item(self, item_id: int):
        self._item = item_id
        idx = self._start("item")
        try:
            yield
        finally:
            self._end(idx)
            self._item = -1

    def self_times(self) -> dict[str, tuple[int, float]]:
        """Per span name: (number of spans, total self time in seconds)."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out: dict[str, tuple[int, float]] = {}
        for i, (name, start, end, _, _) in enumerate(self.spans):
            n, total = out.get(name, (0, 0.0))
            out[name] = (n + 1, total + (end - start) - child[i])
        return out

    def write(self, path: Path) -> None:
        """Write the spans as JSON lines (one span per line)."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w") as f:
            for name, start, end, parent, item in self.spans:
                f.write(json.dumps({"name": name, "start": start, "end": end,
                                    "parent": parent, "item": item}) + "\n")
