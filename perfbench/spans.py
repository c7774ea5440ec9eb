"""In-memory spans and call-boundary patching for the benchmark.

A span is ``[name, start, end, parent, info]``: ``parent`` is the index of
the enclosing span in ``Tracer.spans`` (-1 for a root) and ``info`` holds
counts taken at the same boundary (rows, pairs, bytes, ...). Spans stay in
memory until the run ends and are written out then. Self times are derived
from the recorded intervals, never timed a second time.
"""

from __future__ import annotations

import contextlib
import time

_clock = time.perf_counter


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []

    # -- spans -------------------------------------------------------------

    def _open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, _clock(), 0.0, parent, None])
        idx = len(self.spans) - 1
        self._stack.append(idx)
        return idx

    def _close(self, idx: int) -> None:
        self.spans[idx][2] = _clock()
        popped = self._stack.pop()
        if popped != idx:
            raise RuntimeError(f"span {self.spans[idx][0]!r} closed out of order")

    @contextlib.contextmanager
    def span(self, name: str):
        """Record the ``with`` body as one span; yields its index."""
        idx = self._open(name)
        try:
            yield idx
        finally:
            self._close(idx)

    def duration(self, idx: int) -> float:
        _, start, end, _, _ = self.spans[idx]
        return end - start

    def wrap(self, fn, name: str, info=None):
        """``fn`` recorded as span ``name``; ``info(result, *args, **kw)``
        runs after the span closes, so counting is not timed as the call."""
        def traced(*args, **kwargs):
            idx = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(idx)
            if info is not None:
                self.spans[idx][4] = info(result, *args, **kwargs)
            return result
        traced.__wrapped__ = fn
        return traced

    # -- patching module attributes ----------------------------------------

    @contextlib.contextmanager
    def patched(self, entries):
        """Replace module attributes for the ``with`` body.

        ``entries`` yields ``(module, attr, make)`` where ``make(original)``
        returns the replacement. Every attribute is restored on exit, in
        reverse order.
        """
        installed = []
        try:
            for module, attr, make in entries:
                original = getattr(module, attr)
                installed.append((module, attr, original))
                setattr(module, attr, make(original))
            yield
        finally:
            for module, attr, original in reversed(installed):
                setattr(module, attr, original)

    # -- derived views -----------------------------------------------------

    def self_times(self) -> list[float]:
        """Each span's duration minus the time its child spans cover."""
        child = [0.0] * len(self.spans)
        for _, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        return [(end - start) - child[i]
                for i, (_, start, end, _, _) in enumerate(self.spans)]

    def to_record(self) -> dict:
        names = sorted({s[0] for s in self.spans})
        index = {n: k for k, n in enumerate(names)}
        t0 = self.spans[0][1] if self.spans else 0.0
        return {
            "names": names,
            "columns": ["name", "start_s", "end_s", "parent", "info"],
            "spans": [[index[n], round(s - t0, 7), round(e - t0, 7), p, info]
                      for n, s, e, p, info in self.spans],
        }
