"""In-memory spans for the traced benchmark run (stdlib only).

A span holds a name, a start and an end (perf_counter seconds), the index of
its parent span and the id of the op it belongs to. Spans stay in memory
and are written out once, when the run ends. The untraced run uses
NullTracer, whose methods only forward the call.
"""

from __future__ import annotations

import time
from contextlib import contextmanager, nullcontext


class Tracer:
    enabled = True

    def __init__(self) -> None:
        self.spans: list[dict] = []
        self.op_id: int | None = None
        self._stack: list[int] = []

    @contextmanager
    def span(self, name: str, **attrs):
        rec = {"name": name, "start": time.perf_counter(), "end": None,
               "parent": self._stack[-1] if self._stack else None,
               "op": self.op_id, **attrs}
        self._stack.append(len(self.spans))
        self.spans.append(rec)
        try:
            yield rec
        finally:
            rec["end"] = time.perf_counter()
            self._stack.pop()

    def call(self, name: str, fn, *args, **kwargs):
        with self.span(name):
            return fn(*args, **kwargs)

    def self_times(self) -> list[float]:
        """Each span's duration minus the time its child spans cover.

        Children of one span run one after another on one thread, so their
        durations never overlap and can simply be subtracted.
        """
        own = [s["end"] - s["start"] for s in self.spans]
        for s in self.spans:
            if s["parent"] is not None:
                own[s["parent"]] -= s["end"] - s["start"]
        return own

    def root(self, index: int) -> dict:
        span = self.spans[index]
        while span["parent"] is not None:
            span = self.spans[span["parent"]]
        return span


class NullTracer:
    enabled = False
    op_id = None

    def span(self, name: str, **attrs):
        return nullcontext()

    def call(self, name: str, fn, *args, **kwargs):
        return fn(*args, **kwargs)
