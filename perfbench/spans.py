"""In-memory span recorder for the benchmark's own calls into the library.

A span records name, start, end, parent span and op id. Spans stay in memory
and are written out once, at the end of a run; a span's self time is its
duration minus that of its children. Every library call the benchmark times
is a span, in traced and untraced runs alike, so both time the same calls the
same way; a traced run only adds work between spans.
"""

from __future__ import annotations

import json
import time
from contextlib import contextmanager


class Span:
    __slots__ = ("name", "start", "end", "parent", "op")

    def __init__(self, name: str, start: float, parent: int | None,
                 op: int | None):
        self.name = name
        self.start = start
        self.end = start
        self.parent = parent
        self.op = op

    @property
    def seconds(self) -> float:
        return self.end - self.start


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self._ops = 0

    def new_op(self) -> int:
        self._ops += 1
        return self._ops

    @contextmanager
    def span(self, name: str, op: int | None = None):
        parent = self._stack[-1] if self._stack else None
        if op is None and parent is not None:
            op = self.spans[parent].op
        s = Span(name, time.perf_counter(), parent, op)
        self._stack.append(len(self.spans))
        self.spans.append(s)
        try:
            yield s
        finally:
            s.end = time.perf_counter()
            self._stack.pop()

    def durations(self, name: str) -> list[float]:
        return [s.seconds for s in self.spans if s.name == name]

    def dump(self, path: str, header: dict) -> None:
        t0 = self.spans[0].start if self.spans else 0.0
        with open(path, "w") as f:
            f.write(json.dumps(header) + "\n")
            for i, s in enumerate(self.spans):
                f.write(json.dumps({
                    "id": i, "name": s.name, "parent": s.parent, "op": s.op,
                    "start_s": s.start - t0, "end_s": s.end - t0}) + "\n")
