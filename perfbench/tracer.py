"""In-memory spans around the benchmark's calls into stabdet.

A span is (span id, name, start, end, parent span id, op id).  Every op gets
one span named ``op``; each call the op makes into a stabdet function gets a
child span named ``<module>.<function>``.  Spans stay in memory and are
written out only by ``write`` when the run ends.
"""

from __future__ import annotations

import itertools
import json
import statistics
import time


def untraced(name, fn, *args):
    """The call hook used when tracing is off."""
    return fn(*args)


class Tracer:
    def __init__(self):
        self.spans = []
        self._ids = itertools.count(1)
        self._op = None  # (span id, op id, start) of the open op span

    def begin_op(self, op_id: int) -> None:
        self._op = (next(self._ids), op_id, time.perf_counter())

    def end_op(self) -> None:
        span_id, op_id, start = self._op
        self.spans.append((span_id, "op", start, time.perf_counter(), None, op_id))
        self._op = None

    def call(self, name, fn, *args):
        """Call hook: runs fn(*args) inside a span that is a child of the op."""
        span_id = next(self._ids)
        start = time.perf_counter()
        try:
            return fn(*args)
        finally:
            end = time.perf_counter()
            parent, op_id = (self._op[0], self._op[1]) if self._op else (None, None)
            self.spans.append((span_id, name, start, end, parent, op_id))

    def summary(self) -> dict:
        """Per span name: calls, busy_s, share of op wall time, p50_ms."""
        durations = {}
        for _, name, start, end, _, _ in self.spans:
            durations.setdefault(name, []).append(end - start)
        op_wall = sum(durations.get("op", []))
        out = {}
        for name, ds in durations.items():
            if name == "op":
                continue
            busy = sum(ds)
            out[name] = {"calls": len(ds), "busy_s": busy,
                         "share": busy / op_wall if op_wall else 0.0,
                         "p50_ms": 1e3 * statistics.median(ds)}
        return out

    def write(self, path) -> None:
        with open(path, "w") as fh:
            for span_id, name, start, end, parent, op_id in self.spans:
                fh.write(json.dumps({"id": span_id, "name": name, "start": start,
                                     "end": end, "parent": parent, "op": op_id}) + "\n")
