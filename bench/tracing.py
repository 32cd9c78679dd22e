"""Spans around the benchmark's calls into each layer.

A span records its name, start, end, the span that caused it and the op it
belongs to.  Spans stay in memory; the runner writes them out at the end.
With tracing off, ``call`` is the bare function call.
"""

from __future__ import annotations

import time
from collections import defaultdict
from typing import Callable, Dict, List, Optional, Tuple


def untraced(name: str, fn: Callable, *args):
    return fn(*args)


class Tracer:
    def __init__(self, clock: Callable[[], float] = time.perf_counter):
        self.clock = clock
        # (span id, name, start, end, parent span id, op id)
        self.spans: List[Tuple[int, str, float, float, Optional[int], int]] = []
        self._stack: List[int] = []
        self._op = -1

    def op(self, op_id: int, fn: Callable, *args):
        """Run one op under a root span named ``op``."""
        self._op = op_id
        return self.call("op", fn, *args)

    def call(self, name: str, fn: Callable, *args):
        sid = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        self.spans.append((sid, name, 0.0, 0.0, parent, self._op))
        self._stack.append(sid)
        start = self.clock()
        try:
            return fn(*args)
        finally:
            end = self.clock()
            self._stack.pop()
            self.spans[sid] = (sid, name, start, end, parent, self._op)

    def self_times(self, scale: Dict[int, float]) -> Dict[str, float]:
        """Seconds per span name over the ops in ``scale``: each span's
        duration minus the part its child spans cover, times its op's
        factor in ``scale``."""
        child = defaultdict(float)
        for _, _, start, end, parent, op in self.spans:
            if parent is not None and op in scale:
                child[parent] += end - start
        out: Dict[str, float] = defaultdict(float)
        for sid, name, start, end, _, op in self.spans:
            if op in scale:
                out[name] += (end - start - child[sid]) * scale[op]
        return dict(out)

    def to_json(self) -> list:
        return [
            {"id": sid, "name": name, "start": start, "end": end, "parent": parent, "op": op}
            for sid, name, start, end, parent, op in self.spans
        ]
