"""In-memory spans around calls into the program's public functions.

A span is ``(id, name, start, end, parent, request id)``.  Spans are
kept in memory while the run measures and written out when it ends, so
the run pays one list append per span and no I/O.  Timestamps come
from ``time.perf_counter`` (CLOCK_MONOTONIC on Linux), so spans taken
in the launcher processes line up with the generator's.

Each span name's durations also form an OSprof latency profile (one
``floor(log2)`` histogram per name, in cycles at the paper's 1.7 GHz),
so two traced runs compare with ``osprof compare --metric emd``.
"""

from __future__ import annotations

import functools
import itertools
import json
import threading
import time
from typing import Callable, Iterable, List, Optional

#: A wrapper that derives the request id from the wrapped call's args.
RequestId = Optional[Callable[..., Optional[str]]]


class Tracer:
    """Span recorder for one process; ``tag`` prefixes its span ids."""

    def __init__(self, tag: str):
        self.tag = tag
        self.spans: List[tuple] = []
        self._ids = itertools.count(1)
        self._local = threading.local()

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def call(self, name: str, fn: Callable, args=(), kwargs=None,
             rid: Optional[str] = None):
        """Run ``fn(*args, **kwargs)`` inside a span named *name*."""
        stack = self._stack()
        sid = f"{self.tag}{next(self._ids)}"
        parent = stack[-1] if stack else None
        stack.append(sid)
        start = time.perf_counter()
        try:
            return fn(*args, **(kwargs or {}))
        finally:
            end = time.perf_counter()
            stack.pop()
            self.spans.append((sid, name, start, end, parent, rid))

    def wrap(self, owner, attr: str, name: str,
             rid: RequestId = None) -> Callable:
        """Replace ``owner.attr`` by a spanning wrapper; returns the original.

        *owner* is a live instance or a module: callers that look the
        attribute up at call time (``self.x(...)``, a module global)
        go through the wrapper.
        """
        original = getattr(owner, attr)
        tracer = self

        @functools.wraps(original)
        def traced(*args, **kwargs):
            return tracer.call(name, original, args, kwargs,
                               rid(*args, **kwargs) if rid else None)

        setattr(owner, attr, traced)
        return original

    def dump(self) -> List[dict]:
        return [{"id": sid, "name": name, "start": start, "end": end,
                 "parent": parent, "rid": rid}
                for sid, name, start, end, parent, rid in self.spans]


def durations(spans: Iterable[dict], name: str) -> List[float]:
    return [s["end"] - s["start"] for s in spans if s["name"] == name]


def write(spans: List[dict], stem) -> None:
    """Write ``<stem>.spans.jsonl`` and ``<stem>.ospb`` (one profile per name)."""
    from repro.core.profile import Layer
    from repro.core.profiler import NOMINAL_HZ
    from repro.core.profileset import ProfileSet
    with open(f"{stem}.spans.jsonl", "w", encoding="utf-8") as f:
        for s in spans:
            f.write(json.dumps(s, sort_keys=True) + "\n")
    pset = ProfileSet(name="perfbench-spans")
    for s in spans:
        pset.add(s["name"], max(s["end"] - s["start"], 0.0) * NOMINAL_HZ,
                 layer=Layer.USER)
    pset.save(f"{stem}.ospb", format="binary")
