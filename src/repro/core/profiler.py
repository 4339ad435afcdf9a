"""Request interception and latency capture.

The :class:`Profiler` is the moral equivalent of the paper's
``FSPROF_PRE(op)`` / ``FSPROF_POST(op)`` instrumentation macros: it reads
a cycle counter at operation entry and exit, and stores the delta into
the appropriate logarithmic bucket of a per-operation profile.

The cycle counter is pluggable: pass any zero-argument callable
returning a monotonically non-decreasing cycle count.  By default a
wall-clock TSC emulation (``perf_counter_ns`` scaled to a nominal CPU
frequency) is used, so the profiler can instrument *real* Python code;
inside the simulator, the simulated per-CPU TSC is passed instead —
exactly the layered design of Figure 2 where the same aggregate-stats
library runs at user, file-system, and driver level.
"""

from __future__ import annotations

import functools
import time
from contextlib import contextmanager
from typing import Callable, Dict, Iterator, Optional

from .buckets import BucketSpec
from .profile import Layer
from .profileset import ProfileSet

__all__ = ["Profiler", "RequestToken", "TokenFinishedError", "tsc_clock",
           "NOMINAL_HZ"]

#: Nominal frequency of the paper's test machine (1.7 GHz Pentium 4).
NOMINAL_HZ = 1.7e9


class TokenFinishedError(RuntimeError):
    """A request token was finished twice.

    Each token represents exactly one in-flight request; a double finish
    means the instrumentation's entry/exit pairing is broken (the
    C library's equivalent would be a mismatched FSPROF_POST).  Subclass
    of :class:`RuntimeError` for backward compatibility with callers
    that caught the old generic error.
    """


def tsc_clock(hz: float = NOMINAL_HZ) -> Callable[[], float]:
    """An emulated TSC: wall-clock nanoseconds scaled to CPU cycles.

    On the paper's hardware a TSC read was a single instruction (~20
    cycles); ``perf_counter_ns`` is the closest portable equivalent.
    """
    scale = hz / 1e9

    def read() -> float:
        return time.perf_counter_ns() * scale

    return read


class RequestToken:
    """Context variable holding a request's start timestamp.

    The C library "store[s] request start times in context variables"
    (Section 4); this object is that variable.  Tokens are cheap, may be
    held across blocking calls, and each may be finished exactly once.
    """

    __slots__ = ("operation", "start", "_done")

    def __init__(self, operation: str, start: float):
        self.operation = operation
        self.start = start
        self._done = False


class Profiler:
    """Latency profiler writing into a :class:`ProfileSet`.

    Instances are cheap; create one per layer being profiled.  Three
    usage styles are supported, mirroring how the paper's macros were
    applied:

    * explicit ``begin()`` / ``end()`` around arbitrary code,
    * the :meth:`request` context manager,
    * the :meth:`wrap` decorator, which instruments a callable the way
      FoSgen instruments a VFS operation.
    """

    def __init__(self, name: str = "", layer: str = Layer.FILESYSTEM,
                 clock: Optional[Callable[[], float]] = None,
                 spec: Optional[BucketSpec] = None):
        self.layer = layer
        self.clock = clock if clock is not None else tsc_clock()
        self.profiles = ProfileSet(name=name, spec=spec)
        #: Overhead accounting: number of begin/end pairs processed.
        self.requests_profiled = 0
        self._flush_hooks = []

    # -- core instrumentation ---------------------------------------------

    def begin(self, operation: str) -> RequestToken:
        """FSPROF_PRE: read the cycle counter and remember it."""
        return RequestToken(operation, self.clock())

    def end(self, token: RequestToken) -> float:
        """FSPROF_POST: compute the latency and bucket it.

        Returns the measured latency in cycles.  Finishing a token
        twice is an instrumentation bug and raises.
        """
        now = self.clock()
        if token._done:
            raise TokenFinishedError(
                f"request token for {token.operation!r} finished twice")
        token._done = True
        latency = now - token.start
        if latency < 0:
            # Clock skew across CPUs (Section 3.4) can make latencies
            # negative; clamp to zero so they land in bucket 0 instead of
            # corrupting the histogram.
            latency = 0.0
        self.profiles.add(token.operation, latency, layer=self.layer)
        self.requests_profiled += 1
        return latency

    def record(self, operation: str, latency: float) -> None:
        """Record an externally measured latency (cycles) directly."""
        if latency < 0:
            latency = 0.0
        self.profiles.add(operation, latency, layer=self.layer)
        self.requests_profiled += 1

    @contextmanager
    def request(self, operation: str) -> Iterator[RequestToken]:
        """Profile the body of a ``with`` block as one request."""
        token = self.begin(operation)
        try:
            yield token
        finally:
            self.end(token)

    def wrap(self, operation: Optional[str] = None) -> Callable:
        """Decorator instrumenting a callable as a profiled operation.

        The operation name defaults to the function's ``__name__``, the
        same convention FoSgen uses for VFS operation vectors.
        """

        def decorate(func: Callable) -> Callable:
            opname = operation if operation is not None else func.__name__

            @functools.wraps(func)
            def wrapper(*args, **kwargs):
                token = self.begin(opname)
                try:
                    return func(*args, **kwargs)
                finally:
                    self.end(token)

            return wrapper

        return decorate

    # -- results -------------------------------------------------------------

    def attach_flush(self, hook: Callable[[], None]) -> None:
        """Register a hook run before results are read or reset.

        The probe/event pipeline defers histogram insertion into per-CPU
        batch buffers; its flush is attached here so ``profile_set()``
        and ``reset()`` always observe a fully drained profile.
        """
        self._flush_hooks.append(hook)

    def _flush(self) -> None:
        for hook in self._flush_hooks:
            hook()

    def profile_set(self) -> ProfileSet:
        """The accumulated complete profile."""
        self._flush()
        return self.profiles

    def reset(self) -> None:
        """Drop accumulated profiles, keeping clock and configuration."""
        self._flush()
        self.profiles = ProfileSet(name=self.profiles.name,
                                   spec=self.profiles.spec)
        self.requests_profiled = 0

    def measurement_overhead(self, samples: int = 10000) -> float:
        """Measure the in-profile overhead: cycles between the two clock reads.

        Section 5.2 computed ~40 cycles on the paper's machine, which
        bounds the smallest recordable latency (their minimum was always
        bucket 5).  Profiling an empty region measures the same quantity
        here.
        """
        if samples < 1:
            raise ValueError("samples must be >= 1")
        deltas = []
        for _ in range(samples):
            t0 = self.clock()
            t1 = self.clock()
            deltas.append(t1 - t0)
        return sum(deltas) / len(deltas)
