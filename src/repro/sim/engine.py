"""Discrete-event simulation engine.

Everything in the simulated OS — CPU bursts, disk seeks, TCP timers,
semaphore waits — is an event on a single priority queue ordered by
simulated time, measured in **CPU cycles** at a nominal 1.7 GHz (the
paper's Pentium 4), so latency bucket numbers line up with the paper's
figures.

The engine is deliberately minimal: it knows nothing about processes or
devices.  Higher layers (:mod:`repro.sim.scheduler`, :mod:`repro.disk`,
:mod:`repro.net`) schedule callbacks; determinism is guaranteed by the
(time, sequence-number) ordering, so two runs with the same seed replay
identically.

The loop is the simulator's hot path, so an event costs one heap entry
compared in C and no Python frame besides its callback: an
:class:`Event` *is* the list ``[time, seq, fn]``.  Lists compare
element-wise and ``seq`` is unique, so the heap orders by time, then by
scheduling order, and never compares two callbacks.  Cancelling sets
``fn`` to None; the loop discards such entries as they surface.  A run
ends when the queue drains, at its ``until`` time or ``max_events``
budget, or after the event in which a callback called :meth:`Engine.halt`.
"""

from __future__ import annotations

from heapq import heappop, heappush
from math import inf
from typing import Callable, List, Optional

__all__ = ["Event", "Engine", "CYCLES_PER_SECOND", "seconds", "cycles_to_seconds"]

#: Nominal simulated CPU frequency: 1.7 GHz, the paper's test machine.
CYCLES_PER_SECOND = 1.7e9


def seconds(s: float) -> float:
    """Convert seconds to simulated cycles."""
    return s * CYCLES_PER_SECOND


def cycles_to_seconds(c: float) -> float:
    """Convert simulated cycles to seconds."""
    return c / CYCLES_PER_SECOND


class Event(list):
    """A scheduled callback, and its own heap entry: ``[time, seq, fn]``.

    The handle :meth:`Engine.schedule` returns; cancellable without
    queue surgery (:meth:`Engine.cancel` clears ``fn``).
    """

    __slots__ = ()

    @property
    def cancelled(self) -> bool:
        return self[2] is None

    def __repr__(self) -> str:
        state = " cancelled" if self.cancelled else ""
        return f"<Event t={self[0]:.0f}{state}>"


class Engine:
    """The event loop: a heap of :class:`Event` plus the simulated clock.

    :meth:`run` pops entries in ``(time, seq)`` order, skips cancelled
    ones, and calls each live callback with the clock set to its time.
    It stops when the queue drains, at ``until`` or ``max_events``, or
    after the event that called :meth:`halt`.
    """

    def __init__(self):
        self.now: float = 0.0
        self._queue: List[Event] = []
        self._seq = 0
        self._halted = False
        self.events_processed = 0

    # -- scheduling --------------------------------------------------------

    def schedule(self, delay: float, fn: Callable[[], None]) -> Event:
        """Run *fn* after *delay* cycles; returns a cancellable handle."""
        if delay < 0:
            raise ValueError("cannot schedule into the past")
        self._seq += 1
        event = Event([self.now + delay, self._seq, fn])
        heappush(self._queue, event)
        return event

    def schedule_at(self, time: float, fn: Callable[[], None]) -> Event:
        """Run *fn* at absolute simulated time *time*."""
        if time < self.now:
            raise ValueError("cannot schedule into the past")
        self._seq += 1
        event = Event([time, self._seq, fn])
        heappush(self._queue, event)
        return event

    @staticmethod
    def cancel(event: Event) -> None:
        """Cancel a pending event (idempotent)."""
        event[2] = None

    # -- execution ---------------------------------------------------------

    def pending(self) -> int:
        """Number of live (non-cancelled) events still queued."""
        return sum(1 for e in self._queue if e[2] is not None)

    def halt(self) -> None:
        """End the current :meth:`run` once the executing event returns.

        Called from inside an event (the kernel calls it when the last
        process a ``run_until_done`` awaits exits), so the clock stops
        at that event and unrelated periodic events — timer ticks, flush
        daemons — do not run it further.  Outside a run it does nothing:
        every run starts un-halted.
        """
        self._halted = True

    def step(self) -> bool:
        """Run the next live event; False when the queue is empty."""
        queue = self._queue
        while queue:
            time, _, fn = heappop(queue)
            if fn is None:
                continue
            self.now = time
            self.events_processed += 1
            fn()
            return True
        return False

    def run(self, until: Optional[float] = None,
            max_events: Optional[int] = None) -> int:
        """Drain the queue, optionally bounded by time and event count.

        With ``until``, the clock is advanced to exactly ``until`` even
        if the queue drains earlier, so periodic observers see a full
        window.  A :meth:`halt` from inside an event returns right after
        that event, without advancing the clock.  Returns the number of
        events executed.
        """
        queue = self._queue
        pop = heappop
        limit = inf if until is None else until
        budget = inf if max_events is None else max_events
        executed = 0
        self._halted = False
        while queue:
            if executed >= budget:
                return executed
            entry = pop(queue)
            fn = entry[2]
            if fn is None:
                continue
            time = entry[0]
            if time > limit:
                heappush(queue, entry)
                break
            self.now = time
            self.events_processed += 1
            fn()
            executed += 1
            if self._halted:
                self._halted = False
                return executed
        if until is not None and self.now < until:
            self.now = until
        return executed
