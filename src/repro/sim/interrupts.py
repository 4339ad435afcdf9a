"""Timer interrupts and periodic background daemons.

"Profiles that contain a large number of requests also show information
about low-frequency events (e.g., hardware interrupts or background OS
threads) even if these events perform a minimal amount of activity"
(Section 3.3).  Figure 3's small peak in bucket 13 is timer-interrupt
processing: the profiling duration divided by the peak's population is
4 ms — the timer period.

:class:`TimerInterrupt` fires every ``period`` cycles per CPU and steals
``cost`` cycles from whatever request is running there, so a small
fraction of requests (cost/period per CPU) shifts right to the
interrupt-cost bucket.

:class:`PeriodicDaemon` models threads like ``bdflush``, which wakes
every 5 s (metadata) / 30 s (data) and writes dirty buffers — the
source of Figure 9's periodic ``write_super`` activity.
"""

from __future__ import annotations

from functools import partial
from typing import Callable, List, Optional

from .engine import seconds
from .process import CpuBurst, ProcBody, Process, Sleep
from .scheduler import Kernel

__all__ = ["TimerInterrupt", "PeriodicDaemon", "DEFAULT_TIMER_PERIOD",
           "DEFAULT_TIMER_COST"]

#: Figure 3 implies a 4 ms timer period on the paper's Linux 2.6.11.
DEFAULT_TIMER_PERIOD = seconds(4e-3)

#: Interrupt processing cost: ~bucket 13 (8k-16k cycles ~= 5-9 us).
DEFAULT_TIMER_COST = 11_000.0


class TimerInterrupt:
    """A periodic per-CPU interrupt that delays the running request."""

    def __init__(self, kernel: Kernel,
                 period: float = DEFAULT_TIMER_PERIOD,
                 cost: float = DEFAULT_TIMER_COST,
                 jitter_sigma: float = 0.05):
        if period <= 0 or cost < 0:
            raise ValueError("period must be positive, cost non-negative")
        self.kernel = kernel
        self.period = period
        self.cost = cost
        self.jitter_sigma = jitter_sigma
        self.fired = 0
        self.delivered = 0  # interrupts that actually delayed a request
        self._running = False
        self._ticks: List[Callable[[], None]] = []

    def start(self) -> None:
        """Arm the timer on every CPU (staggered so CPUs don't beat)."""
        if self._running:
            return
        self._running = True
        cpus = len(self.kernel.cpus)
        self._ticks = [partial(self._tick, cpu) for cpu in range(cpus)]
        for cpu in range(cpus):
            offset = self.period * (cpu + 1) / (cpus + 1)
            self.kernel.engine.schedule(offset, self._ticks[cpu])

    def stop(self) -> None:
        self._running = False

    def _tick(self, cpu: int) -> None:
        if not self._running:
            return
        self.fired += 1
        cost = self.kernel.rng.jitter(self.cost, self.jitter_sigma) \
            if self.cost > 0 else 0.0
        if cost > 0 and self.kernel.delay_current_chunk(cpu, cost):
            self.delivered += 1
        self.kernel.engine.schedule(self.period, self._ticks[cpu])


class PeriodicDaemon:
    """A kernel thread that wakes on a fixed period and runs a body.

    ``body_factory(proc)`` returns a fresh generator for each wakeup
    (e.g. "flush dirty metadata through the journal lock").  The daemon
    yields the CPU between wakeups, so it only perturbs foreground
    requests while actually working — producing the horizontal stripes
    of Figure 9.
    """

    def __init__(self, kernel: Kernel, name: str, period: float,
                 body_factory: Callable[[Process], ProcBody],
                 initial_delay: Optional[float] = None):
        if period <= 0:
            raise ValueError("period must be positive")
        self.kernel = kernel
        self.name = name
        self.period = period
        self.body_factory = body_factory
        self.initial_delay = (initial_delay if initial_delay is not None
                              else period)
        self.wakeups = 0
        self._stop = False
        self.process: Optional[Process] = None

    def start(self) -> Process:
        """Spawn the daemon process; returns it."""
        if self.process is not None:
            return self.process
        self.process = self.kernel.spawn(self._run_forever(), self.name)
        return self.process

    def stop(self) -> None:
        """Ask the daemon to exit at its next wakeup."""
        self._stop = True

    def _run_forever(self) -> ProcBody:
        yield Sleep(self.initial_delay)
        while not self._stop:
            self.wakeups += 1
            proc = self.process
            assert proc is not None
            yield from self.body_factory(proc)
            yield Sleep(self.period)
        return None
