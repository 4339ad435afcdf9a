"""Periodic wait-state sampling of a running simulated kernel.

:class:`WaitStateSampler` is the always-on half of the profiling story:
every *interval* cycles of **simulated** time it walks the kernel's
process table and records, per live process, ``(state, layer, op,
wait_site)`` into a :class:`~repro.sampling.stateprofile.StateProfile`.
The tick is a self-rescheduling engine event — no wall-clock reads, no
RNG draws, no pipeline interaction — so a sampled run is deterministic
under a fixed seed and the measured latency profiles are byte-identical
with the sampler on or off.

The only wall-clock use is the ``overhead_ns_total`` health counter
(how much real time the capture loop itself costs), which is exported
on the metrics endpoint but never serialized into a profile, keeping
StateProfile bytes pinnable in CI.
"""

from __future__ import annotations

import time
from typing import Dict

from ..sim.process import ProcessState
from ..sim.scheduler import Kernel
from .stateprofile import CellKey, StateProfile

__all__ = ["WaitStateSampler", "canonical_wait_site"]

#: Layer recorded for a process outside any instrumented request.
_IDLE_LAYER = "user"

#: Operation recorded for a process outside any instrumented request.
_IDLE_OP = "-"

#: Wait site recorded for a process that is not blocked.
_NO_WAIT = "-"


def canonical_wait_site(site: str) -> str:
    """Collapse per-request condition names into bounded site families.

    Disk completions (``io:r<block>``), page locks (``page:<ino>:<idx>``),
    and network transaction ids (``nfs:xid.../smb:mid...``) mint a fresh
    condition name per request, which would grow a StateProfile without
    bound.  Per-*resource* names — ``sem:i_sem:<ino>``, ``rw:<lock>`` —
    are the diagnostic signal and pass through unchanged.
    """
    if site.startswith("io:w"):
        return "io:write"
    if site.startswith("io:r"):
        return "io:read"
    if site.startswith("page:"):
        return "page"
    if site.startswith("nfs:"):
        return "nfs"
    if site.startswith("smb:"):
        return "smb"
    if site.startswith("exit:"):
        return "exit"
    return site


class WaitStateSampler:
    """Samples per-process wait state on a fixed sim-clock period.

    ``interval`` is in cycles (use :func:`repro.sim.engine.seconds` to
    express it in simulated seconds).  :meth:`start` arms the first
    tick; sampling then continues until :meth:`stop`, across
    ``run_until_done`` calls, because the tick is an ordinary engine
    event that stays queued when a run halts.

    Only engine events change the process table (a spawn queues its own
    dispatch event), so a tick that follows the previous tick with no
    event in between (most ticks of an I/O-bound run, whose processes
    sit blocked for many intervals) does not walk the table again: it
    counts one more repeat of the last walk, whose cells are added to
    the profile, times their repeats, at the next walk or read.
    """

    def __init__(self, kernel: Kernel, interval: float,
                 name: str = "state-samples"):
        if interval <= 0:
            raise ValueError("sample interval must be positive")
        self.kernel = kernel
        self.interval = float(interval)
        self.name = name
        self._profile = StateProfile(name=name, interval=self.interval)
        self._tick_event = None
        # The last walk's cells and their live-process total, the ticks
        # that saw them not yet added to the profile, and the engine
        # count at which the next tick finds no other event has run.
        self._cells: Dict[CellKey, int] = {}
        self._live = 0
        self._repeats = 0
        self._quiet_mark = -1
        # Health counters (metrics endpoint; never serialized).
        self.samples_total = 0
        self.intervals_total = 0
        self.overhead_ns_total = 0

    # -- lifecycle -----------------------------------------------------------

    @property
    def running(self) -> bool:
        return self._tick_event is not None

    def start(self) -> None:
        """Arm the sampler; the first capture fires one interval from now."""
        if self._tick_event is not None:
            raise RuntimeError("sampler already started")
        self._tick_event = self.kernel.engine.schedule(
            self.interval, self._tick)

    def stop(self) -> None:
        """Disarm the sampler (idempotent)."""
        if self._tick_event is not None:
            self.kernel.engine.cancel(self._tick_event)
            self._tick_event = None

    # -- the tick ------------------------------------------------------------

    def _tick(self) -> None:
        started = time.perf_counter_ns()
        engine = self.kernel.engine
        if engine.events_processed != self._quiet_mark:
            self._flush()
            self._cells = self._capture()
            self._live = sum(self._cells.values())
        self._repeats += 1
        self.samples_total += self._live
        self.intervals_total += 1
        self._profile.intervals += 1
        self._tick_event = engine.schedule(self.interval, self._tick)
        self._quiet_mark = engine.events_processed + 1
        self.overhead_ns_total += time.perf_counter_ns() - started

    def _flush(self) -> None:
        """Add the last walk's cells once per tick that saw them."""
        repeats, self._repeats = self._repeats, 0
        add = self._profile.add
        for (state, layer, op, site), count in self._cells.items():
            add(state, layer, op, site, count * repeats)

    def _capture(self) -> Dict[CellKey, int]:
        """One walk of the process table: cell -> live processes in it."""
        cells: Dict[CellKey, int] = {}
        for proc in self.kernel.processes:
            if proc.state == ProcessState.DONE:
                continue
            ctx = proc.request_context
            if ctx is not None:
                layer = ctx.layer
                op = ctx.operation
            else:
                layer = _IDLE_LAYER
                op = _IDLE_OP
            if proc.state == ProcessState.BLOCKED:
                site = canonical_wait_site(proc.wait_site or "unknown")
            else:
                site = _NO_WAIT
            key = (proc.state, layer, op, site)
            cells[key] = cells.get(key, 0) + 1
        return cells

    # -- results -------------------------------------------------------------

    def profile(self) -> StateProfile:
        """A snapshot copy of the accumulated state profile."""
        self._flush()
        snap = StateProfile(name=self.name, interval=self.interval)
        snap.merge(self._profile)
        return snap

    def reset(self) -> None:
        """Clear accumulated counts (health counters keep running)."""
        self._repeats = 0
        self._profile = StateProfile(name=self.name, interval=self.interval)

    def metrics(self) -> Dict[str, int]:
        """Health counters in metrics-endpoint naming."""
        return {
            "osprof_samples_total": self.samples_total,
            "osprof_sample_intervals_total": self.intervals_total,
            "osprof_sampler_overhead_ns_total": self.overhead_ns_total,
        }
