"""The disk device: a model-agnostic queue/completion engine.

The device is autonomous: requests are submitted to its queue and served
without consuming any simulated CPU — the submitting process may
continue (asynchronous write) or block on the request's completion
condition (synchronous read), which is exactly why "file system writes
and asynchronous I/O requests return immediately after scheduling the
I/O request [so] their latency contains no information about the
associated I/O times" (Section 4) — and why the paper added a
driver-level profiler.

Where the time *goes* is delegated to a pluggable
:class:`~repro.disk.model.DeviceModel`: the engine owns per-channel
request queues, completion conditions and listeners, and the
media-error retry loop; the model owns service times, the queue
discipline, and the request→channel mapping (a RAID array services one
channel per child device).  The default model is the paper's 15 kRPM
:class:`~repro.disk.model.SpindleModel`, byte-identical to the
pre-refactor hard-wired spindle.
"""

from __future__ import annotations

from functools import partial
from typing import List, Optional

from ..sim.process import Condition, ProcBody, WaitCondition
from ..sim.rng import SimRandom
from ..sim.scheduler import Kernel
from .geometry import DiskGeometry
from .model import DEFAULT_COMMAND_OVERHEAD, DeviceModel, SpindleModel

__all__ = ["DiskRequest", "Disk", "DEFAULT_COMMAND_OVERHEAD"]


class DiskRequest:
    """One block I/O request and its completion bookkeeping."""

    __slots__ = ("block", "is_write", "submitted_at", "started_at",
                 "completed_at", "condition", "cache_hit", "seek_cycles",
                 "retries", "failed", "_attempt_failed", "context")

    def __init__(self, block: int, is_write: bool):
        self.block = block
        self.is_write = is_write
        self.submitted_at = 0.0
        self.started_at = 0.0
        self.completed_at = 0.0
        self.condition = Condition(f"io:{'w' if is_write else 'r'}{block}")
        self.cache_hit = False
        self.seek_cycles = 0.0
        #: Media-error recovery bookkeeping (failure injection).
        self.retries = 0
        self.failed = False
        self._attempt_failed = False
        #: RequestContext of the submitting request, stamped by the
        #: driver so completion events keep their cross-layer identity.
        self.context = None

    @property
    def latency(self) -> float:
        """Queue + service time, valid after completion."""
        return self.completed_at - self.submitted_at

    def __repr__(self) -> str:
        kind = "write" if self.is_write else "read"
        return f"<DiskRequest {kind} block={self.block}>"


class Disk:
    """The block device engine fronting a pluggable device model.

    With no ``model``, builds the default
    :class:`~repro.disk.model.SpindleModel` (the paper's 15 kRPM disk,
    the byte-identity reference); spindle knobs are set on the model.

    ``fault_plan`` arms the ``device.service`` site: a matching point
    marks the in-service attempt as a media error, exercising the same
    transparent-retry path organic ``error_rate`` failures take —
    OSprof's visible symptom either way is only the added latency.
    """

    def __init__(self, kernel: Kernel,
                 rng: Optional[SimRandom] = None,
                 error_rate: float = 0.0,
                 max_retries: int = 3,
                 model: Optional[DeviceModel] = None,
                 fault_plan=None):
        if not 0.0 <= error_rate < 1.0:
            raise ValueError("error_rate must be in [0, 1)")
        if max_retries < 0:
            raise ValueError("max_retries must be non-negative")
        self.kernel = kernel
        #: Failure injection: probability a media access fails and the
        #: drive retries internally (ECC error, remapped sector...).
        #: Retries are transparent to callers except in latency — the
        #: OSprof-visible symptom of a failing disk.
        self.error_rate = error_rate
        self.max_retries = max_retries
        self.media_errors = 0
        self.retries_performed = 0
        self.rng = rng if rng is not None else kernel.rng.fork("disk")
        self.total_seek_cycles = 0.0
        self._fault_plan = fault_plan
        if model is None:
            model = SpindleModel()
        self.model = model
        model.attach(self)
        channels = model.channels()
        if channels < 1:
            raise ValueError("device model must expose >= 1 channel")
        self.queues: List[List[DiskRequest]] = [[] for _ in range(channels)]
        self.busy_channels: List[bool] = [False] * channels
        self.requests_served = 0
        self.reads = 0
        self.writes = 0
        #: Completion listeners, called with each finished request —
        #: how the instrumented driver observes asynchronous writes.
        self.on_complete: List = []

    # -- model attribute pass-throughs ----------------------------------------

    @property
    def geometry(self) -> DiskGeometry:
        """The model's block-address space (allocators read num_blocks)."""
        return self.model.geometry

    @property
    def cache(self):
        """The spindle segment cache (models without one have no attr)."""
        return self.model.cache

    @property
    def elevator(self) -> bool:
        return self.model.elevator

    @elevator.setter
    def elevator(self, value: bool) -> None:
        self.model.elevator = value

    @property
    def head_track(self) -> int:
        return getattr(self.model, "head_track", 0)

    @property
    def busy(self) -> bool:
        return any(self.busy_channels)

    # -- submission ----------------------------------------------------------

    def submit(self, block: int, is_write: bool = False) -> DiskRequest:
        """Queue a request; returns it immediately (fire-and-forget OK)."""
        request = DiskRequest(block, is_write)
        request.submitted_at = self.kernel.now
        self.model.validate(block)  # raises on a bad block number
        channel = self.model.channel_of(request)
        self.queues[channel].append(request)
        if not self.busy_channels[channel]:
            self._start_next(channel)
        return request

    def read(self, block: int) -> ProcBody:
        """Generator: submit a read and block until it completes."""
        request = self.submit(block, is_write=False)
        yield WaitCondition(request.condition)
        return request

    def write(self, block: int) -> ProcBody:
        """Generator: submit a write and block until it completes."""
        request = self.submit(block, is_write=True)
        yield WaitCondition(request.condition)
        return request

    def wait(self, request: DiskRequest) -> ProcBody:
        """Generator: block until an already-submitted request completes."""
        if request.completed_at > 0:
            return request
            yield  # pragma: no cover
        yield WaitCondition(request.condition)
        return request

    # -- service loop ------------------------------------------------------------

    def _start_next(self, channel: int) -> None:
        queue = self.queues[channel]
        if not queue:
            return
        self.busy_channels[channel] = True
        request = self.model.pick_next(queue, channel)
        request.started_at = self.kernel.now
        service, cache_hit = self.model.service_time(request, self.rng)
        request.cache_hit = cache_hit
        if self._fault_plan is not None:
            point = self._fault_plan.point_at(
                "device.service",
                key="write" if request.is_write else "read",
                attempt=request.retries)
            if point is not None:
                request._attempt_failed = True
        if request._attempt_failed:
            self.media_errors += 1
        self.kernel.engine.schedule(
            service, partial(self._complete, request, channel))

    def _complete(self, request: DiskRequest, channel: int) -> None:
        if request._attempt_failed:
            request._attempt_failed = False
            if request.retries < self.max_retries:
                # Internal retry: service the same request again; the
                # caller only sees the added latency.
                request.retries += 1
                self.retries_performed += 1
                self.queues[channel].insert(0, request)
                self.busy_channels[channel] = False
                self._start_next(channel)
                return
            request.failed = True
        request.completed_at = self.kernel.now
        self.requests_served += 1
        if request.is_write:
            self.writes += 1
        else:
            self.reads += 1
        self.kernel.fire_condition(request.condition, request,
                                   wake_all=True)
        for listener in self.on_complete:
            listener(request)
        self.busy_channels[channel] = False
        self._start_next(channel)

    # -- introspection -------------------------------------------------------------

    def queue_depth(self) -> int:
        return (sum(len(queue) for queue in self.queues)
                + sum(1 for b in self.busy_channels if b))

    def __repr__(self) -> str:
        queued = sum(len(queue) for queue in self.queues)
        return (f"<Disk model={self.model.name} queue={queued} "
                f"served={self.requests_served}>")
