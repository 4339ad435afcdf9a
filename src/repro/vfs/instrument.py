"""File-system-level instrumentation: the FSPROF macro pair.

FoSgen "discovers implementations of all file system operations and
inserts FSPROF_PRE(op) and FSPROF_POST(op) macros at their entry and
return points" (Section 4).  :class:`FsInstrument` is the runtime those
macros call into: a TSC read at entry, a TSC read plus bucket update at
return, with the same per-hook CPU costs as the syscall layer
(:func:`~repro.sim.syscalls.hook_cost`) so the Section 5.2 overhead
decomposition applies at this layer too.

Nested instrumented operations (``readdir`` calling ``readpage``)
compose naturally — each wrapped generator measures its own interval,
the paper's "layered profiling ... extended to the granularity of a
single function call."
"""

from __future__ import annotations

from ..core.pipeline import ProbePoint
from ..sim.process import CpuBurst, ProcBody, Process
from ..sim.scheduler import Kernel
from ..sim.syscalls import hook_cost

__all__ = ["FsInstrument"]


class FsInstrument:
    """Wraps FS operation generators with latency capture.

    ``probe`` is the file-system-level probe (wired by
    :meth:`repro.system.System.build`; an inactive probe for an
    uninstrumented mount).  ``variant`` is the Section 5.2 rung, as for
    :class:`~repro.sim.syscalls.SyscallLayer`: ``off`` (no hooks),
    ``empty`` (hook call cost only), ``tsc_only`` (hooks + TSC reads,
    nothing stored), ``full`` (the real profiler).
    """

    def __init__(self, kernel: Kernel, probe: ProbePoint,
                 variant: str = "full"):
        hook_cost(variant)  # reject unknown variants up front
        self.kernel = kernel
        self.probe_point = probe
        self.variant = variant
        self.operations_profiled = 0

    def invoke(self, proc: Process, operation: str,
               body: ProcBody) -> ProcBody:
        """FSPROF_PRE(op); body; FSPROF_POST(op)."""
        hook = hook_cost(self.variant)
        probe = self.probe_point
        context = probe.push_context(proc, operation) if probe.active \
            else None
        try:
            if hook > 0:
                yield CpuBurst(self.kernel.rng.jitter(hook))
            start = self.kernel.read_tsc(proc)
            try:
                result = yield from body
            finally:
                end = self.kernel.read_tsc(proc)
                if self.variant == "full":
                    self.operations_profiled += 1
                    probe.record(operation, end - start, start=start,
                                 context=context,
                                 cpu=proc.cpu if proc.cpu is not None
                                 else 0)
            if hook > 0:
                yield CpuBurst(self.kernel.rng.jitter(hook))
        finally:
            if context is not None:
                ProbePoint.pop_context(proc, context)
        return result
