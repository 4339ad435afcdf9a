"""The system-call boundary: where requests enter the kernel.

"In an OS, requests arrive via system calls and network requests.  The
latency of these requests contains information about related CPU time,
rescheduling, lock and semaphore contentions, and I/O delays."

:class:`SyscallLayer` wraps operation generators with:

* kernel entry/exit (``proc.in_kernel`` depth, which controls whether a
  non-preemptive kernel may forcibly preempt), and
* OSprof instrumentation — the FSPROF_PRE/FSPROF_POST macro pair
  reading the current CPU's TSC, emitting through the user-level
  :class:`~repro.core.pipeline.ProbePoint` the machine builder wired.

It also charges the fixed syscall entry/exit CPU cost, so even a
zero-byte read has the small but nonzero latency of Figure 3's bucket-6
peak.
"""

from __future__ import annotations

from ..core.pipeline import ProbePoint
from .process import CpuBurst, ProcBody, Process
from .scheduler import Kernel

__all__ = ["SyscallLayer", "DEFAULT_SYSCALL_COST", "PROFILER_HOOK_COST",
           "VARIANTS", "hook_cost"]

#: CPU cost of the syscall trap + return (cycles).  With the ~40-cycle
#: zero-byte read body this puts null reads in bucket 6, as in Figure 3.
DEFAULT_SYSCALL_COST = 45.0

#: The paper's measured per-operation profiling overhead components
#: (Section 5.2): calling the hook functions, reading the TSC, and
#: sorting/storing.  In-profile overhead (between the two TSC reads)
#: was ~40 cycles.
PROFILER_HOOK_COST = {
    "call": 15.0,       # entering/leaving each empty hook body
    "tsc_read": 10.0,   # one TSC read
    "store": 40.0,      # bucket sort + store
}


#: The Section 5.2 instrumentation ladder, cheapest first.
VARIANTS = ("off", "empty", "tsc_only", "full")


def hook_cost(variant: str) -> float:
    """CPU cycles one PRE or POST hook burns under *variant*.

    * ``off``      — no hooks at all,
    * ``empty``    — hook calls with empty bodies,
    * ``tsc_only`` — hooks that read the TSC only,
    * ``full``     — the real profiler (sort + store split PRE/POST).
    """
    if variant not in VARIANTS:
        raise ValueError(f"instrumentation variant must be one of "
                         f"{VARIANTS}, not {variant!r}")
    if variant == "off":
        return 0.0
    cost = PROFILER_HOOK_COST["call"]
    if variant in ("tsc_only", "full"):
        cost += PROFILER_HOOK_COST["tsc_read"]
    if variant == "full":
        cost += PROFILER_HOOK_COST["store"] / 2.0
    return cost


class SyscallLayer:
    """Dispatches profiled operations into the simulated kernel.

    ``probe`` is the user-level probe (wired by
    :meth:`repro.system.System.build`).  Each request pays the
    :func:`hook_cost` of ``instrumentation``, so the overhead experiment
    of Section 5.2 runs by switching variants; only ``full`` records.
    """

    def __init__(self, kernel: Kernel, probe: ProbePoint,
                 syscall_cost: float = DEFAULT_SYSCALL_COST,
                 instrumentation: str = "full"):
        self.kernel = kernel
        self.probe_point = probe
        self.syscall_cost = syscall_cost
        self.instrumentation = instrumentation
        # Per-hook cycles of the variant, fixed for the layer's lifetime
        # (raises ValueError on an unknown variant).
        self._hook = hook_cost(instrumentation)
        self.calls = 0

    def invoke(self, proc: Process, operation: str,
               body: ProcBody) -> ProcBody:
        """Run *body* as a profiled kernel request issued by *proc*.

        Usage from a workload generator::

            result = yield from syscalls.invoke(proc, "read",
                                                fs.read(proc, file, n))
        """
        self.calls += 1
        hook = self._hook
        probe = self.probe_point
        # Stamp the root request context: this is where a request enters
        # the system, so every probed layer below shares its request id.
        context = probe.push_context(proc, operation) if probe.active \
            else None
        proc.in_kernel += 1
        try:
            # Trap into the kernel, then the PRE hook — all system time.
            entry_cost = self.syscall_cost / 2.0 + hook
            if entry_cost > 0:
                yield CpuBurst(self.kernel.rng.jitter(entry_cost))
            start = self.kernel.read_tsc(proc)
            try:
                result = yield from body
            finally:
                end = self.kernel.read_tsc(proc)
                if self.instrumentation == "full":
                    probe.record(operation, end - start, start=start,
                                 context=context,
                                 cpu=proc.cpu if proc.cpu is not None
                                 else 0)
            # POST hook and return-to-user path.
            exit_cost = self.syscall_cost / 2.0 + hook
            if exit_cost > 0:
                yield CpuBurst(self.kernel.rng.jitter(exit_cost))
        finally:
            proc.in_kernel -= 1
            if context is not None:
                ProbePoint.pop_context(proc, context)
        return result

    def probe(self, proc: Process, operation: str,
              body_cycles: float) -> ProcBody:
        """A syscall whose body is a plain CPU burn of *body_cycles*.

        Models micro-probes like the zero-byte read (~40 cycles of
        kernel work) used throughout Section 3.3.
        """
        def body() -> ProcBody:
            if body_cycles > 0:
                yield CpuBurst(self.kernel.rng.jitter(body_cycles))
            return None

        return self.invoke(proc, operation, body())
