"""One-stop assembly of a simulated machine with OSprof attached.

:class:`System` wires together everything a profiling experiment needs —
engine, kernel/scheduler, disk + driver, inode table, file system, VFS,
page cache, syscall layer, and the three profiling layers of Figure 2
(user, file system, driver) — with the paper's hardware parameters as
defaults (1.7 GHz CPU, 58 ms quantum, 15 kRPM disk).

It is also the one place probes are wired: :meth:`System.build` creates
one machine-wide :class:`~repro.core.pipeline.Pipeline`, wires one
:class:`~repro.core.pipeline.ProbePoint` per profiled layer with
:func:`~repro.core.pipeline.wire_probe`, and hands each layer its
probe.

Typical use::

    from repro import System

    sys = System.build(fs_type="ext2", num_cpus=2)
    root = sys.tree.make_root()
    f = sys.tree.mkfile(root, "data", 1 << 20)
    ... spawn workload processes via sys.kernel.spawn ...
    sys.run()
    print(sys.fs_profiles()["read"])
"""

from __future__ import annotations

from typing import List, Optional, Sequence

from .core.buckets import BucketSpec
from .core.pipeline import Pipeline, wire_probe
from .core.procfs import ProcFs
from .core.profile import Layer
from .core.profiler import Profiler
from .core.profileset import ProfileSet
from .core.sampling import SampledProfiler
from .disk.device import Disk
from .disk.driver import ScsiDriver
from .disk.model import DeviceModel
from .fs.ext2 import Ext2
from .fs.ext3 import Ext3
from .fs.mkfs import BlockAllocator, TreeBuilder
from .fs.namei import PathWalker
from .fs.ntfs import Ntfs
from .fs.reiserfs import Reiserfs
from .sampling.sampler import WaitStateSampler
from .sim.engine import Engine, seconds
from .sim.interrupts import TimerInterrupt
from .sim.process import Process
from .sim.rng import SimRandom
from .sim.scheduler import DEFAULT_QUANTUM, Kernel
from .sim.syscalls import SyscallLayer
from .vfs.inode import Inode, InodeTable
from .vfs.instrument import FsInstrument
from .vfs.pagecache import PageCache
from .vfs.vfs import Vfs

__all__ = ["System"]


class System:
    """A fully wired simulated machine plus its profiling layers."""

    def __init__(self, kernel: Kernel, disk: Disk, driver: ScsiDriver,
                 inodes: InodeTable, allocator: BlockAllocator,
                 fs, vfs: Vfs, syscalls: SyscallLayer,
                 user_profiler: Profiler, fs_profiler: Profiler,
                 driver_profiler: Profiler,
                 timer: Optional[TimerInterrupt], pipeline: Pipeline,
                 sampled: Optional[SampledProfiler] = None,
                 state_sampler: Optional[WaitStateSampler] = None):
        self.kernel = kernel
        self.engine = kernel.engine
        self.disk = disk
        self.driver = driver
        self.inodes = inodes
        self.allocator = allocator
        self.fs = fs
        self.vfs = vfs
        self.syscalls = syscalls
        self.user_profiler = user_profiler
        self.fs_profiler = fs_profiler
        self.driver_profiler = driver_profiler
        self.timer = timer
        self.sampled = sampled
        #: Wait-state sampler (armed when built with
        #: ``state_sample_interval``); None on measurement-only systems.
        self.state_sampler = state_sampler
        #: The machine-wide probe/event pipeline every instrumented
        #: layer emits through; one request-id space across layers.
        self.pipeline = pipeline
        self.tree = TreeBuilder(inodes, allocator)
        self._root: Optional[Inode] = None
        #: The /proc reporting interface of Section 4: each profiling
        #: layer is readable at /proc/osprof/<layer>, and writing
        #: "reset" clears it between workload phases.
        self.procfs = ProcFs()
        self.procfs.register("user", user_profiler)
        self.procfs.register("fs", fs_profiler)
        self.procfs.register("driver", driver_profiler)

    # -- construction -----------------------------------------------------------

    @classmethod
    def build(cls, fs_type: str = "ext2", num_cpus: int = 1,
              kernel_preemption: bool = False,
              quantum: float = DEFAULT_QUANTUM,
              patched_llseek: bool = False,
              seed: int = 2006,
              instrumentation: str = "full",
              pagecache_pages: int = 65_536,
              with_timer: bool = True,
              sample_interval: Optional[float] = None,
              state_sample_interval: Optional[float] = None,
              spec: Optional[BucketSpec] = None,
              device: Optional[DeviceModel] = None,
              fs_factory=None) -> "System":
        """Assemble a machine; see class docstring for the layout.

        ``fs_type`` is ``"ext2"``, ``"ext3"``, ``"reiserfs"``, or ``"ntfs"``.  ``instrumentation``
        selects the Section 5.2 overhead variant for both the syscall
        and the FS layer (``off``/``empty``/``tsc_only``/``full``).
        ``sample_interval`` (cycles), when given, additionally attaches
        a :class:`SampledProfiler` at the FS layer for Figure 9-style
        3-D profiles.  ``state_sample_interval`` (cycles) arms a
        :class:`~repro.sampling.WaitStateSampler` that periodically
        captures every process's (state, layer, op, wait_site) — the
        sampled view is read back via ``system.state_sampler.profile()``
        and never perturbs the measured profiles.  ``device`` mounts a
        non-default device model (SSD, RAID-0, throttled...) behind the
        same driver.  Scenario names resolve to devices one level up, in
        :func:`repro.scenarios.build_system`.

        Every profiled layer gets exactly one probe, wired here on the
        machine-wide pipeline in driver, fs, user order; the layers
        themselves take nothing but that probe.
        """
        rng = SimRandom(seed)
        kernel = Kernel(num_cpus=num_cpus, quantum=quantum,
                        kernel_preemption=kernel_preemption, rng=rng)
        # One pipeline spans the machine: every layer's probe shares its
        # request-id space and drains through the same batch buffers.
        pipeline = Pipeline(num_cpus=num_cpus)
        disk = Disk(kernel, model=device)
        driver_profiler = Profiler(name="driver", layer=Layer.DRIVER,
                                   clock=lambda: kernel.engine.now,
                                   spec=spec)
        driver = ScsiDriver(kernel, disk, wire_probe(
            pipeline, Layer.DRIVER, profiler=driver_profiler,
            name="driver"))
        inodes = InodeTable(kernel)
        allocator = BlockAllocator(disk.geometry,
                                   rng.fork("alloc"))
        if fs_factory is not None:
            fs = fs_factory(kernel, driver, inodes, allocator)
        elif fs_type == "ext2":
            fs = Ext2(kernel, driver, inodes, allocator,
                      patched_llseek=patched_llseek)
        elif fs_type == "reiserfs":
            fs = Reiserfs(kernel, driver, inodes, allocator,
                          patched_llseek=patched_llseek)
        elif fs_type == "ext3":
            fs = Ext3(kernel, driver, inodes, allocator,
                      patched_llseek=patched_llseek)
        elif fs_type == "ntfs":
            fs = Ntfs(kernel, driver, inodes, allocator)
        else:
            raise ValueError(f"unknown fs_type {fs_type!r}")

        fs_profiler = Profiler(name="fs", layer=Layer.FILESYSTEM,
                               clock=lambda: kernel.engine.now, spec=spec)
        sampled = None
        if sample_interval is not None:
            sampled = SampledProfiler(clock=lambda: kernel.engine.now,
                                      interval=sample_interval,
                                      name="fs-sampled", spec=spec)
        fsprof = FsInstrument(kernel, wire_probe(
            pipeline, Layer.FILESYSTEM, profiler=fs_profiler,
            sampled=sampled, name="fs"), variant=instrumentation)
        pagecache = PageCache(kernel, capacity_pages=pagecache_pages)
        pagecache.attach_disk(disk)
        vfs = Vfs(kernel, fs, pagecache=pagecache, fsprof=fsprof)

        user_profiler = Profiler(name="user", layer=Layer.USER,
                                 clock=lambda: kernel.engine.now,
                                 spec=spec)
        syscalls = SyscallLayer(kernel, wire_probe(
            pipeline, Layer.USER, profiler=user_profiler, name="syscall"),
            instrumentation=instrumentation)
        timer = None
        if with_timer:
            timer = TimerInterrupt(kernel)
            timer.start()
        state_sampler = None
        if state_sample_interval is not None:
            state_sampler = WaitStateSampler(kernel,
                                             interval=state_sample_interval)
            state_sampler.start()
        return cls(kernel, disk, driver, inodes, allocator, fs, vfs,
                   syscalls, user_profiler, fs_profiler, driver_profiler,
                   timer, pipeline, sampled=sampled,
                   state_sampler=state_sampler)

    # -- file tree helpers ---------------------------------------------------------

    @property
    def root(self) -> Inode:
        """The root directory inode (created on first use)."""
        if self._root is None:
            self._root = self.tree.make_root()
            self.fs.root = self._root
        return self._root

    def walker(self) -> PathWalker:
        return PathWalker(self.kernel, self.inodes, self.root)

    # -- running --------------------------------------------------------------------

    def run(self, procs: Optional[Sequence[Process]] = None,
            until: Optional[float] = None) -> None:
        """Run to completion of *procs* (or until a time bound)."""
        if procs is not None:
            self.kernel.run_until_done(procs)
        else:
            self.kernel.run(until=until)

    def shutdown(self) -> None:
        """Close any still-running workload processes (after run(until=...))."""
        self.kernel.shutdown()

    # -- results ----------------------------------------------------------------------

    def user_profiles(self) -> ProfileSet:
        return self.user_profiler.profile_set()

    def fs_profiles(self) -> ProfileSet:
        return self.fs_profiler.profile_set()

    def driver_profiles(self) -> ProfileSet:
        return self.driver_profiler.profile_set()

    def state_profile(self):
        """The sampled wait-state profile, or None without a sampler."""
        if self.state_sampler is None:
            return None
        return self.state_sampler.profile()

    def elapsed_seconds(self) -> float:
        return self.kernel.now / 1.7e9
