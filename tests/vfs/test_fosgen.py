"""Tests for the FoSgen automatic instrumentation analogue."""

import pytest

from repro.core.pipeline import Pipeline, wire_probe
from repro.core.profile import Layer
from repro.core.profiler import Profiler
from repro.sim.process import CpuBurst
from repro.sim.scheduler import Kernel
from repro.vfs.file import File
from repro.vfs.fosgen import (OPERATION_VECTOR, discover_operations,
                              instrument_filesystem,
                              uninstrument_filesystem)
from repro.vfs.inode import InodeTable, S_IFREG
from repro.vfs.instrument import FsInstrument
from repro.vfs.vfs import FileSystem, Vfs


class TinyFs(FileSystem):
    """Implements a subset of the operation vector."""

    name = "tiny"

    def __init__(self, kernel):
        super().__init__()
        self.kernel = kernel

    def file_read(self, proc, file, size):
        yield CpuBurst(500)
        return size

    def llseek(self, proc, file, offset, whence):
        yield CpuBurst(100)
        file.pos = offset
        return offset


@pytest.fixture
def kernel():
    return Kernel(num_cpus=1, tsc_skew_seconds=0.0)


@pytest.fixture
def setup(kernel):
    fs = TinyFs(kernel)
    profiler = Profiler(name="fosgen", clock=lambda: kernel.engine.now)
    instrument = FsInstrument(kernel, wire_probe(
        Pipeline(num_cpus=len(kernel.cpus)), Layer.FILESYSTEM,
        profiler=profiler, name="fs"))
    vfs = Vfs(kernel, fs)  # uninstrumented dispatch
    return fs, instrument, profiler, vfs


class TestDiscovery:
    def test_finds_implemented_operations(self, setup):
        fs, _, _, _ = setup
        ops = discover_operations(fs)
        assert "file_read" in ops
        assert "llseek" in ops
        assert "readdir" not in ops  # inherited abstract stub

    def test_write_super_default_counts(self, setup):
        # write_super has a real (no-op) default the paper would wrap.
        fs, _, _, _ = setup
        assert "write_super" in discover_operations(fs)

    def test_ext2_implements_whole_vector(self, kernel):
        from repro.system import System
        system = System.build(with_timer=False)
        ops = discover_operations(system.fs)
        assert set(OPERATION_VECTOR) <= set(ops) | {"write_super"}


class TestInstrumentation:
    def run_ops(self, kernel, fs):
        table = InodeTable(kernel)
        f = File(table.allocate(S_IFREG))

        def body(proc):
            yield from fs.file_read(proc, f, 100)
            yield from fs.llseek(proc, f, 5, 0)

        p = kernel.spawn(body, "p")
        kernel.run_until_done([p])

    def test_wrapped_operations_are_profiled(self, kernel, setup):
        fs, instrument, profiler, _ = setup
        wrapped = instrument_filesystem(fs, instrument)
        assert "file_read" in wrapped and "llseek" in wrapped
        self.run_ops(kernel, fs)
        pset = profiler.profile_set()
        assert pset["file_read"].total_ops == 1
        assert pset["llseek"].total_ops == 1

    def test_idempotent(self, kernel, setup):
        fs, instrument, profiler, _ = setup
        instrument_filesystem(fs, instrument)
        again = instrument_filesystem(fs, instrument)
        assert again == []
        self.run_ops(kernel, fs)
        assert profiler.profile_set()["file_read"].total_ops == 1

    def test_results_unchanged_by_wrapping(self, kernel, setup):
        fs, instrument, _, _ = setup
        instrument_filesystem(fs, instrument)
        table = InodeTable(kernel)
        f = File(table.allocate(S_IFREG))

        def body(proc):
            n = yield from fs.file_read(proc, f, 123)
            return n

        p = kernel.spawn(body, "p")
        kernel.run_until_done([p])
        assert p.exit_value == 123

    def test_per_instance_instrumentation(self, kernel):
        # Two mounts of the same class: only one instrumented.
        fs_a = TinyFs(kernel)
        fs_b = TinyFs(kernel)
        profiler = Profiler(clock=lambda: kernel.engine.now)
        instrument = FsInstrument(kernel, wire_probe(
            Pipeline(num_cpus=len(kernel.cpus)), Layer.FILESYSTEM,
            profiler=profiler, name="fs"))
        instrument_filesystem(fs_a, instrument)
        table = InodeTable(kernel)
        f = File(table.allocate(S_IFREG))

        def body(proc):
            yield from fs_a.file_read(proc, f, 1)
            yield from fs_b.file_read(proc, f, 1)

        p = kernel.spawn(body, "p")
        kernel.run_until_done([p])
        assert profiler.profile_set()["file_read"].total_ops == 1

    def test_uninstrument_restores(self, kernel, setup):
        fs, instrument, profiler, _ = setup
        instrument_filesystem(fs, instrument)
        restored = uninstrument_filesystem(fs)
        assert "file_read" in restored
        self.run_ops(kernel, fs)
        assert profiler.profile_set().total_ops() == 0

    def test_uninstrument_without_instrumentation(self, setup):
        fs, _, _, _ = setup
        assert uninstrument_filesystem(fs) == []
