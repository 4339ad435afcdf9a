"""Tests for VFS dispatch, File objects, and FS instrumentation."""

import pytest

from repro.core.pipeline import Pipeline, wire_probe
from repro.core.profile import Layer
from repro.core.profiler import Profiler
from repro.sim.process import CpuBurst
from repro.sim.scheduler import Kernel
from repro.sim.syscalls import VARIANTS
from repro.vfs.file import File, O_DIRECT
from repro.vfs.inode import InodeTable, S_IFREG
from repro.vfs.instrument import FsInstrument
from repro.vfs.vfs import FileSystem, Vfs


@pytest.fixture
def kernel():
    return Kernel(num_cpus=1, tsc_skew_seconds=0.0)


class EchoFs(FileSystem):
    """Minimal FS: every operation burns a fixed cost and returns."""

    name = "echo"

    def __init__(self, kernel, cost=1000):
        super().__init__()
        self.kernel = kernel
        self.cost = cost
        self.calls = []

    def file_read(self, proc, file, size):
        self.calls.append(("read", size))
        yield CpuBurst(self.cost)
        return size

    def llseek(self, proc, file, offset, whence):
        self.calls.append(("llseek", offset))
        yield CpuBurst(self.cost)
        file.pos = offset
        return offset

    def readdir(self, proc, file):
        self.calls.append(("readdir", file.pos))
        yield CpuBurst(self.cost)
        return []

    def fsync(self, proc, file):
        self.calls.append(("fsync", 0))
        yield CpuBurst(self.cost)
        return 0


class TestFile:
    def test_direct_flag(self, kernel):
        table = InodeTable(kernel)
        inode = table.allocate(S_IFREG)
        assert not File(inode).direct
        assert File(inode, flags=O_DIRECT).direct

    def test_require_open(self, kernel):
        table = InodeTable(kernel)
        f = File(table.allocate(S_IFREG))
        f.require_open()
        f.closed = True
        with pytest.raises(ValueError):
            f.require_open()


class TestVfsDispatch:
    def make_vfs(self, kernel, variant="full"):
        profiler = Profiler(name="fs", clock=lambda: kernel.engine.now)
        probe = wire_probe(Pipeline(num_cpus=len(kernel.cpus)),
                           Layer.FILESYSTEM, profiler=profiler, name="fs")
        fsprof = FsInstrument(kernel, probe, variant=variant)
        fs = EchoFs(kernel)
        vfs = Vfs(kernel, fs, fsprof=fsprof)
        return vfs, fs, profiler

    def test_operations_reach_fs(self, kernel):
        vfs, fs, _ = self.make_vfs(kernel)
        table = InodeTable(kernel)
        f = File(table.allocate(S_IFREG))

        def body(proc):
            n = yield from vfs.read(proc, f, 100)
            yield from vfs.llseek(proc, f, 5)
            yield from vfs.readdir(proc, f)
            yield from vfs.fsync(proc, f)
            yield from vfs.close(proc, f)
            return n

        p = kernel.spawn(body, "p")
        kernel.run_until_done([p])
        assert p.exit_value == 100
        assert [c[0] for c in fs.calls] == ["read", "llseek",
                                            "readdir", "fsync"]
        assert f.closed

    def test_each_operation_profiled_at_fs_level(self, kernel):
        vfs, _, profiler = self.make_vfs(kernel)
        table = InodeTable(kernel)
        f = File(table.allocate(S_IFREG))

        def body(proc):
            yield from vfs.read(proc, f, 100)
            yield from vfs.read(proc, f, 100)
            yield from vfs.llseek(proc, f, 0)

        p = kernel.spawn(body, "p")
        kernel.run_until_done([p])
        pset = profiler.profile_set()
        assert pset["read"].total_ops == 2
        assert pset["llseek"].total_ops == 1
        assert not pset.verify_checksums()

    def test_closed_file_rejected_at_vfs(self, kernel):
        vfs, _, _ = self.make_vfs(kernel)
        table = InodeTable(kernel)
        f = File(table.allocate(S_IFREG))
        f.closed = True

        def body(proc):
            yield from vfs.read(proc, f, 10)

        kernel.spawn(body, "p")
        with pytest.raises(ValueError):
            kernel.run(max_events=200)

    def test_instrument_off_records_nothing(self, kernel):
        vfs, _, profiler = self.make_vfs(kernel, variant="off")
        table = InodeTable(kernel)
        f = File(table.allocate(S_IFREG))

        def body(proc):
            yield from vfs.read(proc, f, 10)

        p = kernel.spawn(body, "p")
        kernel.run_until_done([p])
        assert profiler.profile_set().total_ops() == 0

    def test_instrumentation_overhead_ordering(self, kernel):
        times = {}
        for variant in VARIANTS:
            k = Kernel(num_cpus=1, tsc_skew_seconds=0.0)
            vfs, _, _ = self.make_vfs(k)
            vfs.fsprof.variant = variant
            table = InodeTable(k)
            f = File(table.allocate(S_IFREG))

            def body(proc):
                for _ in range(100):
                    yield from vfs.read(proc, f, 10)

            p = k.spawn(body, "p")
            k.run_until_done([p])
            times[variant] = p.cpu_time
        assert times["off"] < times["full"]
        assert times["empty"] < times["full"]

    def test_default_fsprof_is_off(self, kernel):
        fs = EchoFs(kernel)
        vfs = Vfs(kernel, fs)
        assert vfs.fsprof.variant == "off"
        assert not vfs.fsprof.probe_point.active
        assert vfs.fsprof.probe_point.sinks == ()

    def test_fs_bound_to_vfs(self, kernel):
        fs = EchoFs(kernel)
        vfs = Vfs(kernel, fs)
        assert fs.vfs is vfs


class TestFileSystemBase:
    def test_base_operations_unimplemented(self, kernel):
        fs = FileSystem()
        with pytest.raises(NotImplementedError):
            next(fs.file_read(None, None, 0))
        with pytest.raises(NotImplementedError):
            next(fs.readdir(None, None))

    def test_write_super_default_noop(self, kernel):
        fs = FileSystem()

        def body(proc):
            result = yield from fs.write_super(proc)
            return result

        k = kernel
        p = k.spawn(body, "p")
        k.run_until_done([p])
        assert p.exit_value is None
