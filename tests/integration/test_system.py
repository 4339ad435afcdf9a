"""Tests for the System facade."""

import pytest

from repro.core.buckets import BucketSpec
from repro.core.profile import Layer
from repro.fs.ext2 import Ext2
from repro.fs.reiserfs import Reiserfs
from repro.sim.engine import seconds
from repro.system import System


class TestBuild:
    def test_defaults(self):
        s = System.build()
        assert isinstance(s.fs, Ext2)
        assert len(s.kernel.cpus) == 1
        assert s.timer is not None
        assert s.sampled is None

    def test_reiserfs(self):
        s = System.build(fs_type="reiserfs")
        assert isinstance(s.fs, Reiserfs)

    def test_unknown_fs_rejected(self):
        with pytest.raises(ValueError):
            System.build(fs_type="zfs")

    def test_custom_fs_factory(self):
        class MiniFs(Ext2):
            name = "mini"

        s = System.build(fs_factory=lambda k, d, i, a: MiniFs(k, d, i, a))
        assert s.fs.name == "mini"

    def test_sample_interval_attaches_sampler(self):
        s = System.build(sample_interval=seconds(2.5))
        assert s.sampled is not None

    def test_custom_bucket_resolution(self):
        s = System.build(spec=BucketSpec(2), with_timer=False)
        assert s.fs_profiler.profiles.spec.resolution == 2

    def test_no_timer(self):
        s = System.build(with_timer=False)
        assert s.timer is None

    def test_determinism_across_builds(self):
        from repro.workloads.postmark import PostmarkConfig, run_postmark

        def run():
            s = System.build(seed=77, with_timer=False)
            report = run_postmark(s, PostmarkConfig(files=10,
                                                    transactions=40))
            return (report.elapsed, report.system, s.kernel.now)

        assert run() == run()

    def test_seed_changes_results(self):
        from repro.workloads.postmark import PostmarkConfig, run_postmark

        def run(seed):
            s = System.build(seed=seed, with_timer=False)
            report = run_postmark(s, PostmarkConfig(files=10,
                                                    transactions=40))
            return s.kernel.now

        assert run(1) != run(2)


class TestFacadeHelpers:
    def test_root_created_once(self):
        s = System.build(with_timer=False)
        assert s.root is s.root
        assert s.fs.root is s.root

    def test_walker_resolves(self):
        s = System.build(with_timer=False)
        d = s.tree.mkdir(s.root, "etc")
        s.tree.mkfile(d, "hosts", 100)
        walker = s.walker()
        assert walker.exists("/etc/hosts")

    def test_elapsed_seconds(self):
        s = System.build(with_timer=False)
        s.kernel.engine.schedule(seconds(2.0), lambda: None)
        s.run(until=seconds(2.0))
        assert s.elapsed_seconds() == pytest.approx(2.0)

    def test_profile_accessors_distinct(self):
        s = System.build(with_timer=False)
        assert s.user_profiles() is not s.fs_profiles()
        assert s.driver_profiles() is s.driver_profiler.profile_set()
        # The driver's probe feeds the profiler System.build made.
        assert s.driver.probe_point.sinks[0].profiles \
            is s.driver_profiles()

    def test_one_probe_per_layer_on_the_machine_pipeline(self):
        s = System.build(with_timer=False)
        assert s.pipeline.probes() == [s.driver.probe_point,
                                       s.vfs.fsprof.probe_point,
                                       s.syscalls.probe_point]
        assert [p.layer for p in s.pipeline.probes()] == [
            Layer.DRIVER, Layer.FILESYSTEM, Layer.USER]

    def test_shutdown_passthrough(self):
        s = System.build(with_timer=False)

        def endless(proc):
            from repro.sim.process import CpuBurst
            while True:
                yield CpuBurst(100)

        p = s.kernel.spawn(endless, "e")
        s.run(until=10_000)
        s.shutdown()
        assert p.done


class TestProcFsIntegration:
    def test_layers_exposed(self):
        from repro.system import System

        s = System.build(with_timer=False)
        assert s.procfs.ls() == ["/proc/osprof/driver",
                                 "/proc/osprof/fs",
                                 "/proc/osprof/user"]

    def test_reset_between_phases(self):
        from repro.system import System
        from repro.workloads.microbench import zero_byte_read_body

        s = System.build(with_timer=False)
        inode = s.tree.mkfile(s.root, "empty", 0)

        def phase(iterations):
            p = s.kernel.spawn(
                lambda proc: zero_byte_read_body(s, proc, inode,
                                                 iterations), "zbr")
            s.run([p])

        phase(100)
        snap = s.procfs.snapshot("/proc/osprof/user")
        assert snap["read"].total_ops == 100
        s.procfs.write("/proc/osprof/user", "reset")
        phase(50)
        snap2 = s.procfs.snapshot("/proc/osprof/user")
        assert snap2["read"].total_ops == 50

    def test_disable_is_an_unknown_command(self):
        # Only "reset" is a command: the layers record through their
        # probes, so a per-profiler on/off switch could never take
        # effect and is not offered.
        s = System.build(with_timer=False)
        for layer in ("user", "fs", "driver"):
            with pytest.raises(ValueError, match="unknown command"):
                s.procfs.write(f"/proc/osprof/{layer}", "disable")
