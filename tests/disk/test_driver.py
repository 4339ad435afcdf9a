"""Tests for the instrumented SCSI driver layer."""

import pytest

from repro.core.pipeline import Pipeline, wire_probe
from repro.core.profile import Layer
from repro.core.profiler import Profiler
from repro.disk.device import Disk
from repro.disk.driver import ScsiDriver
from repro.sim.scheduler import Kernel


def make_driver():
    k = Kernel(num_cpus=1, tsc_skew_seconds=0.0)
    disk = Disk(k)
    profiler = Profiler(name="scsi", layer=Layer.DRIVER,
                        clock=lambda: k.now)
    probe = wire_probe(Pipeline(num_cpus=len(k.cpus)), Layer.DRIVER,
                       profiler=profiler, name="driver")
    return k, ScsiDriver(k, disk, probe), profiler


class TestDriverProfiling:
    def test_sync_read_profiled(self):
        k, driver, profiler = make_driver()

        def body(proc):
            yield from driver.read(123)

        p = k.spawn(body, "p")
        k.run_until_done([p])
        pset = profiler.profile_set()
        assert pset["disk_read"].total_ops == 1
        assert pset["disk_read"].total_latency > 0

    def test_async_write_profiled_at_completion(self):
        # The whole point of the driver layer (§4): writes return
        # immediately, yet their I/O time is still captured.
        k, driver, profiler = make_driver()
        driver.submit_write(55)
        assert profiler.profile_set().total_ops() == 0  # not yet complete
        k.run(max_events=100)
        pset = profiler.profile_set()
        assert pset["disk_write"].total_ops == 1

    def test_read_and_write_separate_operations(self):
        k, driver, profiler = make_driver()

        def body(proc):
            yield from driver.read(1)
            yield from driver.write(2)

        p = k.spawn(body, "p")
        k.run_until_done([p])
        pset = profiler.profile_set()
        assert pset["disk_read"].total_ops == 1
        assert pset["disk_write"].total_ops == 1

    def test_latency_includes_queueing(self):
        k, driver, profiler = make_driver()
        # Saturate the disk, then submit one more.
        for i in range(10):
            driver.submit_read(i * 500)
        last = driver.submit_read(5000)
        k.run(max_events=5000)
        pset = profiler.profile_set()
        assert pset["disk_read"].total_ops == 11
        # The queued request's recorded latency spans its queue wait.
        assert last.latency > (last.completed_at - last.started_at)

    def test_checksum_consistency(self):
        k, driver, profiler = make_driver()
        for i in range(20):
            driver.submit_read(i * 64)
        k.run(max_events=5000)
        assert not profiler.profile_set().verify_checksums()
