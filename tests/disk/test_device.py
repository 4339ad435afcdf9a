"""Tests for the disk device: queueing, timing, completions."""

import pytest

from repro.disk.device import Disk
from repro.disk.geometry import DiskGeometry
from repro.disk.model import SpindleModel
from repro.sim.scheduler import Kernel


def make_disk(**kwargs):
    k = Kernel(num_cpus=1, tsc_skew_seconds=0.0)
    disk = Disk(k, **kwargs)
    return k, disk


class TestSubmission:
    def test_synchronous_read_completes(self):
        k, disk = make_disk()

        def body(proc):
            request = yield from disk.read(100)
            return request

        p = k.spawn(body, "p")
        k.run_until_done([p])
        request = p.exit_value
        assert request.completed_at > request.submitted_at
        assert disk.reads == 1

    def test_fire_and_forget_write(self):
        k, disk = make_disk()
        request = disk.submit(50, is_write=True)
        k.run(max_events=100)
        assert request.completed_at > 0
        assert disk.writes == 1

    def test_invalid_block_rejected(self):
        k, disk = make_disk()
        with pytest.raises(ValueError):
            disk.submit(10**9)

    def test_wait_on_completed_request(self):
        k, disk = make_disk()
        request = disk.submit(10)
        k.run(max_events=100)

        def body(proc):
            r = yield from disk.wait(request)
            return r

        p = k.spawn(body, "p")
        k.run_until_done([p])
        assert p.exit_value is request


class TestServiceTiming:
    def test_cache_hit_much_faster_than_media(self):
        k, disk = make_disk()
        r1 = disk.submit(100)   # cold: media access
        k.run(max_events=100)
        r2 = disk.submit(101)   # same track: segment cache hit
        k.run(max_events=100)
        assert r2.cache_hit
        assert not r1.cache_hit
        assert (r2.completed_at - r2.started_at) < \
            (r1.completed_at - r1.started_at) / 3

    def test_writes_never_cache_hits(self):
        k, disk = make_disk()
        disk.submit(100)
        k.run(max_events=100)
        w = disk.submit(100, is_write=True)
        k.run(max_events=100)
        assert not w.cache_hit

    def test_seek_distance_raises_latency(self):
        k, disk = make_disk(model=SpindleModel(cache_segments=0))
        near = disk.submit(0)
        k.run(max_events=50)
        # Averages over rotational randomness.
        far_latencies = []
        near_latencies = []
        for i in range(12):
            r = disk.submit(disk.geometry.num_blocks - 1 - i)
            k.run(max_events=50)
            far_latencies.append(r.completed_at - r.started_at)
            r = disk.submit(disk.geometry.num_blocks - 20 - i)
            k.run(max_events=50)
            near_latencies.append(r.completed_at - r.started_at)
        # A full-stroke seek back and forth dominates; same-area reads
        # pay almost no seek.
        assert far_latencies[0] > near_latencies[-1]

    def test_busy_disk_queues_requests(self):
        k, disk = make_disk()
        requests = [disk.submit(i * 1000) for i in range(5)]
        assert disk.queue_depth() == 5
        k.run(max_events=1000)
        assert all(r.completed_at > 0 for r in requests)
        assert disk.requests_served == 5


class TestElevator:
    def test_elevator_picks_nearest_track(self):
        k, disk = make_disk(model=SpindleModel(elevator=True))
        # Busy with block 0; queue far and near.
        disk.submit(0)
        far = disk.submit(disk.geometry.num_blocks - 1)
        near = disk.submit(5)
        k.run(max_events=1000)
        assert near.completed_at < far.completed_at

    def test_fifo_order_without_elevator(self):
        k, disk = make_disk(model=SpindleModel(elevator=False))
        disk.submit(0)
        far = disk.submit(disk.geometry.num_blocks - 1)
        near = disk.submit(5)
        k.run(max_events=1000)
        assert far.completed_at < near.completed_at


class TestCompletionListeners:
    def test_listener_called_per_request(self):
        k, disk = make_disk()
        seen = []
        disk.on_complete.append(lambda r: seen.append(r.block))
        disk.submit(1)
        disk.submit(2)
        k.run(max_events=1000)
        assert sorted(seen) == [1, 2]

    def test_latency_property(self):
        k, disk = make_disk()
        r = disk.submit(10)
        k.run(max_events=100)
        assert r.latency == pytest.approx(
            r.completed_at - r.submitted_at)
