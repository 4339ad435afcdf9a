"""Failure injection: disk media errors and network packet loss.

The injected failures are exactly the kind of behaviour OSprof exists
to expose: transparent retries that only show up as latency.
"""

import pytest

from repro.disk.device import Disk
from repro.disk.model import SpindleModel
from repro.net.tcp import TcpConnection, TcpEndpoint
from repro.sim.engine import seconds
from repro.sim.scheduler import Kernel
from repro.system import System
from repro.workloads import build_source_tree, run_grep


class TestDiskErrors:
    def make_disk(self, error_rate, max_retries=3):
        k = Kernel(num_cpus=1, tsc_skew_seconds=0.0)
        return k, Disk(k, error_rate=error_rate,
                       max_retries=max_retries,
                       model=SpindleModel(cache_segments=0))

    def test_errors_retried_transparently(self):
        k, disk = self.make_disk(error_rate=0.3)
        requests = [disk.submit(i * 200) for i in range(50)]
        k.run(max_events=20_000)
        assert all(r.completed_at > 0 for r in requests)
        assert disk.media_errors > 0
        assert disk.retries_performed > 0
        assert not any(r.failed for r in requests)

    def test_retries_increase_latency(self):
        k_good, good = self.make_disk(error_rate=0.0)
        k_bad, bad = self.make_disk(error_rate=0.4)
        good_reqs = [good.submit(i * 300) for i in range(60)]
        bad_reqs = [bad.submit(i * 300) for i in range(60)]
        k_good.run(max_events=50_000)
        k_bad.run(max_events=50_000)
        mean_good = sum(r.latency for r in good_reqs) / len(good_reqs)
        mean_bad = sum(r.latency for r in bad_reqs) / len(bad_reqs)
        assert mean_bad > mean_good * 1.2

    def test_exhausted_retries_reported(self):
        k, disk = self.make_disk(error_rate=0.95, max_retries=1)
        requests = [disk.submit(i * 100) for i in range(30)]
        k.run(max_events=20_000)
        assert any(r.failed for r in requests)
        # Even failures complete (callers are woken, never stranded).
        assert all(r.completed_at > 0 for r in requests)

    def test_validation(self):
        k = Kernel(num_cpus=1, tsc_skew_seconds=0.0)
        with pytest.raises(ValueError):
            Disk(k, error_rate=1.0)
        with pytest.raises(ValueError):
            Disk(k, max_retries=-1)

    def test_retries_visible_in_driver_profile(self):
        # The whole point: a flaky disk shows up as a latency mode.
        system_good = System.build(with_timer=False, seed=5)
        system_bad = System.build(with_timer=False, seed=5)
        system_bad.disk.error_rate = 0.3
        for system in (system_good, system_bad):
            root, _ = build_source_tree(system, scale=0.01)
            run_grep(system, root)
        good = system_good.driver_profiles()["disk_read"]
        bad = system_bad.driver_profiles()["disk_read"]
        assert bad.mean_latency() > good.mean_latency()


class TestPacketLoss:
    def make_pair(self, loss_rate):
        k = Kernel(num_cpus=1, tsc_skew_seconds=0.0)
        a = TcpEndpoint("a", k, ack_immediately=True)
        b = TcpEndpoint("b", k, ack_immediately=True)
        conn = TcpConnection(k, a, b, loss_rate=loss_rate)
        return k, a, b, conn

    def test_lost_segments_retransmitted(self):
        k, a, b, conn = self.make_pair(loss_rate=0.4)
        received = []
        b.on_receive = lambda p: received.append(p.describe)
        for i in range(40):
            a.send(100, f"seg{i}")
        k.run(until=seconds(10.0))
        assert len(received) == 40
        assert conn.packets_lost > 0
        assert conn.retransmissions >= conn.packets_lost

    def test_retransmission_adds_rto_latency(self):
        k, a, b, conn = self.make_pair(loss_rate=0.0)
        times = []
        b.on_receive = lambda p: times.append(k.now)
        a.send(100, "clean")
        k.run(until=seconds(2.0))
        clean_latency = times[0]

        k2, a2, b2, conn2 = self.make_pair(loss_rate=0.9)
        times2 = []
        b2.on_receive = lambda p: times2.append(k2.now)
        a2.send(100, "lossy")
        k2.run(until=seconds(30.0))
        assert times2, "eventually delivered"
        assert times2[0] >= clean_latency + conn2.rto

    def test_acks_never_dropped(self):
        # Simplification: only data segments are subject to loss, so
        # the ACK clock always catches up.
        k, a, b, conn = self.make_pair(loss_rate=0.5)
        for i in range(20):
            a.send(100, f"seg{i}")
        k.run(until=seconds(20.0))
        assert a.peer_acked_through == 20

    def test_loss_validation(self):
        k = Kernel(num_cpus=1, tsc_skew_seconds=0.0)
        a = TcpEndpoint("a", k)
        b = TcpEndpoint("b", k)
        with pytest.raises(ValueError):
            TcpConnection(k, a, b, loss_rate=1.0)

    def test_cifs_survives_lossy_network(self):
        from repro.net.mount import build_cifs_mount

        mount = build_cifs_mount(scale=0.005, flavor="linux")
        mount.connection.loss_rate = 0.05
        result = run_grep(mount.client, mount.root)
        assert result.files == mount.tree.files
        assert mount.connection.retransmissions > 0
