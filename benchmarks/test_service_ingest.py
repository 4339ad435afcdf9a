"""Performance of the continuous profiling service's ingest path.

The paper's profiles are "≈1 KB per operation" precisely so they are
cheap to ship and merge; these benches keep the service honest about
that budget: decode+merge cost of one pushed segment, end-to-end TCP
push round-trip throughput, rolling-store rotation, the online
differential scoring of a closed segment, and the event-loop transport
under a concurrent pusher fleet (throughput and p99 push latency).
"""

import itertools
import threading
import time

from repro.core.profileset import ProfileSet
from repro.service.aio_server import AsyncProfileServer
from repro.service.alerts import DifferentialAlerter
from repro.service.client import ServiceClient
from repro.service.server import ProfileService, ServiceConfig
from repro.service.store import SegmentStore


def realistic_segment(ops_per_profile: int = 1000,
                      operations: int = 12) -> ProfileSet:
    """A profile set shaped like one collector segment: ~12 ops, wide."""
    pset = ProfileSet(name="")
    for i in range(operations):
        name = f"op{i:02d}"
        for b in range(5, 30):
            pset.profile(name).histogram.add_to_bucket(
                b, (b * 37 + i * 11) % 97 + 1)
    return pset


def test_perf_ingest_decode_merge(benchmark):
    """Decode one binary segment payload and merge it into the store."""
    payload = realistic_segment().to_bytes()
    service = ProfileService(ServiceConfig(segment_seconds=3600.0,
                                           retention=16))

    result = benchmark(service.ingest_payload, payload)
    assert result.total_ops() > 0
    assert service.ingest_errors == 0


def test_perf_push_round_trip(benchmark):
    """Full TCP round trip: frame, send, decode, merge, ack."""
    server = AsyncProfileServer(ProfileService(
        ServiceConfig(segment_seconds=3600.0, retention=16)))
    server.serve_in_thread()
    host, port = server.address
    pset = realistic_segment()
    seqs = itertools.count(1)
    try:
        with ServiceClient(host, port) as client:
            status = benchmark(lambda: client.push_sequenced(
                "bench", next(seqs), pset.to_bytes()))
        assert "ops" in status
    finally:
        server.server_close()


def _drive_pushers(address, pushers, pushes_each, payload):
    """Concurrent pushers against one server; returns (wall, latencies)."""
    host, port = address
    latencies = [[] for _ in range(pushers)]
    barrier = threading.Barrier(pushers + 1)

    def pusher(slot):
        with ServiceClient(host, port) as client:
            barrier.wait()
            mine = latencies[slot]
            for seq in range(1, pushes_each + 1):
                t0 = time.perf_counter()
                client.push_sequenced(f"pusher-{slot}", seq, payload)
                mine.append(time.perf_counter() - t0)

    threads = [threading.Thread(target=pusher, args=(i,))
               for i in range(pushers)]
    for thread in threads:
        thread.start()
    barrier.wait()
    t0 = time.perf_counter()
    for thread in threads:
        thread.join()
    wall = time.perf_counter() - t0
    flat = sorted(lat for slot in latencies for lat in slot)
    p99 = flat[int(len(flat) * 0.99) - 1]
    return wall, p99


def test_perf_async_ingest_fleet(benchmark, artifacts):
    """The event loop under a concurrent pusher fleet.

    256 connections — the regime the event loop exists for — each push
    8 segments; throughput and p99 push latency land in the results
    artifact.  Every push must be acked and merged.
    """
    pushers, pushes_each = 256, 8
    payload = realistic_segment(operations=4).to_bytes()
    services = []

    def run():
        service = ProfileService(
            ServiceConfig(segment_seconds=3600.0, retention=16,
                          max_pending=pushers * 2))
        services.append(service)
        server = AsyncProfileServer(service)
        server.serve_in_thread()
        try:
            return _drive_pushers(server.address, pushers, pushes_each,
                                  payload)
        finally:
            server.server_close()

    run()  # warm the path once before timing
    wall, p99 = benchmark.pedantic(run, rounds=1, iterations=1)

    total = pushers * pushes_each
    assert services[-1].ingest_requests == total
    rate = total / wall
    artifacts.add(f"# service ingest: {pushers} concurrent pushers, "
                  f"{total} pushes of {len(payload)} B\n"
                  f"{'engine':<10} {'pushes/s':>10} {'p99 ms':>8}\n"
                  f"{'async':<10} {rate:>10.0f} {p99 * 1e3:>8.2f}")
    benchmark.extra_info["async_pushes_per_s"] = round(rate)
    benchmark.extra_info["p99_ms"] = round(p99 * 1e3, 3)


def test_perf_store_rotation(benchmark):
    """Close + open a segment (the per-interval housekeeping cost)."""
    clock_value = [0.0]
    store = SegmentStore(1.0, retention=256, clock=lambda: clock_value[0])
    pset = realistic_segment()

    def rotate():
        store.ingest(pset)
        clock_value[0] += 1.0
        store.advance()

    benchmark(rotate)
    assert store.segments_closed > 0


def test_perf_differential_scoring(benchmark):
    """Score one closed segment against the rolling baseline."""
    alerter = DifferentialAlerter(min_ops=10, threshold=0.5)
    baseline = realistic_segment()
    for i in range(4):
        alerter.observe(i, baseline)
    segment = realistic_segment(operations=12)

    def score():
        return alerter.observe(99, segment)

    alerts = benchmark(score)
    assert isinstance(alerts, list)
