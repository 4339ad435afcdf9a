"""The event-loop transport honors every contract the threaded one does.

Same wire protocol (the unmodified blocking :class:`ServiceClient`
talks to it), same canonical merge results, same hardening: oversize
frames judged from the header, idle peers timed out, saturated ingest
slots answered with ``RETRY_AFTER``, graceful drain losing nothing that
was acked — plus the invariant the threaded server never needed:
per-connection buffering stays bounded no matter how hard a client
pipelines.
"""

import socket
import struct
import threading
import time

import pytest

from repro.core.profileset import ProfileSet
from repro.service.aio_server import READ_CHUNK, AsyncProfileServer
from repro.service.client import (RetryAfter, ServiceClient, ServiceError,
                                  parse_endpoint)
from repro.service.protocol import (MAGIC, FrameType, encode_push_seq,
                                    recv_frame, send_frame, _HEADER)
from repro.service.server import ProfileService, ServiceConfig


def pset(seed=0, ops=20):
    return ProfileSet.from_operation_latencies(
        {"read": [100 + seed * 13 + i * 7 for i in range(ops)],
         "write": [4000 + seed * 5 + i * 11 for i in range(ops // 2)]})


def make_server(**config_kwargs):
    config_kwargs.setdefault("segment_seconds", 3600.0)
    service = ProfileService(config=ServiceConfig(**config_kwargs))
    server = AsyncProfileServer(service)
    server.serve_in_thread()
    return service, server


class TestWireParity:
    """The blocking clients speak to the event loop unchanged."""

    def test_push_metrics_snapshot_roundtrip(self):
        service, server = make_server()
        try:
            host, port = server.address
            sent = [pset(i) for i in range(4)]
            with ServiceClient(host, port) as client:
                for seq, ps in enumerate(sent, 1):
                    status = client.push_sequenced("c1", seq, ps.to_bytes())
                    assert "merged" in status
                page = client.metrics()
                assert "osprof_ingest_requests_total 4" in page
                assert "osprof_aio_connections_total" in page
                snap = client.snapshot()
            assert snap.to_bytes() == ProfileSet.merged(sent).to_bytes()
        finally:
            server.server_close()

    def test_sequenced_push_deduplicates(self):
        service, server = make_server()
        try:
            host, port = server.address
            ps = pset(7)
            with ServiceClient(host, port) as client:
                first = client.push_sequenced("c1", 1, ps.to_bytes())
                replay = client.push_sequenced("c1", 1, ps.to_bytes())
                assert "merged" in first
                assert "duplicate" in replay
                snap = client.snapshot()
            assert snap.to_bytes() == ProfileSet.merged([ps]).to_bytes()
        finally:
            server.server_close()

    def test_corrupt_push_gets_error_and_connection_survives(self):
        service, server = make_server()
        try:
            host, port = server.address
            with ServiceClient(host, port) as client:
                with pytest.raises(ServiceError):
                    client.push_sequenced("c1", 1, b"this is not a profile")
                # Same connection still works afterwards.
                assert "merged" in client.push_sequenced(
                    "c1", 2, pset().to_bytes())
        finally:
            server.server_close()

    def test_alerts_roundtrip(self):
        service, server = make_server()
        try:
            host, port = server.address
            with ServiceClient(host, port) as client:
                cursor, alerts = client.alerts(0)
                assert alerts == []
        finally:
            server.server_close()

    def test_parse_endpoint_helper(self):
        assert parse_endpoint("127.0.0.1:7461") == ("127.0.0.1", 7461)


class TestHardening:
    """Oversize guard, read timeout, protocol desync — all preserved."""

    def test_oversize_frame_rejected_from_header(self):
        service, server = make_server(max_frame_bytes=1024)
        try:
            host, port = server.address
            sock = socket.create_connection((host, port), timeout=5.0)
            try:
                # Header alone declares 1 MiB: no payload ever sent.
                sock.sendall(struct.pack("<4sBI", MAGIC, FrameType.PUSH_SEQ,
                                         1 << 20))
                frame = recv_frame(sock)
                assert frame is not None
                ftype, payload = frame
                assert ftype == FrameType.ERROR
                assert b"exceeds" in payload
                assert recv_frame(sock) is None  # server closed
            finally:
                sock.close()
            assert service.frames_oversize == 1
        finally:
            server.server_close()

    def test_bad_magic_drops_connection(self):
        service, server = make_server()
        try:
            host, port = server.address
            sock = socket.create_connection((host, port), timeout=5.0)
            try:
                sock.sendall(b"JUNK" + b"\x01\x00\x00\x00\x00")
                assert recv_frame(sock) is None
            finally:
                sock.close()
        finally:
            server.server_close()

    def test_idle_connection_times_out(self):
        service, server = make_server(read_timeout=0.2)
        try:
            host, port = server.address
            sock = socket.create_connection((host, port), timeout=5.0)
            try:
                assert recv_frame(sock) is None  # dropped, not served
            finally:
                sock.close()
            deadline = time.time() + 5.0
            while service.read_timeouts == 0 and time.time() < deadline:
                time.sleep(0.01)
            assert service.read_timeouts == 1
        finally:
            server.server_close()

    def test_unsupported_frame_type_answers_error(self):
        service, server = make_server()
        try:
            host, port = server.address
            sock = socket.create_connection((host, port), timeout=5.0)
            try:
                send_frame(sock, 0x7F, b"")
                frame = recv_frame(sock)
                assert frame is not None and frame[0] == FrameType.ERROR
            finally:
                sock.close()
        finally:
            server.server_close()


class TestBackpressure:
    """Saturated ingest slots shed load with RETRY_AFTER, identically."""

    def test_saturated_slots_answer_retry_after(self):
        service, server = make_server(max_pending=2,
                                      retry_after_seconds=0.07)
        try:
            host, port = server.address
            # Occupy every slot out-of-band: the transport and this
            # test share the service's one gate.
            assert service.try_acquire_ingest_slot()
            assert service.try_acquire_ingest_slot()
            try:
                with ServiceClient(host, port) as client:
                    with pytest.raises(RetryAfter) as exc_info:
                        client.push_sequenced("c1", 1, pset().to_bytes())
                    assert exc_info.value.seconds == pytest.approx(0.07)
            finally:
                service.release_ingest_slot()
                service.release_ingest_slot()
            assert service.backpressure_rejections == 1
            # Slots freed: the same wire accepts pushes again.
            with ServiceClient(host, port) as client:
                assert "merged" in client.push_sequenced(
                    "c1", 1, pset().to_bytes())
        finally:
            server.server_close()


class TestBoundedMemory:
    """Pipelining cannot grow an unbounded pending-frame queue."""

    def test_pipelined_burst_all_answered_in_order(self):
        service, server = make_server()
        try:
            host, port = server.address
            profile = pset(3, ops=10).to_bytes()
            count = 64
            payloads = [encode_push_seq("c1", seq, profile)
                        for seq in range(1, count + 1)]
            payload = payloads[0]  # every one is the same length
            burst = b"".join(_HEADER.pack(MAGIC, FrameType.PUSH_SEQ,
                                          len(body)) + body
                             for body in payloads)
            sock = socket.create_connection((host, port), timeout=10.0)
            try:
                sock.sendall(burst)  # one burst, no reads between
                for _ in range(count):
                    reply = recv_frame(sock)
                    assert reply is not None and reply[0] == FrameType.OK
            finally:
                sock.close()
            assert service.ingest_requests == count
            # The invariant: every already-buffered frame is dispatched
            # before the next read, so the parser never holds more than
            # one read chunk plus one partial frame.
            assert server.max_parser_buffered <= READ_CHUNK \
                + _HEADER.size + len(payload)
        finally:
            server.server_close()


class TestDrain:
    """Graceful drain: acked pushes are merged, listeners go quiet."""

    def test_drain_loses_no_acked_push(self):
        service, server = make_server(max_pending=32)
        host, port = server.address
        acked_ops = []
        sent_ops = []
        stop = threading.Event()

        def pusher(seed):
            client = ServiceClient(host, port)
            k = 0
            try:
                while not stop.is_set():
                    ps = pset(seed * 1000 + k, ops=8)
                    sent_ops.append(ps.total_ops())
                    try:
                        client.push_sequenced(f"c{seed}", k + 1,
                                              ps.to_bytes())
                    except Exception:
                        return  # drain cut us off mid-request
                    acked_ops.append(ps.total_ops())
                    k += 1
            finally:
                client.close()

        threads = [threading.Thread(target=pusher, args=(i,))
                   for i in range(4)]
        for thread in threads:
            thread.start()
        time.sleep(0.3)
        stop.set()
        assert server.drain(timeout=5.0)
        for thread in threads:
            thread.join(timeout=5.0)
        merged = service.snapshot().total_ops()
        # Every acked push is merged; unacked ones may or may not be.
        assert merged >= sum(acked_ops) > 0
        assert merged <= sum(sent_ops)
        # The listener is closed: new connections are refused.
        with pytest.raises(OSError):
            socket.create_connection((host, port), timeout=1.0).close()
        server.server_close()

    def test_drain_cancels_idle_stragglers(self):
        service, server = make_server(read_timeout=60.0)
        host, port = server.address
        # An idle watcher parked on a read, holding a connection open.
        sock = socket.create_connection((host, port), timeout=5.0)
        deadline = time.time() + 5.0
        while server.active_connections == 0 and time.time() < deadline:
            time.sleep(0.01)
        assert not server.drain(timeout=0.3)  # straggler was cancelled
        assert server.active_connections == 0
        sock.close()
        server.server_close()

    def test_server_close_is_idempotent(self):
        service, server = make_server()
        server.server_close()
        server.server_close()
