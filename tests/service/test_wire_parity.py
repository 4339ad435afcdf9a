"""Every frame type, answered the same way by the root and by a relay.

One table drives the whole wire surface: each row is a request frame
(every :class:`FrameType` code, plus one code the protocol does not
define) and the exact reply the root service and a leaf relay give it —
reply type and reply text, byte for byte.  The rows run in order on one
server per service, so the stateful rows (pushes, then snapshots) see
what the earlier rows left behind.

A second test feeds malformed ``ALERTS`` bodies: each must be judged
like unparseable JSON (the connection closes without a reply), never
escape as an exception into the event loop, and never stop the server
from answering the next connection.
"""

import json
import socket

import pytest

from repro.core.profileset import ProfileSet
from repro.sampling import StateProfile
from repro.service.aio_server import AsyncProfileServer
from repro.service.protocol import (FrameType, encode_push_seq,
                                    encode_state_push, recv_frame,
                                    send_frame)
from repro.service.relay import RelayServer, RelayService
from repro.service.server import ProfileService, ServiceConfig


def profile(seed):
    return ProfileSet.from_operation_latencies(
        {"read": [100 + seed * 13 + i * 7 for i in range(20)],
         "write": [4000 + seed * 5 + i * 11 for i in range(10)]})


def state_profile():
    out = StateProfile(name="state-samples", interval=500.0)
    out.intervals = 2
    out.add("blocked", "filesystem", "llseek", "sem:i_sem:3", 30)
    out.add("running", "user", "-", "-", 4)
    return out


PUSHED = [profile(1), profile(2)]
#: The canonical merge both services hold after the two accepted pushes
#: (clients ``c0`` and ``c1``).
MERGED = ProfileSet.merged(PUSHED).to_bytes()
STATE = state_profile().to_bytes()
STATE_MERGED = StateProfile.merged([state_profile()],
                                   name="state-window").to_bytes()


NOT_A_PROFILE = b"not a binary osprof profile: magic b'not a pr'"


def unsupported(name):
    return (FrameType.ERROR, f"unsupported frame type {name}".encode())


#: (row id, request type, request payload, root reply, relay reply).
#: A reply is ``(type, payload)``; a payload of ``None`` means only the
#: type is pinned (the metrics page carries timings).
ROWS = [
    ("PUSH", FrameType.PUSH, PUSHED[0].to_bytes(),
     unsupported("PUSH"), unsupported("PUSH")),
    ("PUSH_SEQ-c0", FrameType.PUSH_SEQ,
     encode_push_seq("c0", 1, PUSHED[0].to_bytes()),
     (FrameType.OK, b"merged 30 ops over 2 operations (seq 1)"),
     (FrameType.OK, b"relayed 30 ops over 2 operations (seq 1)")),
    ("PUSH_SEQ", FrameType.PUSH_SEQ,
     encode_push_seq("c1", 1, PUSHED[1].to_bytes()),
     (FrameType.OK, b"merged 30 ops over 2 operations (seq 1)"),
     (FrameType.OK, b"relayed 30 ops over 2 operations (seq 1)")),
    ("PUSH_SEQ-replay", FrameType.PUSH_SEQ,
     encode_push_seq("c1", 1, PUSHED[1].to_bytes()),
     (FrameType.OK, b"duplicate of push seq 1; already merged"),
     (FrameType.OK, b"duplicate of push seq 1; already relayed")),
    ("PUSH_SEQ-corrupt", FrameType.PUSH_SEQ,
     encode_push_seq("c1", 2, b"not a profile"),
     (FrameType.ERROR, b"bad-payload: " + NOT_A_PROFILE),
     (FrameType.ERROR, b"bad-payload: " + NOT_A_PROFILE)),
    ("PUSH-corrupt", FrameType.PUSH, b"not a profile",
     unsupported("PUSH"), unsupported("PUSH")),
    ("SNAPSHOT", FrameType.SNAPSHOT, b"",
     (FrameType.PROFILE, MERGED), (FrameType.PROFILE, MERGED)),
    ("ALERTS", FrameType.ALERTS, json.dumps({"cursor": 0}).encode(),
     (FrameType.ALERT_LOG, b'{"alerts": [], "cursor": 0}'),
     (FrameType.ALERT_LOG, b'{"alerts": [], "cursor": 0}')),
    ("ALERTS-empty", FrameType.ALERTS, b"",
     (FrameType.ALERT_LOG, b'{"alerts": [], "cursor": 0}'),
     (FrameType.ALERT_LOG, b'{"alerts": [], "cursor": 0}')),
    ("SQL", FrameType.SQL, json.dumps({"sql": "SELECT op"}).encode(),
     (FrameType.ERROR, b"sql queries need a warehouse: start the server "
                       b"with --db DIR"),
     unsupported("SQL")),
    ("STATE_PUSH", FrameType.STATE_PUSH, encode_state_push(7, STATE),
     (FrameType.OK, b"sampled 34 samples over 2 interval(s)"),
     unsupported("STATE_PUSH")),
    ("STATE_SNAPSHOT", FrameType.STATE_SNAPSHOT, b"",
     (FrameType.STATE_PROFILE, STATE_MERGED),
     unsupported("STATE_SNAPSHOT")),
    ("METRICS", FrameType.METRICS, b"",
     (FrameType.TEXT, None), (FrameType.TEXT, None)),
    ("OK", FrameType.OK, b"", unsupported("OK"), unsupported("OK")),
    ("ERROR", FrameType.ERROR, b"",
     unsupported("ERROR"), unsupported("ERROR")),
    ("TEXT", FrameType.TEXT, b"", unsupported("TEXT"), unsupported("TEXT")),
    ("PROFILE", FrameType.PROFILE, b"",
     unsupported("PROFILE"), unsupported("PROFILE")),
    ("ALERT_LOG", FrameType.ALERT_LOG, b"",
     unsupported("ALERT_LOG"), unsupported("ALERT_LOG")),
    ("RETRY_AFTER", FrameType.RETRY_AFTER, b"",
     unsupported("RETRY_AFTER"), unsupported("RETRY_AFTER")),
    ("TABLE", FrameType.TABLE, b"",
     unsupported("TABLE"), unsupported("TABLE")),
    ("STATE_PROFILE", FrameType.STATE_PROFILE, b"",
     unsupported("STATE_PROFILE"), unsupported("STATE_PROFILE")),
    ("unknown", 0x5A, b"", unsupported("0x5a"), unsupported("0x5a")),
]


def test_rows_cover_every_frame_type():
    codes = {row[1] for row in ROWS}
    assert set(FrameType._NAMES) <= codes
    assert codes - set(FrameType._NAMES) == {0x5A}


def start(kind, tmp_path):
    config = ServiceConfig(segment_seconds=3600.0)
    if kind == "root":
        server = AsyncProfileServer(ProfileService(config))
    else:
        # No forwarder: the upstream is never dialled.
        relay = RelayService(tmp_path / "leaf", upstream=("127.0.0.1", 9),
                             config=config, sleep=lambda s: None)
        server = RelayServer(relay, flush_interval=None)
    server.serve_in_thread()
    return server


def exchange(address, ftype, payload):
    with socket.create_connection(address, timeout=10) as sock:
        send_frame(sock, ftype, payload)
        return recv_frame(sock)


@pytest.mark.parametrize("kind", ["root", "relay"])
def test_every_frame_type_gets_its_pinned_reply(kind, tmp_path):
    server = start(kind, tmp_path)
    try:
        for row_id, ftype, payload, root_reply, relay_reply in ROWS:
            want_type, want_payload = \
                root_reply if kind == "root" else relay_reply
            frame = exchange(server.address, ftype, payload)
            assert frame is not None, row_id
            got_type, got_payload = frame
            assert FrameType.name(got_type) == FrameType.name(want_type), \
                (row_id, got_payload)
            if want_payload is not None:
                assert got_payload == want_payload, row_id
        page = exchange(server.address, FrameType.METRICS, b"")[1].decode()
        first = "# OSprof continuous profiling service" if kind == "root" \
            else "# OSprof profile relay"
        assert page.startswith(first + "\n")
        assert [line.split()[0] for line in page.splitlines()[-3:]] == [
            "osprof_aio_connections_active", "osprof_aio_connections_total",
            "osprof_aio_parser_buffered_max"]
    finally:
        server.server_close()


@pytest.mark.parametrize("kind", ["root", "relay"])
def test_malformed_alerts_body_closes_quietly(kind, tmp_path):
    server = start(kind, tmp_path)
    escaped = []
    server._loop.call_soon_threadsafe(
        server._loop.set_exception_handler,
        lambda loop, context: escaped.append(context))
    try:
        for body in (b"[1]", b'{"cursor": null}', b'{"cursor": [1]}',
                     b'"cursor"', b"not json"):
            assert exchange(server.address, FrameType.ALERTS, body) is None
        # The server still answers a fresh connection.
        assert exchange(server.address, FrameType.ALERTS, b"") == \
            (FrameType.ALERT_LOG, b'{"alerts": [], "cursor": 0}')
        assert server.drain(timeout=5.0)
    finally:
        server.server_close()
    assert escaped == []
