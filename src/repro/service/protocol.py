"""Length-prefixed TCP framing for the continuous profiling service.

Profiles cross the wire in the checksummed binary codec
(:meth:`~repro.core.profileset.ProfileSet.to_bytes`), wrapped in a thin
frame so that a stream socket carries discrete messages.  The framing
follows the conventions of the simulated stack in :mod:`repro.net.tcp`:
fixed little-endian headers, explicit sizes, and no silent resync — a
malformed frame kills the connection rather than guessing where the
next message starts (the payload itself is already CRC-protected by the
codec, so the frame layer only needs lengths and types).

Frame layout::

    magic   4s   b"OSPS"
    type    u8   one of :class:`FrameType`
    length  u32  payload byte count
    payload length bytes

Conversations are strict request/response: a client sends
``PUSH_SEQ``, ``STATE_PUSH``, ``METRICS``, ``SNAPSHOT``,
``STATE_SNAPSHOT``, ``ALERTS`` or ``SQL`` and reads exactly one frame
back (``OK``/``TEXT``/``PROFILE``/``STATE_PROFILE``/``ALERT_LOG``/
``TABLE``, ``ERROR``
carrying a UTF-8 message, or ``RETRY_AFTER`` asking the client to back
off).  Multiple requests may reuse one connection.

``PUSH_SEQ`` is the one latency push: its payload prefixes the profile
bytes with a client identity and a monotonic sequence number
(:func:`encode_push_seq`), so a client that lost the reply can resend
the same sequence and the server deduplicates instead of double-merging.
Code ``0x01`` (``PUSH``, the retired unsequenced push) stays reserved
under its name: no service serves it, so it is answered
``unsupported frame type PUSH`` and the code is never reused.

A frame whose declared length exceeds the receiver's limit raises
:class:`FrameTooLarge` from the 9-byte header alone — the oversized
payload is never read, let alone allocated.
"""

from __future__ import annotations

import json
import socket
import struct
from typing import Optional, Tuple

__all__ = [
    "FrameType",
    "ProtocolError",
    "FrameTooLarge",
    "MAGIC",
    "MAX_PAYLOAD",
    "FrameParser",
    "send_frame",
    "recv_frame",
    "encode_json",
    "decode_json",
    "encode_push_seq",
    "decode_push_seq",
    "encode_retry_after",
    "decode_retry_after",
    "encode_state_push",
    "decode_state_push",
]

#: First four bytes of every frame.
MAGIC = b"OSPS"

#: Upper bound on one frame's payload; a complete profile set is ~1 KB
#: per operation, so even a year of segments merges far below this.
MAX_PAYLOAD = 64 << 20

_HEADER = struct.Struct("<4sBI")


class FrameType:
    """Wire frame types (u8).  Requests are client→server, the rest replies."""

    PUSH = 0x01       #: reserved: the retired unsequenced push
    OK = 0x02         #: reply: UTF-8 status text (may be empty)
    ERROR = 0x03      #: reply: UTF-8 error message
    METRICS = 0x04    #: request: empty payload
    TEXT = 0x05       #: reply: UTF-8 plaintext (the metrics page)
    SNAPSHOT = 0x06   #: request: empty payload
    PROFILE = 0x07    #: reply: merged rolling profile, binary codec
    ALERTS = 0x08     #: request: JSON ``{"cursor": n}``
    ALERT_LOG = 0x09  #: reply: JSON ``{"cursor": n, "alerts": [...]}``
    PUSH_SEQ = 0x0A   #: request: :func:`encode_push_seq` payload
    RETRY_AFTER = 0x0B  #: reply: f64 seconds the client should back off
    SQL = 0x0C        #: request: JSON ``{"sql": query}`` (needs ``--db``)
    TABLE = 0x0D      #: reply: JSON ``{"columns": [...], "rows": [...]}``
    STATE_PUSH = 0x0E      #: request: :func:`encode_state_push` payload
    STATE_SNAPSHOT = 0x0F  #: request: empty payload
    STATE_PROFILE = 0x10   #: reply: merged StateProfile, binary codec

    _NAMES = {
        0x01: "PUSH", 0x02: "OK", 0x03: "ERROR", 0x04: "METRICS",
        0x05: "TEXT", 0x06: "SNAPSHOT", 0x07: "PROFILE", 0x08: "ALERTS",
        0x09: "ALERT_LOG", 0x0A: "PUSH_SEQ", 0x0B: "RETRY_AFTER",
        0x0C: "SQL", 0x0D: "TABLE", 0x0E: "STATE_PUSH",
        0x0F: "STATE_SNAPSHOT", 0x10: "STATE_PROFILE",
    }

    @classmethod
    def name(cls, ftype: int) -> str:
        return cls._NAMES.get(ftype, f"0x{ftype:02x}")


class ProtocolError(ValueError):
    """The byte stream is not a valid frame sequence (desync: close it)."""


class FrameTooLarge(ProtocolError):
    """A frame's declared payload exceeds the receiver's size limit.

    Raised from the header alone, before any payload byte is read or
    buffered — the guard that keeps a hostile (or corrupt) length field
    from forcing a giant allocation.
    """


def send_frame(sock: socket.socket, ftype: int, payload: bytes = b"",
               max_payload: int = MAX_PAYLOAD) -> None:
    """Write one frame to a connected stream socket."""
    if len(payload) > max_payload:
        raise FrameTooLarge(
            f"frame payload of {len(payload)} bytes exceeds the "
            f"{max_payload}-byte limit")
    sock.sendall(_HEADER.pack(MAGIC, ftype, len(payload)) + payload)


def _recv_exact(sock: socket.socket, n: int) -> Optional[bytes]:
    """Read exactly *n* bytes; None on EOF before the first byte."""
    chunks = []
    remaining = n
    while remaining:
        chunk = sock.recv(min(remaining, 1 << 16))
        if not chunk:
            if remaining == n:
                return None
            raise ProtocolError(
                f"connection closed mid-frame: wanted {n} bytes, "
                f"got {n - remaining}")
        chunks.append(chunk)
        remaining -= len(chunk)
    return b"".join(chunks)


def recv_frame(sock: socket.socket,
               max_payload: int = MAX_PAYLOAD,
               ) -> Optional[Tuple[int, bytes]]:
    """Read one frame; ``None`` on a clean EOF at a frame boundary.

    Raises :class:`ProtocolError` on a bad magic or a connection that
    dies mid-frame, and :class:`FrameTooLarge` — from the header alone,
    before any payload is read — on a declared length over
    *max_payload*.
    """
    header = _recv_exact(sock, _HEADER.size)
    if header is None:
        return None
    magic, ftype, length = _HEADER.unpack(header)
    if magic != MAGIC:
        raise ProtocolError(f"bad frame magic {magic!r}")
    if length > max_payload:
        raise FrameTooLarge(
            f"declared payload of {length} bytes exceeds the "
            f"{max_payload}-byte limit")
    payload = _recv_exact(sock, length) if length else b""
    if length and payload is None:
        raise ProtocolError("connection closed before frame payload")
    return ftype, payload or b""


class FrameParser:
    """Incremental (sans-IO) frame parser for non-blocking transports.

    The event-loop server cannot block on ``recv_frame``; it hands every
    chunk the socket produces to :meth:`feed` and pulls complete frames
    out with :meth:`next_frame`.  The accept/reject behaviour is
    *identical* to :func:`recv_frame` — same :class:`ProtocolError` on a
    bad magic, same header-only :class:`FrameTooLarge` before a single
    payload byte is buffered (the declared length is judged the moment
    the 9 header bytes are complete, so a hostile length cannot force a
    giant allocation no matter how the bytes are chunked).

    Internally one ``bytearray`` accumulates the stream and a read
    cursor walks it; payloads are sliced out through a ``memoryview``
    (one copy, no intermediate concatenations) and consumed prefix
    bytes are compacted away in bulk, so parsing cost stays linear in
    bytes received even under heavy pipelining.
    """

    #: Consumed-prefix size that triggers a buffer compaction.
    _COMPACT_AT = 1 << 16

    def __init__(self, max_payload: int = MAX_PAYLOAD):
        self.max_payload = max_payload
        self._buf = bytearray()
        self._pos = 0          # read cursor into _buf
        self._ftype: Optional[int] = None  # parsed header awaiting payload
        self._need = 0         # payload bytes the parsed header declared
        self.frames_parsed = 0
        self.max_buffered = 0  #: high-water mark of buffered bytes

    def feed(self, data: bytes) -> None:
        """Append one received chunk (any size, including empty)."""
        self._buf += data
        buffered = len(self._buf) - self._pos
        if buffered > self.max_buffered:
            self.max_buffered = buffered

    def buffered(self) -> int:
        """Bytes received but not yet returned as frames."""
        return len(self._buf) - self._pos

    def at_boundary(self) -> bool:
        """True when the stream sits exactly between frames.

        An EOF here is a clean close; an EOF anywhere else is the
        mid-frame death :func:`recv_frame` reports as
        :class:`ProtocolError` (see :meth:`eof`).
        """
        return self._ftype is None and self.buffered() == 0

    def eof(self) -> None:
        """Declare end of stream; raises if it cuts a frame in half.

        The three EOF cases are classified exactly as
        :func:`recv_frame` classifies them: clean at a boundary, a
        mid-read death names the bytes it got, and a death between a
        header and its first payload byte is "before frame payload".
        """
        if self.at_boundary():
            return
        if self._ftype is None:
            raise ProtocolError(
                f"connection closed mid-frame: wanted {_HEADER.size} "
                f"bytes, got {self.buffered()}")
        if self.buffered() == 0:
            raise ProtocolError("connection closed before frame payload")
        raise ProtocolError(
            f"connection closed mid-frame: wanted {self._need} bytes, "
            f"got {self.buffered()}")

    def _compact(self) -> None:
        if self._pos >= self._COMPACT_AT:
            del self._buf[:self._pos]
            self._pos = 0

    def next_frame(self) -> Optional[Tuple[int, bytes]]:
        """One complete ``(type, payload)`` frame, or ``None`` for more.

        Raises exactly what :func:`recv_frame` would: bad magic and
        oversized declared lengths are judged from the header alone.
        """
        if self._ftype is None:
            if self.buffered() < _HEADER.size:
                return None
            magic, ftype, length = _HEADER.unpack_from(self._buf, self._pos)
            if magic != MAGIC:
                raise ProtocolError(f"bad frame magic {bytes(magic)!r}")
            if length > self.max_payload:
                raise FrameTooLarge(
                    f"declared payload of {length} bytes exceeds the "
                    f"{self.max_payload}-byte limit")
            self._pos += _HEADER.size
            self._ftype = ftype
            self._need = length
            self._compact()
        if self.buffered() < self._need:
            return None
        with memoryview(self._buf) as view:
            payload = bytes(view[self._pos:self._pos + self._need])
        self._pos += self._need
        frame = (self._ftype, payload)
        self._ftype = None
        self._need = 0
        self.frames_parsed += 1
        self._compact()
        return frame


def encode_json(obj) -> bytes:
    """Canonical JSON payload encoding (sorted keys, UTF-8)."""
    return json.dumps(obj, sort_keys=True).encode("utf-8")


def decode_json(payload: bytes):
    try:
        return json.loads(payload.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise ProtocolError(f"bad JSON payload: {exc}") from None


# -- idempotent push payloads ------------------------------------------------

_PUSH_SEQ_HEADER = struct.Struct("<QH")


def encode_push_seq(client_id: str, seq: int, payload: bytes) -> bytes:
    """Build a ``PUSH_SEQ`` payload: ``u64 seq, str client_id, profile``.

    The sequence number is per-client and strictly monotonic; resending
    an unacknowledged push reuses its sequence, which is what lets the
    server deduplicate after an ambiguous failure.
    """
    raw_id = client_id.encode("utf-8")
    if not raw_id:
        raise ProtocolError("push client id must not be empty")
    if len(raw_id) > 0xFFFF:
        raise ProtocolError("push client id too long")
    if seq < 1:
        raise ProtocolError("push sequence numbers start at 1")
    return _PUSH_SEQ_HEADER.pack(seq, len(raw_id)) + raw_id + payload


def decode_push_seq(data: bytes) -> Tuple[str, int, bytes]:
    """Split a ``PUSH_SEQ`` payload into ``(client_id, seq, profile)``."""
    if len(data) < _PUSH_SEQ_HEADER.size:
        raise ProtocolError("truncated PUSH_SEQ payload")
    seq, id_len = _PUSH_SEQ_HEADER.unpack_from(data)
    end = _PUSH_SEQ_HEADER.size + id_len
    if len(data) < end:
        raise ProtocolError("truncated PUSH_SEQ client id")
    try:
        client_id = data[_PUSH_SEQ_HEADER.size:end].decode("utf-8")
    except UnicodeDecodeError as exc:
        raise ProtocolError(f"bad PUSH_SEQ client id: {exc}") from None
    if not client_id:
        raise ProtocolError("push client id must not be empty")
    if seq < 1:
        raise ProtocolError("push sequence numbers start at 1")
    return client_id, seq, data[end:]


# -- wait-state sample payloads ----------------------------------------------

_STATE_PUSH_HEADER = struct.Struct("<Q")


def encode_state_push(overhead_ns: int, profile_bytes: bytes) -> bytes:
    """Build a ``STATE_PUSH`` payload: ``u64 overhead_ns, state profile``.

    The sampler's wall-clock overhead counter rides *beside* the
    profile bytes, never inside them — the
    :class:`~repro.sampling.StateProfile` codec stays deterministic
    (digest-pinnable in CI) while the service still accumulates the
    ``osprof_sampler_overhead_ns_total`` health counter from pushes.
    """
    if overhead_ns < 0:
        raise ProtocolError("sampler overhead must be >= 0 ns")
    return _STATE_PUSH_HEADER.pack(overhead_ns) + profile_bytes


def decode_state_push(data: bytes) -> Tuple[int, bytes]:
    """Split a ``STATE_PUSH`` payload into ``(overhead_ns, profile)``."""
    if len(data) < _STATE_PUSH_HEADER.size:
        raise ProtocolError("truncated STATE_PUSH payload")
    (overhead_ns,) = _STATE_PUSH_HEADER.unpack_from(data)
    return overhead_ns, data[_STATE_PUSH_HEADER.size:]


# -- backpressure ------------------------------------------------------------

_RETRY_AFTER = struct.Struct("<d")


def encode_retry_after(seconds: float) -> bytes:
    """Build a ``RETRY_AFTER`` payload (suggested client backoff)."""
    if seconds < 0:
        raise ProtocolError("retry-after seconds must be >= 0")
    return _RETRY_AFTER.pack(seconds)


def decode_retry_after(payload: bytes) -> float:
    """Seconds the server asked the client to back off."""
    if len(payload) != _RETRY_AFTER.size:
        raise ProtocolError(
            f"bad RETRY_AFTER payload of {len(payload)} bytes")
    (seconds,) = _RETRY_AFTER.unpack(payload)
    if not seconds >= 0:
        raise ProtocolError(f"bad retry-after value {seconds!r}")
    return seconds
