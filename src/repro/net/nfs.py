"""An NFSv3-like network file system (Figure 2's NFS/NFSD path).

The paper's layered-profiling infrastructure (Figure 2) shows requests
flowing ``read() -> VFS -> NFS -> NIC driver`` on the client and
``NFSD -> VFS -> Ext2`` on the server.  This module provides that stack
over the same TCP substrate as CIFS — and the contrast matters: the
NFS server *streams* its reply segments without waiting for
acknowledgements, so the delayed-ACK pathology of Section 6.4 cannot
occur, even against a delayed-ACK client.  Profiling both mounts under
the same workload shows CIFS's far-right FIND peaks with no NFS
counterpart.

Protocol subset: LOOKUP, GETATTR, READ (8 KB max per call), READDIR
(cookie-based batches).  The client keeps an attribute cache (3 s TTL,
like the Linux client's ac{min,max}) and caches data pages in the
shared page cache.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

from ..sim.engine import seconds
from ..sim.process import Condition, CpuBurst, ProcBody, Process, WaitCondition
from ..sim.rng import SimRandom
from ..sim.scheduler import Kernel
from ..vfs.file import File
from ..vfs.inode import InodeTable
from ..vfs.vfs import FileSystem
from .smb import DirEntryInfo
from .tcp import MAX_SEGMENT, TcpEndpoint

__all__ = ["NfsClient", "NfsServer", "NFS_MAX_READ",
           "ATTR_CACHE_TTL"]

#: Maximum bytes per READ call (NFSv2's 8 KB; v3 negotiates higher).
NFS_MAX_READ = 8192

#: Client attribute-cache lifetime (Linux acmin..acmax is 3-60 s).
ATTR_CACHE_TTL = seconds(3.0)

#: Entries per READDIR reply.
READDIR_BATCH = 64

_ENTRY_WIRE = 96
_REQUEST_WIRE = 140


@dataclass
class _NfsRequest:
    """One RPC: procedure, arguments, and its transaction id."""

    xid: int
    procedure: str  # LOOKUP | GETATTR | READ | READDIR
    args: Tuple

    def wire_size(self) -> int:
        return _REQUEST_WIRE


@dataclass
class _NfsReply:
    """The assembled RPC result."""

    xid: int
    procedure: str
    result: Any = None

    def wire_size(self) -> int:
        if self.procedure == "READ":
            return 120 + self.result  # result = byte count
        if self.procedure == "READDIR":
            entries, _cookie = self.result
            return 120 + _ENTRY_WIRE * len(entries)
        return 160  # LOOKUP/GETATTR: a handle + fattr


class NfsServer:
    """Stateless NFSD: serves a shared inode tree, streams replies."""

    COLD_SERVICE = seconds(5e-3)   # disk on the server side
    WARM_SERVICE = seconds(80e-6)  # server page cache

    def __init__(self, kernel: Kernel, inodes: InodeTable,
                 endpoint: TcpEndpoint,
                 rng: Optional[SimRandom] = None):
        self.kernel = kernel
        self.inodes = inodes
        self.endpoint = endpoint
        self.rng = rng if rng is not None else kernel.rng.fork("nfsd")
        endpoint.on_receive = self._on_packet
        self._warm: set = set()
        self.requests_served = 0

    def _service_time(self, key) -> float:
        if key in self._warm:
            return self.WARM_SERVICE
        self._warm.add(key)
        return self.COLD_SERVICE

    def _on_packet(self, packet) -> None:
        request = packet.payload
        if not isinstance(request, _NfsRequest):
            return
        self.requests_served += 1
        if request.procedure == "LOOKUP":
            dir_ino, name = request.args
            directory = self.inodes.get(dir_ino)
            entry = directory.lookup_entry(name)
            result = None
            if entry is not None:
                child = self.inodes.get(entry.ino)
                result = DirEntryInfo(name=name, ino=child.ino,
                                      is_dir=child.is_dir,
                                      size=child.size)
            service = self._service_time(("meta", dir_ino))
        elif request.procedure == "GETATTR":
            (ino,) = request.args
            inode = self.inodes.get(ino)
            result = DirEntryInfo(name="", ino=ino,
                                  is_dir=inode.is_dir, size=inode.size)
            service = self._service_time(("meta", ino))
        elif request.procedure == "READ":
            ino, offset, length = request.args
            inode = self.inodes.get(ino)
            available = max(0, inode.size - offset)
            result = min(length, available, NFS_MAX_READ)
            service = self._service_time(("data", ino,
                                          offset // NFS_MAX_READ))
        elif request.procedure == "READDIR":
            ino, cookie = request.args
            directory = self.inodes.get(ino)
            batch = directory.entries[cookie:cookie + READDIR_BATCH]
            infos = []
            for entry in batch:
                child = self.inodes.get(entry.ino)
                infos.append(DirEntryInfo(name=entry.name,
                                          ino=child.ino,
                                          is_dir=child.is_dir,
                                          size=child.size))
            next_cookie = cookie + len(batch)
            if next_cookie >= len(directory.entries):
                next_cookie = -1  # end of directory
            result = (infos, next_cookie)
            service = self._service_time(("meta", ino))
        else:
            raise TypeError(f"unknown NFS procedure "
                            f"{request.procedure!r}")
        reply = _NfsReply(xid=request.xid,
                          procedure=request.procedure, result=result)
        delay = self.rng.jitter(service, sigma=0.2)
        self.kernel.engine.schedule(
            delay, lambda r=reply: self._send_reply(r))

    def _send_reply(self, reply: _NfsReply) -> None:
        """Stream all segments immediately: no ACK synchronization.

        This is the structural difference from the CIFS server — and
        why NFS has no Figure 11 pathology.
        """
        remaining = reply.wire_size()
        while remaining > 0:
            size = min(remaining, MAX_SEGMENT)
            remaining -= size
            payload = reply if remaining == 0 else None
            self.endpoint.send(size, f"NFS {reply.procedure} reply",
                               payload)


class NfsClient(FileSystem):
    """The client-side NFS mount."""

    name = "nfs"

    MARSHAL_COST = 3_500.0
    CACHED_READ_COST = 1_700.0
    ATTR_HIT_COST = 600.0
    EOF_COST = 100.0

    def __init__(self, kernel: Kernel, endpoint: TcpEndpoint,
                 inodes: InodeTable,
                 attr_ttl: float = ATTR_CACHE_TTL,
                 readdir_chunk: int = 16,
                 probe=None):
        super().__init__()
        self.kernel = kernel
        self.endpoint = endpoint
        self.inodes = inodes
        self.attr_ttl = attr_ttl
        self.readdir_chunk = readdir_chunk
        endpoint.on_receive = self._on_packet
        self._next_xid = 1
        self._pending: Dict[int, Condition] = {}
        self._attr_cache: Dict[int, Tuple[float, DirEntryInfo]] = {}
        self.rpcs_sent = 0
        self.attr_hits = 0
        #: Network-level ProbePoint measuring each RPC send->reply under
        #: ``rpc_<procedure>`` — Figure 2's NIC-adjacent layer.
        self.probe_point = probe

    # -- RPC plumbing --------------------------------------------------------

    def _on_packet(self, packet) -> None:
        reply = packet.payload
        if not isinstance(reply, _NfsReply):
            return
        condition = self._pending.pop(reply.xid, None)
        if condition is not None:
            self.kernel.fire_condition(condition, reply, wake_all=True)

    def _call(self, proc: Process, procedure: str,
              *args) -> ProcBody:
        yield CpuBurst(self.kernel.rng.jitter(self.MARSHAL_COST,
                                              sigma=0.3))
        xid = self._next_xid
        self._next_xid += 1
        request = _NfsRequest(xid=xid, procedure=procedure, args=args)
        condition = Condition(f"nfs:xid{xid}")
        self._pending[xid] = condition
        start = self.kernel.now
        self.endpoint.send(request.wire_size(),
                           f"NFS {procedure} call", request)
        self.rpcs_sent += 1
        reply = yield WaitCondition(condition)
        probe = self.probe_point
        if probe is not None and probe.active:
            probe.record(f"rpc_{procedure.lower()}",
                         self.kernel.now - start, start=start,
                         context=proc.request_context,
                         cpu=proc.cpu if proc.cpu is not None else 0)
        return reply.result

    # -- attribute cache ---------------------------------------------------------

    def getattr(self, proc: Process, ino: int) -> ProcBody:
        """Attributes with a TTL cache, like the Linux client's."""
        cached = self._attr_cache.get(ino)
        if cached is not None and \
                self.kernel.now - cached[0] < self.attr_ttl:
            self.attr_hits += 1
            yield CpuBurst(self.kernel.rng.jitter(self.ATTR_HIT_COST,
                                                  sigma=0.3))
            return cached[1]
        attrs = yield from self._call(proc, "GETATTR", ino)
        self._attr_cache[ino] = (self.kernel.now, attrs)
        return attrs

    def lookup(self, proc: Process, dir_ino: int, name: str) -> ProcBody:
        """LOOKUP one component; fills the attribute cache."""
        info = yield from self._call(proc, "LOOKUP", dir_ino, name)
        if info is not None:
            self._attr_cache[info.ino] = (self.kernel.now, info)
        return info

    # -- FileSystem interface --------------------------------------------------------

    def readdir(self, proc: Process, file: File) -> ProcBody:
        assert self.vfs is not None, "file system not mounted"
        if file.fs_private is None:
            file.fs_private = ([], 0)
        entries, cookie = file.fs_private
        if file.pos >= len(entries):
            if cookie == -1:
                yield CpuBurst(self.kernel.rng.jitter(self.EOF_COST,
                                                      sigma=0.25))
                return []
            batch, next_cookie = yield from self.vfs.instrument(
                proc, "nfs_readdir",
                self._call(proc, "READDIR", file.inode.ino, cookie))
            entries.extend(batch)
            file.fs_private = (entries, next_cookie)
            if not batch:
                return []
        else:
            yield CpuBurst(self.kernel.rng.jitter(1_800.0, sigma=0.4))
        chunk = entries[file.pos:file.pos + self.readdir_chunk]
        file.pos += len(chunk)
        return chunk

    def file_read(self, proc: Process, file: File, size: int) -> ProcBody:
        assert self.vfs is not None, "file system not mounted"
        inode = file.inode
        if size < 0:
            raise ValueError("size must be non-negative")
        if size == 0 or file.pos >= inode.size:
            yield CpuBurst(self.kernel.rng.jitter(self.EOF_COST,
                                                  sigma=0.25))
            return 0
        size = min(size, inode.size - file.pos)
        cache = self.vfs.pagecache
        remaining = size
        while remaining > 0:
            page_index = file.pos // 4096
            in_page = min(remaining, 4096 - file.pos % 4096)
            page = cache.lookup(inode.ino, page_index)
            if page is None or not page.resident:
                yield from self.vfs.instrument(
                    proc, "nfs_read",
                    self._call(proc, "READ", inode.ino,
                               page_index * 4096, 4096))
                cache.install_resident(inode.ino, page_index)
            yield CpuBurst(self.kernel.rng.jitter(
                self.CACHED_READ_COST, sigma=0.3))
            file.pos += in_page
            remaining -= in_page
        return size

    def llseek(self, proc: Process, file: File, offset: int,
               whence: int) -> ProcBody:
        """Client-local, like every network FS position update."""
        from ..vfs.file import SEEK_CUR, SEEK_END, SEEK_SET

        yield CpuBurst(self.kernel.rng.jitter(130.0, sigma=0.25))
        if whence == SEEK_SET:
            file.pos = offset
        elif whence == SEEK_CUR:
            file.pos += offset
        elif whence == SEEK_END:
            file.pos = file.inode.size + offset
        else:
            raise ValueError(f"bad whence {whence}")
        return file.pos
