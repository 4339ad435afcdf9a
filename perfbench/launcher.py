"""Runs the program under test in its own process: a root service or a leaf relay.

The generator threads of ``fleet.py`` would contend with the servers
for the interpreter lock if they shared a process, so each server runs
here, started by ``fleet.py`` as::

    python3 perfbench/launcher.py root --dir D [--compact-every M] [--trace]
    python3 perfbench/launcher.py relay --dir D --upstream HOST:PORT [--whole-batches] [--trace]

The launcher prints one JSON line with the bound address (and, for a
relay, its batch size), then answers one JSON command per stdin line
with one JSON line on stdout: ``finish`` (counters and, for the root,
the open segment), ``wait`` (relay: block until N entries were
forwarded) and ``stop`` (drain, close, write spans, report peak RSS,
exit).

The relay runs with ``RelayService``'s and ``RelayServer``'s own
defaults (batch size, one-second flush of a partial batch).  With
``--whole-batches`` the partial-batch flush is pushed beyond any run,
so a client that waits for each batch (``fleet.py``'s fixed-count
rounds) makes every forward a whole batch and the root's ingest count
exact.

With ``--trace`` it wraps public methods of the live instances in
spans and counts durable writes through ``core.durable.recording``;
nothing inside ``src/`` changes.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
import threading
import time
from pathlib import Path

from fleet import PER_SEGMENT
from measure import peak_rss_mb
from spans import Tracer


class SegmentClock:
    """A service clock that closes one segment every *per_segment* ingests.

    ``SegmentStore`` reads the clock once when built and once per
    ingest, so with a segment length of 1.0 the i-th ingest lands in
    segment ``i // per_segment``: closes, commits and fsyncs repeat
    exactly for a given number of ingests, whatever the wall clock did.
    """

    def __init__(self, per_segment: int):
        self.per_segment = per_segment
        self.calls = 0

    def __call__(self) -> float:
        self.calls += 1
        return self.calls / self.per_segment


class DurableCounter:
    """A ``core.durable`` recorder that counts fsyncs and bytes per tree."""

    def __init__(self, roots: dict):
        self.roots = {label: str(Path(path).resolve())
                      for label, path in roots.items()}
        self.fsyncs = {label: 0 for label in roots}
        self.bytes = {label: 0 for label in roots}
        self._lock = threading.Lock()

    def record(self, kind, path, data=None, dest=None, size=None) -> None:
        where = str(Path(path).resolve())
        for label, root in self.roots.items():
            if where.startswith(root):
                with self._lock:
                    if kind in ("fsync", "fsync_dir"):
                        self.fsyncs[label] += 1
                    if data is not None:
                        self.bytes[label] += len(data)
                return


def _seq_rid(client_id, seq, *_args, **_kwargs):
    return f"{client_id}:{seq}"


def build_root(args, tracer):
    from repro.service.aio_server import AsyncProfileServer
    from repro.service.server import ProfileService, ServiceConfig
    from repro.warehouse.warehouse import Warehouse
    warehouse = Warehouse(Path(args.dir) / "wh")
    # One commit per segment close (the default retention then evicts
    # segments that are already durable, which commits nothing).
    config = ServiceConfig(segment_seconds=1.0, flush_batch=1)
    service = ProfileService(config, clock=SegmentClock(PER_SEGMENT),
                             warehouse=warehouse)
    if tracer is not None:
        import repro.warehouse.sql as sql
        tracer.wrap(service, "ingest_sequenced", "service.ingest", _seq_rid)
        tracer.wrap(service, "ingest_state", "service.state_ingest")
        tracer.wrap(service, "flush", "service.flush")
        tracer.wrap(service.alerter, "observe", "alerts.observe")
        tracer.wrap(warehouse, "ingest_many", "warehouse.commit")
        tracer.wrap(warehouse, "ingest_state", "warehouse.state_commit")
        tracer.wrap(warehouse, "compact", "warehouse.compact")
        tracer.wrap(sql, "execute_sql", "sql.execute")
        tracer.wrap(sql, "parse_sql", "sql.parse")
    server = AsyncProfileServer(service)
    server.serve_in_thread()
    if args.compact_every:
        _compact_on_cadence(service, server, args.compact_every)
    return service, server


#: Failed compactions of this process, as "Type: message".
COMPACT_ERRORS: list = []


def _compact_on_cadence(service, server, every: int) -> None:
    """Compact on the service's event loop after every *every*-th commit.

    The program has no in-service compactor, so the benchmark places
    one: commits are counted wherever they run, and each compaction is
    handed to the event loop, where SQL also runs.  A scan reads
    segment files outside the warehouse lock while compaction unlinks
    superseded ones, so compaction must not run beside a query on
    another thread; on the loop it runs between requests, whichever
    thread commits.  Counting commits keeps the cadence identical run
    to run.
    """
    warehouse = service.warehouse
    loop = server._loop  # the serving event loop; no public accessor
    commit = warehouse.ingest_many
    commits = [0]

    def compact() -> None:
        try:
            warehouse.compact()
        except Exception as exc:  # reported by ``finish``, checked by fleet
            COMPACT_ERRORS.append(f"{type(exc).__name__}: {exc}")

    def ingest_many(source, items):
        metas = commit(source, items)
        commits[0] += 1
        if commits[0] % every == 0:
            loop.call_soon_threadsafe(compact)
        return metas

    warehouse.ingest_many = ingest_many


def build_relay(args, tracer):
    from repro.service.relay import RelayServer, RelayService
    host, port = args.upstream.rsplit(":", 1)
    relay = RelayService(Path(args.dir) / "relay", (host, int(port)),
                         relay_id="leaf-0")
    if tracer is not None:
        tracer.wrap(relay, "accept_sequenced", "relay.accept", _seq_rid)
        tracer.wrap(relay, "forward", "relay.forward")
    if args.whole_batches:
        server = RelayServer(relay, flush_interval=3600.0)
    else:
        server = RelayServer(relay)
    server.serve_in_thread()
    return relay, server


def wait_forwarded(relay, entries: int, timeout: float = 60.0) -> int:
    """Block until the relay has forwarded *entries* entries (or *timeout*)."""
    deadline = time.monotonic() + timeout
    while relay.forwarded_entries < entries and time.monotonic() < deadline:
        time.sleep(0.001)
    return relay.forwarded_entries


def root_counters(service, compactions_at_start: int) -> dict:
    warehouse = service.warehouse
    current = service.store.current.pset
    return {
        # The encoding rounds each total latency to one float; the
        # residual restores the exact sum, as the warehouse does.
        "current": current.to_bytes().hex(),
        "current_resid": {p.operation: p.histogram.latency_residual()
                          for p in current},
        "segments_closed": service.store.segments_closed,
        "ingest_requests": service.ingest_requests,
        "duplicates": service.ingest_duplicates,
        "backpressure": service.backpressure_rejections,
        "state_pushes": service.state_pushes,
        "flush_errors": service.warehouse_flush_errors,
        "ingest_errors": service.ingest_errors,
        "compactions": warehouse.compactions_total - compactions_at_start,
        "segments_live": len(warehouse.segments(None, kind=None)),
        "cache_hits": warehouse.cache_hits_total,
        "cache_misses": warehouse.cache_misses_total,
        "compact_errors": COMPACT_ERRORS,
    }


def relay_counters(relay) -> dict:
    return {
        "pending": len(relay.pending_entries()),
        "accepted": relay.accepted,
        "duplicates": relay.duplicates,
        "rejected": relay.rejected,
        "forwarded_entries": relay.forwarded_entries,
        "forwarded_batches": relay.forwarded_batches,
        "forward_errors": relay.forward_errors,
        "backpressure": relay.backpressure_rejections,
    }


def serve(args) -> int:
    from repro.core import durable
    tracer = Tracer(args.role[0]) if args.trace else None
    if args.role == "root":
        target, server = build_root(args, tracer)
        at_start = target.warehouse.compactions_total
        counters = functools.partial(root_counters,
                                     compactions_at_start=at_start)
        label = "warehouse"
    else:
        target, server = build_relay(args, tracer)
        counters = relay_counters
        label = "relay"
    counter = DurableCounter({label: args.dir})
    reply = {"address": list(server.address)}
    if args.role == "relay":
        reply["batch"] = target.batch
    with durable.recording(counter if args.trace else None):
        print(json.dumps(reply), flush=True)
        for line in sys.stdin:
            command = json.loads(line)
            if command["cmd"] == "finish":
                reply = counters(target)
            elif command["cmd"] == "wait":
                reply = {"forwarded": wait_forwarded(target,
                                                     command["entries"])}
            elif command["cmd"] == "stop":
                break
            print(json.dumps(reply), flush=True)
        server.drain(timeout=5.0)
        server.server_close()
    reply = {"rss_mb": peak_rss_mb(), "fsyncs": counter.fsyncs[label],
             "bytes": counter.bytes[label]}
    if tracer is not None:
        path = Path(args.dir) / f"{args.role}.spans.json"
        path.write_text(json.dumps(tracer.dump()), encoding="utf-8")
        reply["spans"] = str(path)
    print(json.dumps(reply), flush=True)
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("role", choices=("root", "relay"))
    parser.add_argument("--dir", required=True)
    parser.add_argument("--compact-every", type=int, default=0)
    parser.add_argument("--upstream")
    parser.add_argument("--whole-batches", action="store_true")
    parser.add_argument("--trace", action="store_true")
    return serve(parser.parse_args(argv))


if __name__ == "__main__":
    sys.exit(main())
