"""Summary statistics, host speed, peak memory and the result line every workload prints."""

from __future__ import annotations

import json
import math
import os
import resource
import socket
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

#: Host seconds of one ``probe()`` on the reference host (the 2-vCPU VM
#: described in NOTES.md), median over a minute.  ``HostSpeed`` divides
#: by it, so on that host at that load a scaled time reads as wall time.
PROBE_REFERENCE_S = 0.0041
#: Median ``Echo.round_trip`` and ``SyncedAppends.time`` on the
#: reference host at the same load.
ROUND_TRIP_REFERENCE_S = 18.5e-6
SYNC_REFERENCE_S = 137e-6


def median(values: Sequence[float]) -> float:
    return statistics.median(values)


def tail(values: Sequence[float]) -> Tuple[float, float]:
    """``(percentile, value)`` of the slow tail of *values*.

    The highest nearest-rank percentile with at least ten samples beyond
    it, capped at p99.  With ten samples or fewer no percentile has ten
    beyond it, so the maximum is returned and labelled p100.
    """
    ordered = sorted(values)
    n = len(ordered)
    if n <= 10:
        return 100.0, ordered[-1]
    q = min(0.99, 1.0 - 10.0 / n)
    index = max(0, math.ceil(q * n) - 1)
    return round(q * 100.0, 1), ordered[index]


def percentile(values: Sequence[float], q: float) -> float:
    """Nearest-rank percentile *q* (0-100) of *values*; 0.0 when empty."""
    if not values:
        return 0.0
    ordered = sorted(values)
    index = max(0, math.ceil(q / 100.0 * len(ordered)) - 1)
    return ordered[index]


class _Counter:
    __slots__ = ("table", "x")

    def __init__(self):
        self.table = [0] * 256
        self.x = 1

    def step(self, i: int) -> None:
        x = (self.x * 31 + i) & 0xFFFF
        self.x = x
        self.table[x & 255] += 1


def probe() -> float:
    """Host seconds of a fixed pure-Python task: the host's speed right now.

    Method calls, attribute and list updates and integer arithmetic, the
    interpreter work the program is made of, without allocating
    anything the garbage collector tracks.  It is the benchmark's own
    code, so a change to the program under test leaves it alone.
    """
    counter = _Counter()
    step = counter.step
    started = time.perf_counter()
    for i in range(20000):
        step(i)
    return time.perf_counter() - started


_ECHO = """
import socket, sys
peer = socket.socket(fileno=int(sys.argv[1]))
while True:
    data = peer.recv(4096)
    if not data:
        break
    peer.sendall(data)
"""


class Echo:
    """A child process that sends back whatever it reads.

    ``round_trip`` times small messages through it: the wake-up of a
    process on another CPU that a client and a server pay on every
    request, which the single-process ``probe()`` does not see.
    """

    MESSAGE = b"x" * 200

    def __init__(self):
        self.sock, theirs = socket.socketpair()
        try:
            self.proc = subprocess.Popen(
                [sys.executable, "-c", _ECHO, str(theirs.fileno())],
                pass_fds=(theirs.fileno(),), stdin=subprocess.DEVNULL)
        finally:
            theirs.close()

    def round_trip(self, count: int = 50) -> float:
        """Median host seconds of *count* message round trips."""
        times = []
        for _ in range(count):
            started = time.perf_counter()
            self.sock.sendall(self.MESSAGE)
            received = 0
            while received < len(self.MESSAGE):
                received += len(self.sock.recv(4096))
            times.append(time.perf_counter() - started)
        return statistics.median(times)

    def close(self) -> None:
        """Closes the socket, so the child reads EOF, and waits for it."""
        self.sock.close()
        try:
            self.proc.wait(timeout=30)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()


class SyncedAppends:
    """Appends of 4 KiB to a scratch file, each made durable with ``fsync``.

    The cost of the durable writes the service and the relay make, on
    the disk the run writes to.
    """

    BLOCK = b"\0" * 4096

    def __init__(self, path: Path):
        self.path = path
        self.fd = os.open(path, os.O_WRONLY | os.O_CREAT | os.O_TRUNC, 0o644)

    def time(self, count: int = 10) -> float:
        """Median host seconds of *count* append-and-fsync pairs."""
        times = []
        for _ in range(count):
            started = time.perf_counter()
            os.write(self.fd, self.BLOCK)
            os.fsync(self.fd)
            times.append(time.perf_counter() - started)
        return statistics.median(times)

    def close(self) -> None:
        os.close(self.fd)
        os.unlink(self.path)


class HostSpeed:
    """The host's speed over one run, from probes taken between pieces of work.

    The shared VM's speed drifts by tens of percent over minutes (see
    NOTES.md), which would read as a change of the program from one run
    to the next.  A run times ``probe()`` many times while it works and
    reports every time in reference-host seconds: host seconds scaled
    by ``PROBE_REFERENCE_S`` over the median probe.  A client-server
    run spends its time interpreting, waking the process at the other
    end and waiting for durable writes; with an *echo* and *syncs* it
    also times round trips and synced appends, and the scale is the
    geometric mean of the three ratios.  The medians over the whole run
    follow drift from run to run; within a run, medians over many
    samples ride out short bursts.
    """

    def __init__(self, echo: Optional[Echo] = None,
                 syncs: Optional[SyncedAppends] = None):
        self.echo = echo
        self.syncs = syncs
        self.probes: List[float] = []
        self.round_trips: List[float] = []
        self.synced: List[float] = []

    def sample(self, count: int = 1) -> None:
        for _ in range(count):
            self.probes.append(probe())
            if self.echo is not None:
                self.round_trips.append(self.echo.round_trip())
            if self.syncs is not None:
                self.synced.append(self.syncs.time())

    def _ratios(self) -> List[Tuple[str, float, float]]:
        """(name, median host seconds, reference seconds) per probe kind."""
        kinds = [("probe", self.probes, PROBE_REFERENCE_S),
                 ("round trip", self.round_trips, ROUND_TRIP_REFERENCE_S),
                 ("synced append", self.synced, SYNC_REFERENCE_S)]
        return [(name, statistics.median(values), reference)
                for name, values, reference in kinds if values]

    @property
    def scale(self) -> float:
        """Reference-host seconds per host second."""
        ratios = [reference / measured
                  for _name, measured, reference in self._ratios()]
        return math.prod(ratios) ** (1.0 / len(ratios))

    def describe(self) -> str:
        parts = [f"{name} median {measured * 1e6:.2f} us (reference "
                 f"{reference * 1e6:.2f} us)"
                 for name, measured, reference in self._ratios()]
        return (f"host speed over {len(self.probes)} samples: "
                f"{', '.join(parts)}; scale {self.scale:.4f}")


def peak_rss_mb() -> float:
    """Peak resident set of this process in MiB.

    Read from ``VmHWM`` in ``/proc/self/status``, which starts afresh
    with the process image.  ``ru_maxrss`` does not: Linux carries it
    across ``execve``, so a server started by the benchmark would report
    the benchmark's own peak at the time it was spawned.
    """
    try:
        with open("/proc/self/status", encoding="ascii") as status:
            for line in status:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0  # kB
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


class Result:
    """Collects metrics, correctness failures and operation counts."""

    def __init__(self, workload: str):
        self.workload = workload
        self.metrics: Dict[str, Tuple[float, str]] = {}
        self.failures: List[str] = []
        self.attempted = 0
        self.failed = 0
        self.notes: List[str] = []
        #: Spans of a traced run, written out when the run ends.
        self.spans: List[dict] = []

    def metric(self, name: str, value: float, unit: str,
               note: str = "") -> None:
        self.metrics[name] = (float(value), unit)
        if note:
            self.notes.append(f"{name}: {note}")

    def check(self, ok: bool, message: str) -> bool:
        """Record a correctness check; a false *ok* fails the run."""
        if not ok:
            self.failures.append(message)
        return ok

    @property
    def correct(self) -> bool:
        return not self.failures

    def lines(self) -> List[str]:
        """Human-readable report, then the JSON result line last."""
        out = [f"workload {self.workload}: "
               f"{'correct' if self.correct else 'INCORRECT'}, "
               f"{self.attempted} operations attempted, "
               f"{self.failed} failed or retried"]
        for name, (value, unit) in self.metrics.items():
            out.append(f"  {name} = {value:.6g} {unit}")
        out.extend(f"  note {note}" for note in self.notes)
        out.extend(f"  check failed: {message}" for message in self.failures)
        out.append(json.dumps({
            "correct": self.correct,
            "attempted": int(self.attempted),
            "failed": int(self.failed),
            "metrics": {name: {"value": value, "unit": unit}
                        for name, (value, unit) in self.metrics.items()},
        }, sort_keys=False))
        return out
