"""The ``ingest`` and ``analytics`` workloads: closed-loop clients against live servers.

``ingest``: two collector connections against a root service with a
durable warehouse.  One pushes directly (every ``STATE_EVERY``-th push
is a wait-state ``STATE_PUSH``); the other pushes through a leaf relay
running with the program's default batch size and flush interval.
Segments close every ``PER_SEGMENT`` root ingests (the service's
``clock=`` argument counts them), so closes, commits and fsyncs repeat
exactly for a given number of root ingests.  In a fixed-count round
(the traced run and its untraced twin) the relayed client waits for
each whole batch to be forwarded, so the root's ingest count, and with
it every count, repeats exactly; a timed round does not wait.

``analytics``: one SQL connection and one pusher against a root whose
warehouse set-up prefilled with ``EPOCHS`` real segments per source,
``samples`` segments and a saved baseline ``clean``; the service
compacts after every ``COMPACT_EVERY``-th segment commit.

Every payload is a real capture made once per run from the seed.  A
run is ``ROUNDS`` short rounds; a round sets up afresh (servers and
warehouse), warms each connection, measures, then checks.  Three busy
processes share two CPUs, and how the scheduler places them holds for
a round and moves its latencies; many short rounds average over the
placements.  The host's speed is probed while nothing else runs
(before set-up, between set-up and measurement, after the servers
stop), and a timed run reports reference-host times
(``measure.HostSpeed``).
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import threading
import time
from pathlib import Path
from typing import Dict, List, Optional

from measure import (Echo, HostSpeed, Result, SyncedAppends, median,
                     percentile, tail)
from spans import Tracer, durations

HERE = Path(__file__).resolve().parent

ROUNDS = 8
#: Throughput is counted per window of completion time and reported as
#: the median over windows: on a shared VM host speed can swing by tens
#: of percent for seconds at a time, and a median over windows rides
#: out a slow burst that one run-wide rate would absorb.
WINDOW_S = 1.0
#: Timed runs capture the inputs this many times; setup_s takes the median.
INPUT_BUILDS = 3
#: Host probes taken at each quiet point of a round (before set-up,
#: before measuring, after the servers stopped).
PROBES = 4
#: Root ingests per segment (the close cadence K).
PER_SEGMENT = 16
#: Every STATE_EVERY-th push on the direct connection is a STATE_PUSH.
STATE_EVERY = 8
#: Analytics: compact after every COMPACT_EVERY-th segment commit.
COMPACT_EVERY = 8
#: Analytics prefill: sources, base epochs per source, samples segments.
PREFILL_SOURCES = ("web", "db", "batch")
EPOCHS = 128
STATE_SEGMENTS = 4
#: The aligned epoch range of the epoch-range query (a multiple of
#: the top tier's 16-epoch window on both ends, so compaction never
#: widens it).
EPOCH_RANGE = (16, 47)
#: Pushes per connection in a traced round (and the untraced round it
#: is compared with); fixed, so its counts repeat exactly.  A multiple
#: of the relay's default batch (64), so every forward is whole.
TRACED_PUSHES = 384
#: Workloads of the pushed payloads, all captured at the fs layer
#: (every one records fs operations there); grep walks a small tree.
LATENCY_MIX = ("randomread", "postmark", "zerobyte", "grep")


def sizes(smoke: bool) -> dict:
    if smoke:
        return dict(latency=8, states=2, iterations=20, epochs=32,
                    traced=64)
    return dict(latency=16, states=4, iterations=150, epochs=EPOCHS,
                traced=TRACED_PUSHES)


# -- inputs ----------------------------------------------------------------------

class Inputs:
    """Real payloads captured from the seed: latency sets and state profiles."""

    def __init__(self, seed: int, smoke: bool):
        from repro.sim.engine import seconds
        from repro.sim.rng import derive_seed
        from repro.workloads.runner import (collect_profiles,
                                            collect_sampled_run)
        size = sizes(smoke)
        from repro.core.profileset import ProfileSet
        self.payloads = [
            collect_profiles(LATENCY_MIX[i % len(LATENCY_MIX)], layer="fs",
                             seed=derive_seed(seed, f"payload:{i}"),
                             processes=2, iterations=size["iterations"],
                             scale=0.005).to_bytes()
            for i in range(size["latency"])]
        # Decoded from the wire bytes: the encoding rounds each total
        # latency to one float, and the checks compare against exactly
        # what was pushed.
        self.psets = [ProfileSet.from_bytes(p) for p in self.payloads]
        self.states = [
            collect_sampled_run("randomread",
                                state_sample_interval=seconds(0.0005),
                                seed=derive_seed(seed, f"state:{i}"),
                                processes=2,
                                iterations=size["iterations"])[1]
            for i in range(size["states"])]


# -- the program under test, one process per server -------------------------------

class Launched:
    """One ``launcher.py`` child process and its JSON-lines control pipe."""

    def __init__(self, root: Path, role: str, workdir: Path, extra: list,
                 trace: bool):
        self.role = role
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            [str(root / "src")] + ([env["PYTHONPATH"]]
                                   if env.get("PYTHONPATH") else []))
        cmd = [sys.executable, str(HERE / "launcher.py"), role,
               "--dir", str(workdir)] + extra + (["--trace"] if trace else [])
        self.proc = subprocess.Popen(cmd, stdin=subprocess.PIPE,
                                     stdout=subprocess.PIPE, text=True,
                                     env=env, cwd=str(root))
        line = self.proc.stdout.readline()
        if not line:
            self.kill()
            raise RuntimeError(f"{role} launcher exited before binding")
        self.info = json.loads(line)
        self.address = tuple(self.info["address"])

    def ask(self, **command) -> dict:
        self.proc.stdin.write(json.dumps(command) + "\n")
        self.proc.stdin.flush()
        line = self.proc.stdout.readline()
        if not line:
            raise RuntimeError(f"launcher died answering {command}")
        return json.loads(line)

    def stop(self) -> dict:
        reply = self.ask(cmd="stop")
        self.proc.stdin.close()
        self.proc.wait(timeout=30)
        return reply

    def kill(self) -> None:
        if self.proc.poll() is None:
            self.proc.kill()
        self.proc.wait()


# -- closed-loop connections -------------------------------------------------------

class Connection:
    """One closed-loop client thread: next request only after the reply."""

    def __init__(self, name: str, tracer: Optional[Tracer]):
        self.name = name
        self.tracer = tracer
        self.latencies: List[float] = []
        self.ends: List[float] = []  # completion time of each latency
        self.acked: List[int] = []
        self.acked_states: List[int] = []
        self.attempted = 0
        self.failed = 0
        self.errors: List[str] = []
        self.count = 0  # requests made, warm-up included

    def timed(self, label: str, fn, *args, rid=None):
        """Call *fn*, recording its latency and completion time."""
        started = time.perf_counter()
        if self.tracer is None:
            value = fn(*args)
        else:
            value = self.tracer.call(label, fn, args, rid=rid)
        ended = time.perf_counter()
        self.latencies.append(ended - started)
        self.ends.append(ended)
        return value

    def step(self) -> None:  # one request
        raise NotImplementedError

    def run(self, warm: int, until, barrier: threading.Barrier) -> None:
        """Warm up *warm* requests, meet the other connections, then measure."""
        try:
            for _ in range(warm):
                self.step()
            self.latencies.clear()
            self.ends.clear()
            barrier.wait(timeout=120)
            while not until(self):
                self.attempted += 1
                self.step()
        except Exception as exc:  # reported as a failed check, not a crash
            self.failed += 1
            self.errors.append(f"{self.name}: {type(exc).__name__}: {exc}")
            barrier.abort()

    def close(self) -> None:
        pass


class Pusher(Connection):
    """Sequenced latency pushes; optionally every Nth push is a STATE_PUSH.

    With *lockstep* (a relayed pusher in a fixed-count round) the pusher
    waits after every *lockstep*-th push until the relay has forwarded
    them all.
    """

    def __init__(self, name, address, inputs: Inputs, offset: int,
                 tracer, state_every: int = 0, relay: Launched = None,
                 lockstep: int = 0, drop: Optional[int] = None):
        super().__init__(name, tracer)
        from repro.service.client import ResilientServiceClient
        self.client = ResilientServiceClient(*address, client_id=name)
        self.inputs = inputs
        self.offset = offset
        self.state_every = state_every
        self.relay = relay
        self.lockstep = lockstep
        self.drop = drop
        self.seq = 0

    def step(self) -> None:
        self.count += 1
        if self.state_every and self.count % self.state_every == 0:
            index = (self.count // self.state_every) % len(self.inputs.states)
            self.timed("client.state_push", self.client.push_state,
                       self.inputs.states[index])
            self.acked_states.append(index)
        else:
            index = (self.offset + self.count) % len(self.inputs.payloads)
            self.seq += 1
            if self.seq == self.drop:
                # The negative case: a push recorded as acked but never sent.
                self.acked.append(index)
                return
            self.timed("client.push", self.client.push_payload,
                       self.inputs.payloads[index],
                       rid=f"{self.name}:{self.seq}")
            self.acked.append(index)
        if self.lockstep and self.seq % self.lockstep == 0:
            self.relay.ask(cmd="wait", entries=self.seq)

    def close(self) -> None:
        self.failed += self.client.retries_performed
        self.client.close()


class Querier(Connection):
    """Cycles the analytics query mix; each answer is checked on the spot."""

    def __init__(self, address, queries: List[str], expected: List[list],
                 tracer: Optional[Tracer]):
        super().__init__("sql", tracer)
        from repro.service.client import ServiceClient
        self.client = ServiceClient(*address)
        self.queries = queries
        self.expected = expected
        self.mismatches: List[str] = []

    def step(self) -> None:
        index = self.count % len(self.queries)
        self.count += 1
        _columns, rows = self.timed("client.sql", self.client.sql,
                                    self.queries[index])
        if rows != self.expected[index] and len(self.mismatches) < 5:
            self.mismatches.append(
                f"query {index} answered {rows[:3]}... expected "
                f"{self.expected[index][:3]}...")

    def close(self) -> None:
        self.client.close()


def drive(connections: List[Connection], warm: int, seconds: float,
          pushes: Optional[int]) -> tuple:
    """Run every connection on its own thread; returns (start, wall time).

    A timed round ends at the deadline; a fixed-count round after
    *pushes* requests each.
    """
    clock = {}

    def start() -> None:  # runs once, when every party has arrived
        clock["started"] = time.perf_counter()
        clock["deadline"] = clock["started"] + seconds

    barrier = threading.Barrier(len(connections) + 1, action=start)

    def until(conn: Connection) -> bool:
        if pushes is not None:
            return conn.attempted >= pushes
        return time.perf_counter() >= clock["deadline"]

    threads = [threading.Thread(target=c.run, args=(warm, until, barrier),
                                name=c.name) for c in connections]
    for t in threads:
        t.start()
    try:
        barrier.wait(timeout=120)
    except threading.BrokenBarrierError:
        clock.setdefault("started", time.perf_counter())
    for t in threads:
        t.join(timeout=seconds + 120)
    started = clock["started"]
    return started, time.perf_counter() - started


# -- checks ------------------------------------------------------------------------

def check_exactly_once(result: Result, workdir: Path, counters: dict,
                       inputs: Inputs, pushers: List[Pusher],
                       relay_batches: int) -> int:
    """The root's warehouse history plus its open segment equals every acked push.

    Compares with ``ProfileSet.merged`` of every acked payload: every
    operation, bucket count, op count and min/max byte for byte.  The
    one allowed difference is the last place of a total latency: a
    relay forwards each batch as one encoded profile, and the encoding
    rounds each total to one float (dropping up to half an ulp per
    batch), so a stored total may differ from the exact flat merge by
    at most ``relay_batches + 1`` ulps.  Returns how many operations
    differ that way.
    """
    import math
    from repro.core.profileset import ProfileSet
    from repro.sampling.stateprofile import StateProfile
    from repro.warehouse.warehouse import Warehouse
    warehouse = Warehouse(workdir / "wh")
    history = warehouse.query("service")
    current = ProfileSet.from_bytes(bytes.fromhex(counters["current"]))
    for op, components in counters["current_resid"].items():
        current[op].histogram.correct_total_latency(components)
    stored = ProfileSet.merged([history, current])
    expected = ProfileSet.merged(inputs.psets[i] for p in pushers
                                 for i in p.acked)
    slack = relay_batches + 1 if relay_batches else 0
    inexact = 0
    for prof in expected:
        mine = stored.get(prof.operation)
        if mine is None or mine.total_latency == prof.total_latency:
            continue
        gap = abs(mine.total_latency - prof.total_latency)
        if gap <= slack * math.ulp(max(abs(mine.total_latency),
                                       abs(prof.total_latency))):
            inexact += 1
            mine.histogram.total_latency = prof.total_latency
    result.check(stored.to_bytes() == expected.to_bytes(),
                 f"exactly-once: stored history holds {stored.total_ops()} "
                 f"ops, the acked pushes {expected.total_ops()}")
    states = [inputs.states[i] for p in pushers for i in p.acked_states]
    if states:
        stored_states = warehouse.query_states("service")
        want = StateProfile.merged(states)
        result.check(stored_states.to_bytes() == want.to_bytes(),
                     f"exactly-once: stored samples "
                     f"{stored_states.total_samples()}, acked "
                     f"{want.total_samples()}")
    return inexact


# -- analytics reference -----------------------------------------------------------

def prefill_plan(inputs: Inputs, epochs: int) -> Dict[str, List[int]]:
    """Payload index of every prefilled (source, epoch) segment."""
    n = len(inputs.psets)
    return {source: [(s * 7 + e) % n for e in range(epochs)]
            for s, source in enumerate(PREFILL_SOURCES)}


def prefill(warehouse, inputs: Inputs, plan, negative: bool) -> None:
    """Hundreds of real segments, samples segments, baseline, then compaction."""
    for source, indices in plan.items():
        items = [(inputs.psets[i], epoch) for epoch, i in enumerate(indices)
                 if not (negative and source == "db" and epoch == 20)]
        for start in range(0, len(items), 32):
            warehouse.ingest_many(source, items[start:start + 32])
        for j in range(STATE_SEGMENTS):
            warehouse.ingest_state(source,
                                   inputs.states[j % len(inputs.states)])
    warehouse.save_baseline("clean", baseline(inputs, plan))
    warehouse.compact()


def baseline(inputs: Inputs, plan):
    from repro.core.profileset import ProfileSet
    return ProfileSet.merged(inputs.psets[i] for i in plan["web"][:16])


QUERIES = [
    "SELECT op, count() WHERE source != 'service' GROUP BY op ORDER BY op",
    "SELECT source, op, count(), p50(), p99() WHERE source IN "
    "('web', 'db', 'batch') GROUP BY source, op ORDER BY source, op",
    "SELECT op, emd('clean') WHERE source = 'db' GROUP BY op ORDER BY op",
    "SELECT op, count() WHERE source = 'batch' AND epoch >= {lo} AND "
    "epoch_end <= {hi} GROUP BY op ORDER BY op",
    "SELECT state, wait_site, count() WHERE source = 'web' "
    "GROUP BY state, wait_site ORDER BY state, wait_site",
]


def _percentile_mid(hist, q: float, spec) -> float:
    # The dialect's rule: midpoint of the smallest bucket whose
    # cumulative count reaches q percent of the operations.
    counts = hist.counts()
    target = q / 100.0 * sum(counts.values())
    cum = 0
    for bucket in sorted(counts):
        cum += counts[bucket]
        if cum >= target:
            return spec.mid(bucket)
    return spec.mid(max(counts))


def reference_answers(inputs: Inputs, plan) -> tuple:
    """The query mix and each query's answer, from the set-up inputs alone."""
    from repro.analysis.compare import earth_movers_distance
    from repro.core.profileset import ProfileSet
    lo, hi = EPOCH_RANGE
    queries = [q.format(lo=lo, hi=hi) for q in QUERIES]
    merged = {s: ProfileSet.merged(inputs.psets[i] for i in plan[s])
              for s in PREFILL_SOURCES}
    everything = ProfileSet.merged(merged.values())
    answers = [[[p.operation, p.total_ops]
                for p in sorted(everything, key=lambda p: p.operation)]]
    rows = []
    for source in sorted(PREFILL_SOURCES):
        pset = merged[source]
        for p in sorted(pset, key=lambda p: p.operation):
            rows.append([source, p.operation, p.total_ops,
                         _percentile_mid(p.histogram, 50, pset.spec),
                         _percentile_mid(p.histogram, 99, pset.spec)])
    answers.append(rows)
    clean = baseline(inputs, plan)
    answers.append([[p.operation,
                     earth_movers_distance(p.histogram,
                                           clean[p.operation].histogram)
                     if p.operation in clean else None]
                    for p in sorted(merged["db"], key=lambda p: p.operation)])
    ranged = ProfileSet.merged(inputs.psets[i]
                               for e, i in enumerate(plan["batch"])
                               if lo <= e <= hi)
    answers.append([[p.operation, p.total_ops]
                    for p in sorted(ranged, key=lambda p: p.operation)])
    cells: Dict[tuple, int] = {}
    for j in range(STATE_SEGMENTS):
        for (state, _layer, _op, site), count in \
                inputs.states[j % len(inputs.states)]:
            cells[(state, site)] = cells.get((state, site), 0) + count
    answers.append([[state, site, count]
                    for (state, site), count in sorted(cells.items())])
    return queries, answers


# -- one round ----------------------------------------------------------------------

class Round:
    """Set-up, measurement and checks of one round; the servers die with it."""

    def __init__(self, workload: str, args, root: Path, index: int,
                 inputs: Inputs, traced: bool, fixed: bool,
                 speed: Optional[HostSpeed]):
        self.workload = workload
        self.inputs = inputs
        self.speed = speed
        self.args = args
        self.root = root
        self.traced = traced
        self.fixed = fixed
        self.workdir = root / ".perfbench" / "work" / \
            f"{workload}-{os.getpid()}-{index}"
        self.launched: List[Launched] = []
        self.tracer = Tracer("g") if traced else None
        self.stops: Dict[str, dict] = {}

    def probe(self) -> None:
        if self.speed is not None:
            self.speed.sample(PROBES)

    def setup(self) -> float:
        """Builds the warehouse and servers; returns host seconds."""
        self.probe()
        started = time.perf_counter()
        shutil.rmtree(self.workdir, ignore_errors=True)
        self.workdir.mkdir(parents=True)
        extra = []
        if self.workload == "analytics":
            from repro.warehouse.warehouse import Warehouse
            self.plan = prefill_plan(self.inputs,
                                     sizes(self.args.smoke)["epochs"])
            prefill(Warehouse(self.workdir / "wh"), self.inputs, self.plan,
                    self.args.negative)
            self.queries, self.answers = reference_answers(self.inputs,
                                                           self.plan)
            extra += ["--compact-every", str(COMPACT_EVERY)]
        self.rootd = self._launch("root", extra)
        if self.workload == "ingest":
            host, port = self.rootd.address
            self.relayd = self._launch(
                "relay", ["--upstream", f"{host}:{port}"]
                + (["--whole-batches"] if self.fixed else []))
        return time.perf_counter() - started

    def _launch(self, role: str, extra: list) -> Launched:
        launched = Launched(self.root, role, self.workdir, extra, self.traced)
        self.launched.append(launched)
        return launched

    def measure(self, seconds: float, pushes: Optional[int]) -> None:
        drop = 3 if self.args.negative else None
        if self.workload == "ingest":
            # Warm-up and fixed counts are whole relay batches.
            batch = self.relayd.info["batch"]
            if pushes is not None and pushes % batch:
                raise ValueError(f"{pushes} pushes are not whole relay "
                                 f"batches of {batch}")
            self.pushers = [
                Pusher("direct", self.rootd.address, self.inputs, 0,
                       self.tracer, state_every=STATE_EVERY, drop=drop),
                Pusher("relayed", self.relayd.address, self.inputs,
                       len(self.inputs.payloads) // 2, self.tracer,
                       relay=self.relayd,
                       lockstep=batch if self.fixed else 0)]
            self.connections = list(self.pushers)
            warm = batch
        else:
            self.pushers = [Pusher("pusher", self.rootd.address, self.inputs,
                                   0, self.tracer)]
            self.querier = Querier(self.rootd.address, self.queries,
                                   self.answers, self.tracer)
            self.connections = self.pushers + [self.querier]
            warm = len(self.queries)
        self.probe()
        self.started, self.wall = drive(self.connections, warm, seconds,
                                        pushes)
        for conn in self.connections:
            conn.close()

    def finish(self, result: Result) -> None:
        for conn in self.connections:
            result.attempted += conn.attempted
            result.failed += conn.failed
            for error in conn.errors:
                result.check(False, error)
        if self.workload == "ingest":
            relayed = self.pushers[1]
            # A timed round leaves a partial batch to the relay's flush;
            # the root's counters are read once it has landed.
            self.relayd.ask(cmd="wait", entries=len(relayed.acked))
            self.relay_counters = self.relayd.ask(cmd="finish")
        self.root_counters = self.rootd.ask(cmd="finish")
        if self.workload == "ingest":
            relay = self.relay_counters
            result.check(relay["pending"] == 0,
                         f"relay spool not drained: {relay['pending']} left")
            result.check(relay["forwarded_entries"] == len(relayed.acked)
                         and relay["duplicates"] == 0,
                         f"relay forwarded {relay['forwarded_entries']} of "
                         f"{len(relayed.acked)} acked pushes, "
                         f"{relay['duplicates']} duplicates")
        else:
            for mismatch in self.querier.mismatches:
                result.check(False, f"sql answer differs: {mismatch}")
        result.check(self.root_counters["flush_errors"] == 0,
                     f"{self.root_counters['flush_errors']} warehouse "
                     f"flush errors")
        for error in self.root_counters["compact_errors"]:
            result.check(False, f"compaction failed: {error}")
        # The relay stops first: its drain forwards anything left.
        for launched in reversed(self.launched):
            self.stops[launched.role] = launched.stop()
        self.launched.clear()
        self.probe()
        self.inexact_totals = check_exactly_once(
            result, self.workdir, self.root_counters, self.inputs,
            self.pushers, self.relay_counters["forwarded_batches"]
            if self.workload == "ingest" else 0)
        self.spans = self.tracer.dump() if self.tracer else []
        for stop in self.stops.values():
            if "spans" in stop:
                self.spans += json.loads(Path(stop["spans"]).read_text())

    def rss_mb(self) -> float:
        return sum(stop["rss_mb"] for stop in self.stops.values())

    def close(self) -> None:
        for launched in self.launched:
            launched.kill()
        shutil.rmtree(self.workdir, ignore_errors=True)


def run_round(workload, args, root, index, result, inputs, *, traced=False,
              seconds=0.0, pushes=None, speed=None) -> Round:
    rnd = Round(workload, args, root, index, inputs, traced,
                fixed=pushes is not None, speed=speed)
    try:
        rnd.setup_s = rnd.setup()
        rnd.measure(seconds, pushes)
        rnd.finish(result)
    finally:
        rnd.close()
    return rnd


# -- the workloads -----------------------------------------------------------------

def run(args, root: Path) -> Result:
    result = Result(args.workload)
    if args.trace:
        traced_run(args, root, result)
    else:
        timed_run(args, root, result)
    return result


def _main_and_aux(workload: str, rnd: Round) -> tuple:
    """(main connection, aux connection, pushers counted for throughput)."""
    if workload == "ingest":
        return rnd.pushers[0], rnd.pushers[1], rnd.pushers
    return rnd.querier, rnd.pushers[0], rnd.pushers[:1]


def windows(rnd: Round, ends: List[float]) -> List[int]:
    """Requests completed per WINDOW_S window of one round.

    The last window absorbs the remainder of the round.
    """
    count = max(1, int(rnd.wall // WINDOW_S))
    out = [0] * count
    for end in ends:
        out[min(int((end - rnd.started) / WINDOW_S), count - 1)] += 1
    return out


def timed_run(args, root: Path, result: Result) -> None:
    work = root / ".perfbench" / "work"
    work.mkdir(parents=True, exist_ok=True)
    echo = Echo()
    # The relay fsyncs its spool on every push, so ingest's times follow
    # the disk; an analytics push mostly waits behind SQL on the
    # service's loop, and timing the disk there only added noise.
    syncs = (SyncedAppends(work / f"synced-{os.getpid()}")
             if args.workload == "ingest" else None)
    try:
        speed = HostSpeed(echo, syncs)
        builds = []
        for _ in range(INPUT_BUILDS):
            speed.sample(PROBES)
            started = time.perf_counter()
            inputs = Inputs(args.seed, args.smoke)
            builds.append(time.perf_counter() - started)
        rounds = [run_round(args.workload, args, root, i, result, inputs,
                            seconds=args.seconds / ROUNDS, speed=speed)
                  for i in range(ROUNDS)]
    finally:
        if syncs is not None:
            syncs.close()
        echo.close()
    inputs_s = median(builds)
    main, aux, rates = [], [], []
    for rnd in rounds:
        main_conn, aux_conn, counted = _main_and_aux(args.workload, rnd)
        main += main_conn.latencies
        aux += aux_conn.latencies
        done = windows(rnd, [end for c in counted for end in c.ends])
        last = rnd.wall - (len(done) - 1) * WINDOW_S
        rates += [w / WINDOW_S for w in done[:-1]] + [done[-1] / last]
    if not (main and aux):
        result.check(False, "a connection completed no timed request")
        return
    if args.workload == "ingest":
        names = ("push_per_s: acked pushes per second, both connections",
                 "push", "direct connection", "relay_push",
                 "relayed connection, acked by the leaf relay")
    else:
        names = ("push_per_s: acked pushes per second, pusher connection",
                 "sql", "SQL round trip", "push", "pusher connection")
    # Reference-host figures: every time is scaled by the run's host speed.
    scale = speed.scale
    main_q, main_tail = tail(main)
    aux_q, aux_tail = tail(aux)
    setup_s = inputs_s + median([r.setup_s for r in rounds])
    result.metric("setup_s", setup_s * scale, "s",
                  f"capturing the inputs (median of {len(builds)}) plus the "
                  f"median of {len(rounds)} server set-ups, reference-host "
                  f"time; host time {setup_s:.4f} s")
    result.metric("throughput_per_s", median(rates) / scale, "1/s",
                  f"{names[0]}, median over {len(rates)} windows of "
                  f"{WINDOW_S:g} s, per reference-host second; per host "
                  f"second {median(rates):.5g}")
    result.metric("main_p50_ms", median(main) * scale * 1e3, "ms",
                  f"{names[1]}_p50_ms: {names[2]}, p50 of {len(main)}, "
                  f"reference-host time; host time "
                  f"{median(main) * 1e3:.4g} ms")
    result.metric("aux_p50_ms", median(aux) * scale * 1e3, "ms",
                  f"{names[3]}_p50_ms: {names[4]}, p50 of {len(aux)}, "
                  f"reference-host time; host time "
                  f"{median(aux) * 1e3:.4g} ms")
    result.metric("peak_rss_mb", max(r.rss_mb() for r in rounds), "MB",
                  "sum of the peak RSS of the server processes")
    # The tails carry no bound (see manifest.json) but every run shows them.
    result.notes.append(f"{names[1]}_p99_ms: {main_tail * 1e3:.4g} ms "
                        f"host time (p{main_q:g} of {len(main)}, "
                        f"{names[2]})")
    result.notes.append(f"{names[3]}_p99_ms: {aux_tail * 1e3:.4g} ms "
                        f"host time (p{aux_q:g} of {len(aux)}, {names[4]})")
    result.notes.append(speed.describe())
    if args.workload == "ingest":
        result.notes.append(
            f"relay.inexact_totals: {sum(r.inexact_totals for r in rounds)} "
            f"operations over {len(rounds)} rounds whose stored total "
            f"latency differs in the last place from the exact flat merge "
            f"of the acked pushes (the relay encodes each batch's totals "
            f"as one float)")
    result.notes.append(
        f"failed_ratio: {result.failed / max(result.attempted, 1):.6g} "
        f"({result.failed} failed, refused or retried of "
        f"{result.attempted})")


def _us(values: List[float], q: float) -> float:
    return percentile(values, q) * 1e6


def _ms(values: List[float], q: float) -> float:
    return percentile(values, q) * 1e3


def traced_run(args, root: Path, result: Result) -> None:
    """An untraced round and a traced round of the same fixed work."""
    pushes = sizes(args.smoke)["traced"]
    inputs = Inputs(args.seed, args.smoke)
    plain = run_round(args.workload, args, root, 0, result, inputs,
                      pushes=pushes)
    traced = run_round(args.workload, args, root, 1, result, inputs,
                       traced=True, pushes=pushes)
    spans = traced.spans
    result.spans = spans
    plain_main = _main_and_aux(args.workload, plain)[0].latencies
    traced_main = _main_and_aux(args.workload, traced)[0].latencies
    if not (plain_main and traced_main):
        result.check(False, "a connection completed no timed request")
        return
    rc = traced.root_counters
    stops = traced.stops
    acked = sum(len(p.acked) + len(p.acked_states) for p in traced.pushers)
    payload_bytes = sum(len(traced.inputs.payloads[i])
                        for p in traced.pushers for i in p.acked) + sum(
        len(traced.inputs.states[i].to_bytes())
        for p in traced.pushers for i in p.acked_states)
    ingest = durations(spans, "service.ingest")
    commits = durations(spans, "warehouse.commit")
    state_commits = durations(spans, "warehouse.state_commit")
    result.metric("service.ingest_p50_us", _us(ingest, 50), "us")
    result.metric("service.ingest_p99_us", _us(ingest, 99), "us")
    result.metric("service.state_ingest_p99_us",
                  _us(durations(spans, "service.state_ingest"), 99), "us")
    result.metric("alerts.observe_p99_us",
                  _us(durations(spans, "alerts.observe"), 99), "us")
    result.metric("warehouse.commits", len(commits) + len(state_commits),
                  "count", "segment commits plus samples commits")
    result.metric("warehouse.commit_p50_ms", _ms(commits, 50), "ms")
    result.metric("warehouse.commit_p99_ms", _ms(commits, 99), "ms")
    result.metric("warehouse.state_commit_p99_ms", _ms(state_commits, 99),
                  "ms")
    result.metric("store.segments_closed", rc["segments_closed"], "count")
    wh_fsyncs = stops["root"]["fsyncs"]
    relay_fsyncs = stops["relay"]["fsyncs"] if "relay" in stops else 0
    result.metric("durable.fsyncs.warehouse", wh_fsyncs, "count")
    result.metric("durable.fsyncs.relay", relay_fsyncs, "count")
    result.metric("durable.fsyncs_per_push",
                  (wh_fsyncs + relay_fsyncs) / max(acked, 1), "ratio")
    durable_bytes = stops["root"]["bytes"] + (
        stops["relay"]["bytes"] if "relay" in stops else 0)
    result.metric("durable.bytes_per_payload_byte",
                  durable_bytes / max(payload_bytes, 1), "ratio")
    if args.workload == "ingest":
        relay = traced.relay_counters
        result.metric("relay.accept_p99_us",
                      _us(durations(spans, "relay.accept"), 99), "us")
        result.metric("relay.forward_p99_ms",
                      _ms(durations(spans, "relay.forward"), 99), "ms")
        result.metric("relay.forward_batches", relay["forwarded_batches"],
                      "count")
        result.metric("relay.entries_per_batch", relay["forwarded_entries"]
                      / max(relay["forwarded_batches"], 1), "ratio")
        result.metric("relay.forward_errors", relay["forward_errors"],
                      "count")
        result.metric("relay.inexact_totals", traced.inexact_totals, "count",
                      "operations whose stored total latency differs in the "
                      "last place from the exact flat merge of the acked "
                      "pushes (the relay encodes each batch's totals as "
                      "one float)")
    result.metric("service.backpressure_rejections", rc["backpressure"],
                  "count")
    result.metric("service.duplicates", rc["duplicates"], "count")
    if args.workload == "analytics":
        result.metric("sql.parse_p99_us",
                      _us(durations(spans, "sql.parse"), 99), "us")
        execute = durations(spans, "sql.execute")
        result.metric("sql.execute_p50_ms", _ms(execute, 50), "ms")
        result.metric("sql.execute_p99_ms", _ms(execute, 99), "ms")
        result.metric("service.flush_p99_ms",
                      _ms(durations(spans, "service.flush"), 99), "ms")
        lookups = rc["cache_hits"] + rc["cache_misses"]
        result.metric("warehouse.cache_hit_ratio",
                      rc["cache_hits"] / max(lookups, 1), "ratio")
        result.metric("warehouse.segments_live", rc["segments_live"], "count")
        result.metric("warehouse.compact_s",
                      sum(durations(spans, "warehouse.compact")), "s")
        result.metric("warehouse.compactions", rc["compactions"], "count")
    main_conn, aux_conn, _ = _main_and_aux(args.workload, traced)
    tails = {"ingest": (("client.push_tail_ms", main_conn),
                        ("client.relay_push_tail_ms", aux_conn)),
             "analytics": (("client.sql_tail_ms", main_conn),
                           ("client.push_tail_ms", aux_conn))}
    for name, conn in tails[args.workload]:
        q, value = tail(conn.latencies)
        result.metric(name, value * 1e3, "ms",
                      f"p{q:g} of {len(conn.latencies)}, traced round")
    result.metric("trace.overhead_ratio",
                  median(traced_main) / median(plain_main) - 1.0, "ratio",
                  "traced minus untraced main p50, over untraced, same work")
