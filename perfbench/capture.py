"""The ``capture`` workload: serial captures through ``osprof run``'s capture funnels.

One pass runs the fixed capture set below.  An unsampled item is the
one-shard task ``osprof run`` executes (``core.shard.run_shard``: build
the machine, run the workload, encode one layer); a sampled item goes
through ``workloads.runner.collect_sampled_run``, as ``osprof run
--sample-interval`` does, so its measured bytes must equal its
unsampled twin's.  The service and warehouse do nothing here.

The benchmark seed is every item's simulation seed.  ``osprof run
--seed S`` simulates with ``derive_seed(S, "shard:0")`` instead; the
benchmark skips that derivation so that at seed 2006 the recorded
layers are exactly the captures pinned in
``tests/integration/profile_pins.json`` (see ``PINS``).
"""

from __future__ import annotations

import cProfile
import hashlib
import json
import pstats
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List, Optional

from measure import HostSpeed, Result, median, peak_rss_mb, tail
from spans import Tracer, durations

#: (item, scenario, workload, sampled, layer).  ``scenario`` None is the
#: stock spindle with ``osprof run grep``'s defaults.  Scenario rows
#: record the driver layer and grep the fs layer, the layers their pins
#: cover; a sampled item records its twin's layer.
CAPTURE_SET = (
    ("spindle-randomread", "spindle-randomread", "randomread", False,
     "driver"),
    ("ssd-gc", "ssd-gc", "postmark", False, "driver"),
    ("raid0-stripe", "raid0-stripe", "randomread-private", False, "driver"),
    ("throttled-iops", "throttled-iops", "randomread", False, "driver"),
    ("grep-ext2", None, "grep", False, "fs"),
    ("spindle-randomread+sampled", "spindle-randomread", "randomread", True,
     "driver"),
    ("ssd-gc+sampled", "ssd-gc", "postmark", True, "driver"),
)

#: Item -> its pin in ``tests/integration/profile_pins.json``: the same
#: configuration, seed and layer, at full size and seed 2006.  No
#: sampled item's state profile has a pin: ``state_pins.json`` pins
#: randomread at 2x300 without a scenario and throttled-iops, neither
#: of which is in the set.
PINS = {
    "spindle-randomread": "scenario-spindle-randomread",
    "ssd-gc": "scenario-ssd-gc",
    "raid0-stripe": "scenario-raid0-stripe",
    "throttled-iops": "scenario-throttled-iops",
    "grep-ext2": "grep-ext2-fs",
    "spindle-randomread+sampled": "scenario-spindle-randomread",
    "ssd-gc+sampled": "scenario-ssd-gc",
}

#: The wait-state sampler interval of the sampled items (0.5 ms).
SAMPLE_INTERVAL_S = 0.0005

#: The seed the kept digests in ``digests.json`` and the pins were
#: captured with.
DEFAULT_SEED = 2006

#: Set-ups per run; setup_s is their median.  A warm-up pass takes a
#: few tenths of a second, so one slow burst of the host moves a single
#: set-up by half; five keep the median steady.
SETUPS = 5

#: Smoke mode divides every request count by this.
SMOKE_DIVISOR = 20

#: Packages whose self time the traced run reports, in report order.
PACKAGES = ("sim", "rng", "disk", "vfs", "fs", "core", "sampling",
            "workloads")

HERE = Path(__file__).resolve().parent


def _params(scenario: Optional[str], smoke: bool) -> dict:
    from repro.scenarios import get_scenario
    if scenario is None:
        params = dict(fs_type="ext2", scale=0.02, processes=2,
                      iterations=1000)
    else:
        row = get_scenario(scenario)
        params = dict(fs_type=row.fs_type, scale=row.scale,
                      processes=row.processes, iterations=row.iterations)
    if smoke:
        params["iterations"] = max(10, params["iterations"] // SMOKE_DIVISOR)
        params["scale"] = params["scale"] / 4
    return params


class SystemTap:
    """Keeps the last ``System`` the scenario funnel built.

    Both capture entry points build their machine through
    ``repro.scenarios.build_system`` (looked up at call time), so
    wrapping that one function exposes the machine whose public
    counters the run reads after each capture.
    """

    def __init__(self):
        import repro.scenarios as scenarios
        self._module = scenarios
        self._original = scenarios.build_system
        self.system = None

    def __enter__(self) -> "SystemTap":
        original = self._original

        def build_system(*args, **kwargs):
            self.system = original(*args, **kwargs)
            return self.system

        self._module.build_system = build_system
        return self

    def __exit__(self, *exc) -> None:
        self._module.build_system = self._original

    def take(self):
        system, self.system = self.system, None
        return system


def run_item(item: tuple, seed: int, smoke: bool) -> dict:
    """Capture one item; returns its recorded layer's bytes and sampler output."""
    from repro.core.shard import ShardTask, run_shard
    from repro.sim.engine import seconds
    from repro.workloads.runner import collect_sampled_run
    _name, scenario, workload, sampled, layer = item
    params = _params(scenario, smoke)
    if sampled:
        layers, sprof, health = collect_sampled_run(
            workload, state_sample_interval=seconds(SAMPLE_INTERVAL_S),
            seed=seed, scenario=scenario, **params)
        return {"measured": layers[layer].to_bytes(),
                "state": sprof.to_bytes(), "health": health}
    task = ShardTask(workload=workload, index=0, shards=1, seed=seed,
                     layer=layer, scenario=scenario, **params)
    return {"measured": run_shard(task), "state": None, "health": None}


def system_counts(system) -> Dict[str, int]:
    """Public counters of one simulated machine after its capture."""
    disk_cache = getattr(system.disk.model, "cache", None)
    pagecache = system.vfs.pagecache
    return {
        "events": system.engine.events_processed,
        "context_switches": system.kernel.context_switches,
        "disk_requests": system.disk.requests_served,
        "disk_cache_hits": disk_cache.hits if disk_cache else 0,
        "disk_cache_lookups": (disk_cache.hits + disk_cache.misses)
        if disk_cache else 0,
        "pagecache_hits": pagecache.hits,
        "pagecache_lookups": pagecache.hits + pagecache.misses,
    }


def run_pass(seed: int, smoke: bool, tap: SystemTap,
             tracer: Optional[Tracer] = None,
             speed: Optional[HostSpeed] = None) -> List[dict]:
    """One pass over the capture set; per item: time, bytes, counters.

    With *speed* the host's speed is probed before every item.
    """
    out = []
    for item in CAPTURE_SET:
        if speed is not None:
            speed.sample()
        started = time.perf_counter()
        if tracer is None:
            captured = run_item(item, seed, smoke)
        else:
            captured = tracer.call(f"capture.{item[0]}", run_item,
                                   (item, seed, smoke), rid=item[0])
        captured["seconds"] = time.perf_counter() - started
        captured["counts"] = system_counts(tap.take())
        captured["item"] = item[0]
        out.append(captured)
    return out


def digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def pass_digests(results: List[dict]) -> Dict[str, str]:
    out = {}
    for r in results:
        out[r["item"]] = digest(r["measured"])
        if r["state"] is not None:
            out[r["item"] + ":state"] = digest(r["state"])
    return out


# -- correctness ---------------------------------------------------------------

def check_pass(result: Result, results: List[dict],
               reference: Dict[str, str],
               pins: Optional[Dict[str, str]] = None) -> None:
    """Checks one pass: codec, sampled == unsampled, digests, pins.

    *reference* holds the digests every item must repeat; *pins* (full
    size at the default seed only) the repo's pinned digests, which the
    items with a ``PINS`` entry must equal.
    """
    from repro.core.profileset import ProfileSet
    from repro.sampling.stateprofile import StateProfile
    by_item = {r["item"]: r for r in results}
    for r in results:
        try:
            pset = ProfileSet.from_bytes(r["measured"])
            result.check(not pset.verify_checksums() and pset.total_ops() > 0,
                         f"{r['item']}: empty or checksum-failing profile")
            if r["state"] is not None:
                sprof = StateProfile.from_bytes(r["state"])
                result.check(sprof.total_samples() > 0,
                             f"{r['item']}: sampler took no samples")
        except ValueError as exc:
            result.check(False, f"{r['item']}: payload does not decode: {exc}")
    for name, r in by_item.items():
        if name.endswith("+sampled"):
            twin = by_item[name[:-len("+sampled")]]
            result.check(r["measured"] == twin["measured"],
                         f"{name}: measured bytes differ from the unsampled "
                         f"capture (the sampler perturbed the simulation)")
    digests = pass_digests(results)
    for key, value in digests.items():
        want = reference.get(key)
        result.check(want is not None and want == value,
                     f"{key}: digest {value[:12]} differs from the reference "
                     f"{(want or 'missing')[:12]}")
    for item, pin in (PINS.items() if pins is not None else ()):
        result.check(digests[item] == pins[pin],
                     f"{item}: digest {digests[item][:12]} differs from the "
                     f"pin {pin} {pins[pin][:12]}")


def kept_digests(smoke: bool) -> Dict[str, str]:
    table = json.loads((HERE / "digests.json").read_text(encoding="utf-8"))
    return table["smoke" if smoke else "full"]


def read_pins(root: Path) -> Dict[str, str]:
    """The repo's pinned capture digests (read only)."""
    path = root / "tests" / "integration" / "profile_pins.json"
    return json.loads(path.read_text(encoding="utf-8"))


# -- set-up ----------------------------------------------------------------------

def setup(speed: HostSpeed) -> float:
    """Warm the capture path with one smoke-size pass; returns host seconds.

    Imports, registry lookups and first-call costs are paid here, so
    the timed passes start warm.  The benchmark has no other inputs to
    build: the capture set and the seed are the whole input.  The pass
    runs at the default seed, because a smoke pass's size varies with
    the seed and set-up time should vary only with the program.
    """
    speed.sample(4)
    started = time.perf_counter()
    for item in CAPTURE_SET:
        run_item(item, DEFAULT_SEED, smoke=True)
    return time.perf_counter() - started


# -- attribution -----------------------------------------------------------------

def _package(filename: str, funcname: str) -> str:
    """Which layer a profiled function's own time belongs to."""
    path = filename.replace("\\", "/")
    if "/repro/" in path:
        rel = path.split("/repro/", 1)[1]
        if rel == "sim/rng.py":
            return "rng"
        head = rel.split("/", 1)[0]
        return head if head in PACKAGES else "other"
    if path.endswith("/random.py") or "_random.Random" in funcname:
        return "rng"
    return ""  # not the program's: charged to its caller


def package_self_times(profile: cProfile.Profile) -> Dict[str, float]:
    """Self time per package; foreign code is charged to its caller.

    Builtins and standard-library functions (other than ``random``)
    are split over their callers by per-edge time, so ``heapq`` pushes
    count as ``sim`` and dict merges in the codec as ``core``.
    """
    stats = pstats.Stats(profile).stats
    totals = {name: 0.0 for name in PACKAGES + ("other",)}
    for (filename, _line, funcname), (_cc, _nc, tt, _ct, callers) \
            in stats.items():
        package = _package(filename, funcname)
        if package:
            totals[package] += tt
            continue
        charged = 0.0
        for (cfile, _cline, cfunc), edge in callers.items():
            owner = _package(cfile, cfunc) or "other"
            totals[owner] += edge[2]
            charged += edge[2]
        totals["other"] += max(tt - charged, 0.0)
    return totals


# -- the workload ------------------------------------------------------------------

def run(args, root: Path) -> Result:
    result = Result("capture")
    tap = SystemTap()
    speed = HostSpeed()
    setups = [setup(speed) for _ in range(SETUPS)]
    kept = pins = None
    if args.seed == DEFAULT_SEED:
        kept = kept_digests(args.smoke)
        pins = None if args.smoke else read_pins(root)
    with tap:
        if args.trace:
            traced_run(args, result, tap, kept, pins)
        else:
            timed_run(args, root, result, tap, kept, pins, setups, speed)
    return result


def _reference(first: List[dict], kept: Optional[Dict[str, str]]):
    # At the default seed the kept digests are the reference; at any
    # other seed every pass must repeat the first one exactly.
    return kept if kept is not None else pass_digests(first)


def _negative(results: List[dict]) -> None:
    """Flip one payload byte, as a damaged capture would."""
    damaged = bytearray(results[0]["measured"])
    damaged[len(damaged) // 2] ^= 0x01
    results[0]["measured"] = bytes(damaged)


def fresh_pass(root: Path, seed: int, smoke: bool) -> dict:
    """One pass in a new interpreter: its digests and peak RSS.

    Peak RSS of the long-running benchmark process grows with the number
    of passes that fit in a run (allocator fragmentation), so memory is
    measured where a user meets it: one process, one capture set.
    """
    cmd = [sys.executable, str(HERE / "capture.py"), "--fresh-pass",
           str(seed)] + (["--smoke"] if smoke else [])
    done = subprocess.run(cmd, cwd=str(root), stdout=subprocess.PIPE,
                          text=True, timeout=120, check=True)
    return json.loads(done.stdout.splitlines()[-1])


def timed_run(args, root: Path, result: Result, tap: SystemTap, kept, pins,
              setups: List[float], speed: HostSpeed) -> None:
    deadline = time.perf_counter() + args.seconds
    passes: List[List[dict]] = []
    while not passes or (time.perf_counter() < deadline and len(passes) < 64):
        results = run_pass(args.seed, args.smoke, tap, speed=speed)
        if args.negative and not passes:
            _negative(results)
        passes.append(results)
        result.attempted += len(results)
    reference = _reference(passes[0], kept)
    for results in passes:
        check_pass(result, results, reference, pins)
    fresh = fresh_pass(root, args.seed, args.smoke)
    result.check(fresh["digests"] == pass_digests(passes[-1]),
                 "a pass in a fresh process captured other bytes than the "
                 "timed passes")
    # Per item, the median of its times over the passes, in
    # reference-host seconds; a set figure is the sum over items.  A
    # per-item median rides out a slow burst of the host that a
    # whole-pass median would absorb.
    n = len(passes)
    scale = speed.scale
    raw = {item[0]: median([p[i]["seconds"] for p in passes])
           for i, item in enumerate(CAPTURE_SET)}
    mid = {name: t * scale for name, t in raw.items()}
    events = {r["item"]: r["counts"]["events"] for r in passes[0]}
    sampled = {item[0] for item in CAPTURE_SET if item[3]}
    unsampled_s = sum(t for name, t in mid.items() if name not in sampled)
    pass_tail_q, pass_tail = tail([sum(r["seconds"] for r in p)
                                   for p in passes])
    result.metric("setup_s", median(setups) * scale, "s",
                  f"median of {len(setups)} set-ups, reference-host time; "
                  f"host time {median(setups):.4f} s")
    result.metric("throughput_per_s",
                  sum(e for name, e in events.items() if name not in sampled)
                  / unsampled_s, "1/s",
                  f"capture_events_per_s: simulated engine events per "
                  f"reference-host second over the unsampled items "
                  f"(per-item medians of {n} passes)")
    result.metric("main_p50_ms", sum(mid.values()) * 1e3, "ms",
                  f"capture_s: reference-host time of the "
                  f"{len(CAPTURE_SET)}-item capture set, sum of per-item "
                  f"medians of {n} passes; host time "
                  f"{sum(raw.values()):.3f} s, slowest pass "
                  f"p{pass_tail_q:g} {pass_tail:.3f} s")
    result.metric("aux_p50_ms", sum(mid[name] for name in sampled) * 1e3,
                  "ms", f"the sampled share (two captures with the sampler "
                  f"at 0.5 ms), sum of per-item medians, reference-host "
                  f"time; host time "
                  f"{sum(raw[name] for name in sampled) * 1e3:.1f} ms")
    result.metric("peak_rss_mb", fresh["peak_rss_mb"], "MB",
                  "peak RSS of a fresh process running one pass of the "
                  "capture set")
    result.notes.append(speed.describe())


def traced_run(args, result: Result, tap: SystemTap, kept, pins) -> None:
    """One untraced pass, then one pass under spans and cProfile."""
    from repro.core.profileset import ProfileSet
    plain = run_pass(args.seed, args.smoke, tap)
    tracer = Tracer("c")
    encode = tracer.wrap(ProfileSet, "to_bytes", "core.encode")
    profile = cProfile.Profile()
    started = time.perf_counter()
    profile.enable()
    try:
        traced = run_pass(args.seed, args.smoke, tap, tracer)
    finally:
        profile.disable()
        ProfileSet.to_bytes = encode
    traced_s = time.perf_counter() - started
    if args.negative:
        _negative(plain)
    result.attempted = 2 * len(CAPTURE_SET)
    reference = _reference(traced, kept)
    check_pass(result, plain, reference, pins)
    check_pass(result, traced, reference, pins)
    plain_s = sum(r["seconds"] for r in plain)
    selfs = package_self_times(profile)
    for package in PACKAGES:
        result.metric(f"{package}.self_s", selfs[package], "s")
    result.metric("other.self_s", selfs["other"], "s",
                  "interpreter and glue code outside the named packages")
    result.metric("capture.traced_s", traced_s, "s",
                  "host time of the traced pass")
    result.metric("capture.self_coverage",
                  sum(selfs.values()) / traced_s, "ratio",
                  "package self times over the traced pass time")
    totals: Dict[str, int] = {}
    for r in plain:
        for key, value in r["counts"].items():
            totals[key] = totals.get(key, 0) + value
    result.metric("sim.events", totals["events"], "count")
    result.metric("sim.context_switches", totals["context_switches"], "count")
    result.metric("disk.requests", totals["disk_requests"], "count")
    result.metric("disk.cache_hit_ratio", totals["disk_cache_hits"]
                  / max(totals["disk_cache_lookups"], 1), "ratio")
    result.metric("vfs.pagecache_hit_ratio", totals["pagecache_hits"]
                  / max(totals["pagecache_lookups"], 1), "ratio")
    sampled = [r for r in plain if r["health"] is not None]
    samples = sum(r["health"]["osprof_samples_total"] for r in sampled)
    ticks = sum(r["health"]["osprof_sample_intervals_total"] for r in sampled)
    overhead_ns = sum(r["health"]["osprof_sampler_overhead_ns_total"]
                      for r in sampled)
    by_item = {r["item"]: r for r in plain}
    twins_s = sum(by_item[r["item"][:-len("+sampled")]]["seconds"]
                  for r in sampled)
    result.metric("sampling.samples", samples, "count")
    result.metric("sampling.ns_per_tick", overhead_ns / max(ticks, 1), "ns")
    result.metric("sampling.overhead_ratio",
                  sum(r["seconds"] for r in sampled) / twins_s, "ratio",
                  "sampled over unsampled host time, same scenarios")
    result.metric("core.encode_s",
                  sum(durations(tracer.dump(), "core.encode")), "s",
                  "ProfileSet.to_bytes calls in the traced pass")
    result.metric("trace.overhead_ratio", traced_s / plain_s - 1.0, "ratio",
                  f"traced pass {traced_s:.3f} s minus untraced "
                  f"{plain_s:.3f} s, over untraced")
    result.spans = tracer.dump()


if __name__ == "__main__":
    # With --fresh-pass SEED [--smoke]: one pass, then its digests and
    # peak RSS as one JSON line (``fresh_pass``).  Without arguments:
    # regenerates digests.json, the recorded-layer and state digests of
    # one pass at the default seed, full size and smoke size.
    sys.path.insert(0, str(Path.cwd() / "src"))
    with SystemTap() as tap:
        if sys.argv[1:2] == ["--fresh-pass"]:
            one = run_pass(int(sys.argv[2]), "--smoke" in sys.argv, tap)
            print(json.dumps({"digests": pass_digests(one),
                              "peak_rss_mb": peak_rss_mb()}))
        else:
            table = {label: pass_digests(run_pass(DEFAULT_SEED, smoke, tap))
                     for label, smoke in (("full", False), ("smoke", True))}
            print(json.dumps(table, indent=2, sort_keys=True))
