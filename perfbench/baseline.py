"""Re-measures the ROADMAP's baseline table on the current host.

Run from the root of a checkout::

    python3 perfbench/baseline.py

Each row times one stage in isolation, the way the table's figures
were taken, and prints the ROADMAP's figure beside this host's median; the
benchmark's own metrics that cover the same stage are named in
``NOTES.md``, which also records the last results and why they differ.
"""

from __future__ import annotations

import cProfile
import shutil
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent


def timed(fn, repeat: int) -> float:
    """Median host seconds of *repeat* calls of *fn*."""
    from measure import median
    samples = []
    for _ in range(repeat):
        started = time.perf_counter()
        fn()
        samples.append(time.perf_counter() - started)
    return median(samples)


def simulate(workload: str, **params):
    """Build the stock machine, run *workload*; returns the System."""
    from repro.scenarios import build_system
    from repro.workloads.runner import run_named_workload
    system = build_system(None, seed=2006, with_timer=False)
    run_named_workload(system, workload, seed=2006, **params)
    return system


def simulator_rows():
    rows = []
    for label, workload, params, roadmap in (
            ("randomread 2x1000 events/s", "randomread",
             dict(processes=2, iterations=1000), "160k (53k events, 331 ms)"),
            ("grep events/s", "grep", dict(scale=0.02), "134k"),
            ("postmark events/s", "postmark", dict(iterations=1000), "125k")):
        events = simulate(workload, **params).engine.events_processed
        seconds = timed(lambda: simulate(workload, **params), 5)
        rows.append((label, roadmap,
                     f"{events / seconds / 1e3:.0f}k ({events / 1e3:.0f}k "
                     f"events, {seconds * 1e3:.0f} ms)"))
    import capture
    profile = cProfile.Profile()
    profile.enable()
    simulate("randomread", processes=2, iterations=1000)
    profile.disable()
    shares = capture.package_self_times(profile)
    total = sum(shares.values())
    for package, roadmap in (("sim", "54-62%"), ("core", "3-4%"),
                              ("rng", "~7%")):
        rows.append((f"randomread self time in {package}", roadmap,
                     f"{shares[package] / total:.0%}"))
    return rows


def downstream_rows(tmp: Path):
    from repro.core.profileset import ProfileSet
    from repro.service.server import ProfileService
    from repro.warehouse.sql import execute_sql
    from repro.warehouse.warehouse import Warehouse
    from repro.workloads.runner import collect_profiles
    pset = collect_profiles("randomread", processes=2, iterations=1000)
    payload = pset.to_bytes()
    service = ProfileService()
    rows = [
        ("encode one profile set", "~0.1 ms",
         f"{timed(pset.to_bytes, 500) * 1e3:.3f} ms"),
        ("decode one profile set", "~0.1 ms",
         f"{timed(lambda: ProfileSet.from_bytes(payload), 500) * 1e3:.3f}"
         f" ms"),
        ("service ingest (no warehouse)", "~0.1 ms",
         f"{timed(lambda: service.ingest_payload(payload), 500) * 1e3:.3f}"
         f" ms"),
    ]
    warehouse = Warehouse(tmp / "commit")
    epoch = iter(range(1_000_000))
    commit = timed(lambda: warehouse.ingest_many("s", [(pset, next(epoch))]),
                   100)
    rows.append(("one fsynced segment commit", "~0.6 ms",
                 f"{commit * 1e3:.2f} ms"))
    group_by = "SELECT op, count(), p99() GROUP BY op"
    small = Warehouse(tmp / "small")
    small.ingest_many("s", [(pset, e) for e in range(20)])
    small_s = timed(lambda: execute_sql(small, group_by), 20)
    rows.append(("20-segment SQL GROUP BY", "~2 ms",
                 f"{small_s * 1e3:.2f} ms"))
    big = Warehouse(tmp / "big")
    for start in range(0, 600, 50):
        big.ingest_many("s", [(pset, e) for e in range(start, start + 50)])
    raw_cold = timed(lambda: execute_sql(Warehouse(tmp / "big"), group_by), 3)
    raw_warm = timed(lambda: execute_sql(big, group_by), 10)
    big.compact()
    compacted = timed(lambda: execute_sql(big, group_by), 10)
    rows.append(("GROUP BY over 600 raw segments", "16-29 ms",
                 f"{raw_warm * 1e3:.1f} ms warm cache, "
                 f"{raw_cold * 1e3:.1f} ms cold"))
    rows.append(("GROUP BY after compaction", "~2 ms",
                 f"{compacted * 1e3:.2f} ms "
                 f"({len(big.segments('s'))} segments)"))
    return rows


def sampler_rows():
    from repro.sim.engine import seconds
    from repro.workloads.runner import (collect_layer_profiles,
                                        collect_sampled_run)
    params = dict(processes=2, iterations=600)
    plain = timed(lambda: collect_layer_profiles("randomread", **params), 5)
    sampled = timed(lambda: collect_sampled_run(
        "randomread", state_sample_interval=seconds(0.0005), **params), 5)
    _, _, health = collect_sampled_run(
        "randomread", state_sample_interval=seconds(0.0005), **params)
    per_tick = health["osprof_sampler_overhead_ns_total"] \
        / health["osprof_sample_intervals_total"]
    return [("sampler cost per tick (0.5 ms)", "5.8 us",
             f"{per_tick / 1e3:.1f} us"),
            ("sampler wall overhead (0.5 ms)", "+63%",
             f"{sampled / plain - 1:+.0%}")]


def main() -> int:
    root = Path.cwd()
    if not (root / "src" / "repro").is_dir():
        print("run from the root of a checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(root / "src"))
    sys.path.insert(0, str(HERE))
    (root / ".perfbench").mkdir(exist_ok=True)
    tmp = Path(tempfile.mkdtemp(prefix="baseline-", dir=root / ".perfbench"))
    try:
        rows = simulator_rows() + downstream_rows(tmp) + sampler_rows()
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    width = max(len(r[0]) for r in rows)
    print(f"{'stage'.ljust(width)}  {'ROADMAP':26}  this host")
    for label, roadmap, measured in rows:
        print(f"{label.ljust(width)}  {roadmap:26}  {measured}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
