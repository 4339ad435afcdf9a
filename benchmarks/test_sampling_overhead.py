"""Wait-state sampler overhead: observer-free bytes, bounded cost.

Two halves of the "always-on" claim:

* byte-identity — arming the sampler changes *nothing* measured: all
  three layer profiles of a sampled run are byte-identical to an
  unsampled run under the same seed, on every timed pair (always
  asserted, CI included);
* bounded cost — the sampler's record path (a process-table walk on
  each tick that follows another engine event, a repeat count on the
  rest) stays under a documented multiple of the unsampled wall time
  at the default half-millisecond interval.  The figure is the median
  over alternating unsampled/sampled pairs, so one noisy run cannot
  decide it (threshold enforced only outside CI, like every timing
  gate in this suite).
"""

import os
import statistics
import time

from conftest import run_once

from repro.workloads.runner import (collect_layer_profiles,
                                    collect_sampled_run)

SEED = 2006
ITERATIONS = 600
INTERVAL = 0.0005 * 1.7e9  # 0.5 ms of simulated time, in cycles
PAIRS = 5  # alternating unsampled/sampled pairs; the bound judges the median

#: Documented bound: at a 0.5 ms sampling interval the sampler may add
#: at most 75% to the wall time of a randomread run, judged on the
#: median of PAIRS alternating pairs.  (Medians of +27% to +55% over
#: six runs on a 2-vCPU VM, while single pairs in those runs swung from
#: +24% to +108% — the run has ~32k ticks, of which ~2.4k follow another
#: event and walk the process table; the slack absorbs shared-runner
#: noise.)
OVERHEAD_BOUND = 0.75


def run_plain():
    return collect_layer_profiles("randomread", seed=SEED, processes=2,
                                  iterations=ITERATIONS)


def run_sampled():
    return collect_sampled_run("randomread",
                               state_sample_interval=INTERVAL,
                               seed=SEED, processes=2,
                               iterations=ITERATIONS)


def timed(fn):
    start = time.perf_counter()
    result = fn()
    return result, time.perf_counter() - start


def test_sampling_overhead(benchmark, artifacts):
    def experiment():
        # Alternate the order so neither arm always runs on a warmer
        # host: odd pairs run unsampled first, even pairs sampled first.
        pairs = []
        for pair in range(1, PAIRS + 1):
            if pair % 2:
                plain = timed(run_plain)
                sampled = timed(run_sampled)
            else:
                sampled = timed(run_sampled)
                plain = timed(run_plain)
            pairs.append((plain, sampled))
        return pairs

    pairs = run_once(benchmark, experiment)

    # -- byte-identity: the sampler is a pure observer, on every pair ---------
    for pair, ((plain, _), ((sampled_layers, _, _), _)) in \
            enumerate(pairs, 1):
        for layer in ("user", "fs", "driver"):
            assert sampled_layers[layer].to_bytes() == \
                plain[layer].to_bytes(), (
                f"{layer} profile moved when the sampler was armed "
                f"(pair {pair})")

    overheads = [sampled_elapsed / plain_elapsed - 1.0
                 for (_, plain_elapsed), (_, sampled_elapsed) in pairs]
    overhead = statistics.median(overheads)
    plain_elapsed = statistics.median(p[0][1] for p in pairs)
    sampled_elapsed = statistics.median(p[1][1] for p in pairs)
    (_, sprof, metrics), last_sampled_elapsed = pairs[-1][1]
    capture_ns = metrics["osprof_sampler_overhead_ns_total"]
    per_tick_ns = capture_ns / max(1, metrics[
        "osprof_sample_intervals_total"])

    artifacts.add(
        "Wait-state sampler overhead (randomread, 2 procs, "
        f"{ITERATIONS} iterations, 0.5 ms interval, median of {PAIRS} "
        "alternating pairs)\n\n"
        f"unsampled wall time : {plain_elapsed * 1e3:8.1f} ms\n"
        f"sampled wall time   : {sampled_elapsed * 1e3:8.1f} ms\n"
        f"overhead            : {overhead:+.1%} (pairs: "
        f"{', '.join(f'{o:+.0%}' for o in overheads)})\n"
        f"samples captured    : {sprof.total_samples()} over "
        f"{sprof.intervals} interval(s)\n"
        f"capture loop cost   : {capture_ns / 1e6:.2f} ms total, "
        f"{per_tick_ns:.0f} ns/tick (last pair)\n"
        f"documented bound    : +{OVERHEAD_BOUND:.0%} wall time\n"
        f"measured profiles   : byte-identical sampler on vs off")

    benchmark.extra_info["overhead"] = round(overhead, 4)
    benchmark.extra_info["per_tick_ns"] = round(per_tick_ns)
    benchmark.extra_info["samples"] = sprof.total_samples()

    # The sampler actually sampled (the run wasn't trivially short)...
    assert sprof.total_samples() > 100
    # ...its self-reported capture cost is consistent (captures cannot
    # have cost more than the whole sampled run)...
    assert 0 <= capture_ns <= last_sampled_elapsed * 1e9
    # ...and the median wall-time cost stays within the documented
    # bound (outside CI: shared runners time too noisily to gate on).
    if not os.environ.get("CI"):
        assert overhead < OVERHEAD_BOUND, (
            f"median sampler overhead {overhead:.1%} exceeds the "
            f"documented +{OVERHEAD_BOUND:.0%} bound (pairs: "
            f"{', '.join(f'{o:+.1%}' for o in overheads)})")
