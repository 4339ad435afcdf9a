"""Shared capture matrix for the pipeline-refactor byte-identity pins.

The probe/event pipeline refactor must not change a single byte of any
captured :class:`~repro.core.profileset.ProfileSet`: batching only
defers histogram insertion, and both ``total_latency`` (an exact float
expansion) and the canonical binary encoding are order-independent, so
the digests below are invariant under any correct reorganisation of the
capture plumbing.

``CAPTURES`` maps a pin name to a zero-argument callable returning a
ProfileSet.  ``tools/gen_profile_pins.py`` runs every capture and writes
the sha256 of ``to_bytes()`` into ``profile_pins.json``;
``test_profile_pins.py`` re-runs them and compares.  The pinned digests
were generated from the pre-refactor per-sample capture path.
"""

from __future__ import annotations

import hashlib
from typing import Callable, Dict

from repro.core.profileset import ProfileSet
from repro.net.mount import build_cifs_mount, build_nfs_mount
from repro.scenarios import SCENARIOS
from repro.system import System
from repro.workloads import run_grep
from repro.workloads.runner import collect_profiles, run_named_workload

#: (workload, fs_type, kwargs for run_named_workload)
_SYSTEM_RUNS = (
    ("randomread", "ext2", dict(iterations=300, processes=2)),
    ("zerobyte", "ext2", dict(iterations=300, processes=2)),
    ("clone", "ext2", dict(iterations=200, processes=2)),
    ("postmark", "ext2", dict(iterations=400)),
    ("grep", "ext2", dict(scale=0.02)),
    ("grep", "reiserfs", dict(scale=0.02)),
)

LAYERS = ("user", "fs", "driver")


def _run_system(workload: str, fs_type: str, kwargs, **build) -> System:
    options = dict(fs_type=fs_type, num_cpus=1, seed=2006, with_timer=False)
    options.update(build)
    system = System.build(**options)
    run_named_workload(system, workload, seed=2006, **kwargs)
    return system


def _capture_system(workload: str, fs_type: str, kwargs, layer: str):
    system = _run_system(workload, fs_type, kwargs)
    return {"user": system.user_profiles,
            "fs": system.fs_profiles,
            "driver": system.driver_profiles}[layer]()


def _capture_cifs(flavor: str) -> ProfileSet:
    mount = build_cifs_mount(scale=0.02, flavor=flavor, delayed_ack=True)
    run_grep(mount.client, mount.root)
    return mount.client.fs_profiles()


def _capture_nfs() -> ProfileSet:
    mount = build_nfs_mount(scale=0.02)
    run_grep(mount.client, mount.root)
    return mount.client.fs_profiles()


def _capture_scenario(name: str) -> ProfileSet:
    """One scenario's driver-layer capture at its registry defaults.

    Runs through the same :func:`collect_profiles` funnel as ``osprof
    run``, so these pins freeze both the device model's physics and the
    registry's workload parameters.
    """
    scenario = SCENARIOS[name]
    return collect_profiles(scenario.workload, layer="driver",
                            scenario=name, seed=2006,
                            fs_type=scenario.fs_type,
                            scale=scenario.scale,
                            processes=scenario.processes,
                            iterations=scenario.iterations)


def _system_captures() -> Dict[str, Callable[[], ProfileSet]]:
    captures: Dict[str, Callable[[], ProfileSet]] = {}
    for workload, fs_type, kwargs in _SYSTEM_RUNS:
        for layer in LAYERS:
            name = f"{workload}-{fs_type}-{layer}"
            captures[name] = (
                lambda w=workload, f=fs_type, k=kwargs, l=layer:
                _capture_system(w, f, k, l))
    return captures


def _scenario_captures() -> Dict[str, Callable[[], ProfileSet]]:
    return {f"scenario-{name}": (lambda n=name: _capture_scenario(n))
            for name in sorted(SCENARIOS)}


CAPTURES: Dict[str, Callable[[], ProfileSet]] = {
    **_system_captures(),
    **_scenario_captures(),
    "grep-cifs-windows-fs": lambda: _capture_cifs("windows"),
    "grep-cifs-linux-fs": lambda: _capture_cifs("linux"),
    "grep-nfs-fs": _capture_nfs,
}


def digest(pset: ProfileSet) -> str:
    """The pinned fingerprint: sha256 of the canonical binary encoding."""
    return hashlib.sha256(pset.to_bytes()).hexdigest()


# -- wait-state sample pins ---------------------------------------------------
#
# The sampler is deterministic under a fixed seed (sim-clock ticks, no
# RNG draws, no wall-clock in the profile bytes), so sampled captures
# pin by digest exactly like measured ones.  ``STATE_SAMPLE_INTERVAL``
# is in cycles: 0.5 ms of simulated time at the paper's 1.7 GHz.

STATE_SAMPLE_INTERVAL = 0.0005 * 1.7e9

#: The measured-side pin a sampled run must leave untouched: arming the
#: sampler on the ``randomread-ext2`` capture must reproduce this
#: exact measured digest (checked by ``test_state_pins.py``).
SAMPLED_MEASURED_PIN = "randomread-ext2-fs"


def _capture_sampled(workload: str, processes: int, iterations: int,
                     scenario=None):
    from repro.workloads.runner import collect_sampled_run
    _layers, sprof, _metrics = collect_sampled_run(
        workload, state_sample_interval=STATE_SAMPLE_INTERVAL,
        seed=2006, processes=processes, iterations=iterations,
        scenario=scenario)
    return sprof


def _capture_sampled_layers(workload: str, layer: str, processes: int,
                            iterations: int):
    from repro.workloads.runner import collect_sampled_run
    layers, _sprof, _metrics = collect_sampled_run(
        workload, state_sample_interval=STATE_SAMPLE_INTERVAL,
        seed=2006, processes=processes, iterations=iterations)
    return layers[layer]


#: Pin name -> zero-argument callable returning a StateProfile.
STATE_CAPTURES = {
    "randomread-ext2-sampled":
        lambda: _capture_sampled("randomread", 2, 300),
    "randomread-single-sampled":
        lambda: _capture_sampled("randomread", 1, 300),
    "scenario-throttled-iops-sampled":
        lambda: _capture_sampled("randomread", 6, 400,
                                 scenario="throttled-iops"),
}


def state_digest(sprof) -> str:
    """sha256 of the canonical StateProfile encoding."""
    return hashlib.sha256(sprof.to_bytes()).hexdigest()


# -- Section 5.2 instrumentation-variant pins -----------------------------
#
# The profile pins above all run ``instrumentation="full"``.  The other
# three rungs of the overhead ladder differ only in the CPU each hook
# burns, which shows up in the driver-layer profile (the driver always
# records) and in the simulated clock at the end of the run.  Pinning
# both freezes the hook-cost rule for every variant.

#: (workload, kwargs for run_named_workload)
_VARIANT_RUNS = (
    ("randomread", dict(iterations=300, processes=2)),
    ("postmark", dict(iterations=400)),
)

#: The non-default variants; "full" is covered by the profile pins.
PINNED_VARIANTS = ("off", "empty", "tsc_only")


def _capture_variant(workload: str, kwargs, variant: str):
    system = _run_system(workload, "ext2", kwargs, instrumentation=variant)
    return {"driver": digest(system.driver_profiles()),
            "now": repr(system.kernel.now)}


#: Pin name -> zero-argument callable returning {"driver", "now"}.
VARIANT_CAPTURES = {
    f"{workload}-{variant}": (
        lambda w=workload, k=kwargs, v=variant: _capture_variant(w, k, v))
    for workload, kwargs in _VARIANT_RUNS
    for variant in PINNED_VARIANTS
}


# -- engine-stream pins -------------------------------------------------------
#
# The pins above freeze what a run *recorded*; these freeze the event
# stream that produced it: how many engine events ran, how many context
# switches the scheduler made, and the exact simulated time at the end.
# A dropped, duplicated or coalesced event moves at least one of the
# three even where no recorded byte changes.


def engine_stream(system: System) -> Dict[str, object]:
    """The pinned event-stream fingerprint of one finished run."""
    return {"events": system.engine.events_processed,
            "context_switches": system.kernel.context_switches,
            "now": repr(system.kernel.now)}


def _stream_scenario(name: str) -> Dict[str, object]:
    """A scenario row at its registry defaults, as ``_capture_scenario``."""
    from repro.scenarios import build_system
    row = SCENARIOS[name]
    system = build_system(name, fs_type=row.fs_type, seed=2006)
    run_named_workload(system, row.workload, seed=2006, scale=row.scale,
                       processes=row.processes, iterations=row.iterations)
    return engine_stream(system)


def _stream_variant(workload: str, kwargs, variant: str):
    return engine_stream(
        _run_system(workload, "ext2", kwargs, instrumentation=variant))


def _stream_sampled() -> Dict[str, object]:
    from repro.scenarios import build_system
    system = build_system(None, seed=2006,
                          state_sample_interval=STATE_SAMPLE_INTERVAL)
    run_named_workload(system, "randomread", seed=2006, processes=2,
                       iterations=300)
    return engine_stream(system)


def _stream_cifs() -> Dict[str, object]:
    mount = build_cifs_mount(scale=0.02, flavor="windows", delayed_ack=True)
    run_grep(mount.client, mount.root)
    return engine_stream(mount.client)


#: Pin name -> zero-argument callable returning :func:`engine_stream`.
#: The device scenarios and grep are the capture benchmark's unsampled
#: items; the variant runs are ``VARIANT_CAPTURES``.  The last four arm
#: what those leave idle: the timer interrupt and mid-chunk preemption
#: on two CPUs (with and without in-kernel preemption), the wait-state
#: sampler's tick, and the TCP delayed-ACK timer that a reply cancels.
ENGINE_STREAM_CAPTURES: Dict[str, Callable[[], Dict[str, object]]] = {
    **{f"scenario-{name}": (lambda n=name: _stream_scenario(n))
       for name in ("spindle-randomread", "ssd-gc", "raid0-stripe",
                    "throttled-iops")},
    "grep-ext2": lambda: engine_stream(
        _run_system("grep", "ext2", dict(scale=0.02))),
    **{f"{workload}-{variant}": (
        lambda w=workload, k=kwargs, v=variant: _stream_variant(w, k, v))
       for workload, kwargs in _VARIANT_RUNS
       for variant in PINNED_VARIANTS},
    "randomread-timer-2cpu": lambda: engine_stream(_run_system(
        "randomread", "ext2", dict(iterations=300, processes=3),
        num_cpus=2, with_timer=True)),
    "randomread-preemptive-2cpu": lambda: engine_stream(_run_system(
        "randomread", "ext2", dict(iterations=300, processes=4),
        num_cpus=2, kernel_preemption=True, with_timer=True)),
    "randomread-sampled": _stream_sampled,
    "grep-cifs-windows": _stream_cifs,
}
