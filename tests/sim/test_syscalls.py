"""Tests for the syscall boundary and its instrumentation variants."""

import pytest

from repro.core.pipeline import Pipeline, wire_probe
from repro.core.profile import Layer
from repro.core.profiler import Profiler
from repro.sim.process import CpuBurst
from repro.sim.scheduler import Kernel
from repro.sim.syscalls import (PROFILER_HOOK_COST, VARIANTS, SyscallLayer,
                                hook_cost)


def make_kernel():
    return Kernel(num_cpus=1, tsc_skew_seconds=0.0)


def make_layer(kernel, **kwargs):
    profiler = Profiler(name="user", layer=Layer.USER,
                        clock=lambda: kernel.engine.now)
    probe = wire_probe(Pipeline(num_cpus=len(kernel.cpus)), Layer.USER,
                       profiler=profiler, name="syscall")
    return SyscallLayer(kernel, probe, **kwargs), profiler


class TestInvoke:
    def test_records_request_latency(self):
        k = make_kernel()
        layer, profiler = make_layer(k)

        def body():
            yield CpuBurst(10_000)
            return "result"

        def proc_body(proc):
            result = yield from layer.invoke(proc, "read", body())
            return result

        p = k.spawn(proc_body, "p")
        k.run_until_done([p])
        assert p.exit_value == "result"
        prof = profiler.profile_set()["read"]
        assert prof.total_ops == 1
        # Latency covers the body (10k) but not the syscall exit path.
        assert 10_000 <= prof.total_latency < 20_000

    def test_in_kernel_depth_managed(self):
        k = make_kernel()
        layer, _ = make_layer(k)
        depths = []

        def body(proc):
            depths.append(proc.in_kernel)
            yield CpuBurst(10)
            return None

        def proc_body(proc):
            depths.append(proc.in_kernel)
            yield from layer.invoke(proc, "op", body(proc))
            depths.append(proc.in_kernel)

        p = k.spawn(proc_body, "p")
        k.run_until_done([p])
        assert depths == [0, 1, 0]

    def test_in_kernel_restored_on_exception(self):
        k = make_kernel()
        layer, _ = make_layer(k)

        def body():
            yield CpuBurst(10)
            raise ValueError("boom")

        def proc_body(proc):
            try:
                yield from layer.invoke(proc, "op", body())
            except ValueError:
                pass
            return proc.in_kernel

        p = k.spawn(proc_body, "p")
        k.run_until_done([p])
        assert p.exit_value == 0

    def test_probe_burns_requested_cycles(self):
        k = make_kernel()
        layer, profiler = make_layer(k)

        def proc_body(proc):
            yield from layer.probe(proc, "null", 40)

        p = k.spawn(proc_body, "p")
        k.run_until_done([p])
        assert profiler.profile_set()["null"].total_ops == 1

    def test_calls_counted(self):
        k = make_kernel()
        layer, _ = make_layer(k)

        def proc_body(proc):
            for _ in range(5):
                yield from layer.probe(proc, "x", 10)

        p = k.spawn(proc_body, "p")
        k.run_until_done([p])
        assert layer.calls == 5


class TestInstrumentationVariants:
    def run_variant(self, variant, requests=200):
        k = make_kernel()
        layer, profiler = make_layer(k, instrumentation=variant)

        def proc_body(proc):
            for _ in range(requests):
                yield from layer.probe(proc, "null", 40)

        p = k.spawn(proc_body, "p")
        k.run_until_done([p])
        return p, profiler

    def test_variant_costs_ordered(self):
        # off < empty < tsc_only < full in total CPU time (§5.2).
        times = {}
        for variant in VARIANTS:
            p, _ = self.run_variant(variant)
            times[variant] = p.sys_time
        assert times["off"] < times["empty"] < times["tsc_only"] \
            < times["full"]

    def test_only_full_records(self):
        for variant in ("off", "empty", "tsc_only"):
            _, profiler = self.run_variant(variant, requests=10)
            assert profiler.profile_set().total_ops() == 0
        _, profiler = self.run_variant("full", requests=10)
        assert profiler.profile_set().total_ops() == 10

    def test_unknown_variant_rejected(self):
        k = make_kernel()
        with pytest.raises(ValueError):
            SyscallLayer(k, Pipeline().probe(Layer.USER),
                         instrumentation="bogus")

    def test_hook_cost_components_positive(self):
        assert PROFILER_HOOK_COST["call"] > 0
        assert PROFILER_HOOK_COST["tsc_read"] > 0
        assert PROFILER_HOOK_COST["store"] > 0

    def test_hook_cost_ladder(self):
        # One rule for every layer: each rung adds one cost component,
        # and the sort/store cost is split across the PRE/POST pair.
        call = PROFILER_HOOK_COST["call"]
        tsc = PROFILER_HOOK_COST["tsc_read"]
        store = PROFILER_HOOK_COST["store"]
        assert [hook_cost(v) for v in VARIANTS] == [
            0.0, call, call + tsc, call + tsc + store / 2.0]

    def test_hook_cost_rejects_unknown_variant(self):
        with pytest.raises(ValueError, match="bogus"):
            hook_cost("bogus")
