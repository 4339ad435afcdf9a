"""Tests for the simulated kernel's scheduler."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim.engine import seconds
from repro.sim.process import (CpuBurst, ProcessState, Sleep, Spawn,
                               WaitCondition, YieldCpu, Condition)
from repro.sim.scheduler import Kernel


def make_kernel(**kwargs):
    kwargs.setdefault("tsc_skew_seconds", 0.0)
    return Kernel(**kwargs)


class TestBasicExecution:
    def test_single_burst_advances_clock(self):
        k = make_kernel()

        def body(proc):
            yield CpuBurst(1000)
            return "done"

        proc = k.spawn(body, "p")
        k.run_until_done([proc])
        assert proc.exit_value == "done"
        assert proc.cpu_time == pytest.approx(1000)
        assert k.now >= 1000

    def test_spawn_returns_before_child_runs(self):
        k = make_kernel()
        ran = []

        def body(proc):
            ran.append(proc.pid)
            return None
            yield

        proc = k.spawn(body, "child")
        assert ran == []  # not started yet
        k.run_until_done([proc])
        assert ran == [proc.pid]

    def test_sleep_accumulates_wait_time(self):
        k = make_kernel()

        def body(proc):
            yield Sleep(5000)
            return None

        proc = k.spawn(body, "sleeper")
        k.run_until_done([proc])
        assert proc.wait_time == pytest.approx(5000)
        assert proc.cpu_time == 0

    def test_zero_cycle_burst_is_noop(self):
        k = make_kernel()

        def body(proc):
            yield CpuBurst(0)
            yield CpuBurst(10)
            return None

        proc = k.spawn(body, "p")
        k.run_until_done([proc])
        assert proc.cpu_time == pytest.approx(10)

    def test_unknown_effect_raises(self):
        k = make_kernel()

        def body(proc):
            yield object()

        k.spawn(body, "bad")
        with pytest.raises(TypeError):
            k.run(max_events=100)


class TestMultiProcessing:
    def test_two_cpus_run_in_parallel(self):
        k = make_kernel(num_cpus=2)

        def body(proc):
            yield CpuBurst(1000)

        procs = [k.spawn(body, f"p{i}") for i in range(2)]
        k.run_until_done(procs)
        # Parallel: wall clock ~1000, not ~2000.
        assert k.now < 1500

    def test_one_cpu_serializes(self):
        k = make_kernel(num_cpus=1, context_switch_cost=0.0)

        def body(proc):
            yield CpuBurst(1000)

        procs = [k.spawn(body, f"p{i}") for i in range(2)]
        k.run_until_done(procs)
        assert k.now >= 2000

    def test_at_most_one_process_per_cpu(self):
        k = make_kernel(num_cpus=2)

        def body(proc):
            for _ in range(20):
                yield CpuBurst(100)
                yield YieldCpu()

        procs = [k.spawn(body, f"p{i}") for i in range(5)]
        # Invariant check after every event.
        while any(not p.done for p in procs):
            if not k.engine.step():
                break
            running = [p for p in procs
                       if p.state == ProcessState.RUNNING]
            assert len(running) <= 2
            cpus = [p.cpu for p in running]
            assert len(set(cpus)) == len(cpus)

    def test_context_switch_cost_charged(self):
        k = make_kernel(num_cpus=1,
                        context_switch_cost=seconds(5.5e-6))

        def body(proc):
            for _ in range(3):
                yield CpuBurst(100)
                yield YieldCpu()

        procs = [k.spawn(body, f"p{i}") for i in range(2)]
        k.run_until_done(procs)
        assert k.context_switches > 0
        assert k.now > 600  # more than pure CPU time


class TestQuantumAndPreemption:
    def test_long_user_burst_preempted_at_quantum(self):
        k = make_kernel(num_cpus=1, quantum=1000,
                        context_switch_cost=0.0)

        def hog(proc):
            yield CpuBurst(5000)

        a = k.spawn(hog, "a")
        b = k.spawn(hog, "b")
        k.run_until_done([a, b])
        # Round robin: both preempted multiple times.
        assert a.preemptions >= 3
        assert b.preemptions >= 3

    def test_quantum_not_refreshed_midburst_without_contention(self):
        k = make_kernel(num_cpus=1, quantum=1000)

        def solo(proc):
            yield CpuBurst(10_000)

        proc = k.spawn(solo, "solo")
        k.run_until_done([proc])
        assert proc.preemptions == 0

    def test_kernel_burst_not_preempted_on_nonpreemptive_kernel(self):
        k = make_kernel(num_cpus=1, quantum=1000,
                        kernel_preemption=False,
                        context_switch_cost=0.0)
        trace = []

        def in_kernel(proc):
            proc.in_kernel += 1
            yield CpuBurst(5000)  # way past the quantum
            trace.append(("kernel_done", k.now))
            proc.in_kernel -= 1
            yield CpuBurst(10)

        def other(proc):
            yield CpuBurst(10)
            trace.append(("other_done", k.now))

        a = k.spawn(in_kernel, "a")
        b = k.spawn(other, "b")
        k.run_until_done([a, b])
        # The kernel burst finished before 'other' ever ran.
        assert trace[0][0] == "kernel_done"

    def test_kernel_burst_preempted_with_kernel_preemption(self):
        k = make_kernel(num_cpus=1, quantum=1000,
                        kernel_preemption=True,
                        context_switch_cost=0.0)
        trace = []

        def in_kernel(proc):
            proc.in_kernel += 1
            yield CpuBurst(5000)
            trace.append(("kernel_done", k.now))
            proc.in_kernel -= 1

        def other(proc):
            yield CpuBurst(10)
            trace.append(("other_done", k.now))

        a = k.spawn(in_kernel, "a")
        b = k.spawn(other, "b")
        k.run_until_done([a, b])
        assert trace[0][0] == "other_done"

    def test_deferred_preemption_happens_at_user_boundary(self):
        k = make_kernel(num_cpus=1, quantum=100,
                        kernel_preemption=False,
                        context_switch_cost=0.0)

        def syscall_loop(proc):
            for _ in range(10):
                proc.in_kernel += 1
                yield CpuBurst(50)
                proc.in_kernel -= 1
                yield CpuBurst(50)  # user mode

        a = k.spawn(syscall_loop, "a")
        b = k.spawn(syscall_loop, "b")
        k.run_until_done([a, b])
        assert a.preemptions > 0
        assert b.preemptions > 0


class TestConditionsAndJoin:
    def test_condition_wakes_waiter_with_value(self):
        k = make_kernel()
        cond = Condition("test")
        got = []

        def waiter(proc):
            value = yield WaitCondition(cond)
            got.append(value)

        def firer(proc):
            yield CpuBurst(100)
            k.fire_condition(cond, "payload")

        w = k.spawn(waiter, "w")
        f = k.spawn(firer, "f")
        k.run_until_done([w, f])
        assert got == ["payload"]
        assert w.wait_time > 0

    def test_wake_all_vs_wake_one(self):
        k = make_kernel(num_cpus=2)
        cond = Condition("test")
        woken = []

        def waiter(proc):
            yield WaitCondition(cond)
            woken.append(proc.name)

        ws = [k.spawn(waiter, f"w{i}") for i in range(3)]
        k.run(max_events=50)
        assert k.fire_condition(cond, wake_all=False) == 1
        assert k.fire_condition(cond, wake_all=True) == 2
        k.run_until_done(ws)
        assert len(woken) == 3

    def test_join_returns_exit_value(self):
        k = make_kernel(num_cpus=2)

        def child(proc):
            yield CpuBurst(500)
            return 42

        def parent(proc):
            c = yield Spawn(child, "child")
            result = yield from k.join(c)
            return result

        p = k.spawn(parent, "parent")
        k.run_until_done([p])
        assert p.exit_value == 42

    def test_join_on_done_process(self):
        k = make_kernel()

        def child(proc):
            return 7
            yield

        c = k.spawn(child, "c")
        k.run_until_done([c])

        def parent(proc):
            result = yield from k.join(c)
            return result

        p = k.spawn(parent, "p")
        k.run_until_done([p])
        assert p.exit_value == 7


class TestWakeupPreemption:
    def test_waker_displaces_user_hog(self):
        k = make_kernel(num_cpus=1, context_switch_cost=0.0)
        timeline = []

        def sleeper(proc):
            yield Sleep(1000)
            timeline.append(("woke", k.now))

        def hog(proc):
            yield CpuBurst(1_000_000)
            timeline.append(("hog_done", k.now))

        s = k.spawn(sleeper, "sleeper")
        h = k.spawn(hog, "hog")
        k.run_until_done([s, h])
        assert timeline[0][0] == "woke"
        assert timeline[0][1] < 100_000
        assert h.preemptions >= 1

    def test_kernel_hog_not_displaced(self):
        k = make_kernel(num_cpus=1, kernel_preemption=False,
                        context_switch_cost=0.0)
        timeline = []

        def sleeper(proc):
            yield Sleep(1000)
            timeline.append(("woke", k.now))

        def kernel_hog(proc):
            proc.in_kernel += 1
            yield CpuBurst(1_000_000)
            timeline.append(("hog_done", k.now))
            proc.in_kernel -= 1

        s = k.spawn(sleeper, "s")
        h = k.spawn(kernel_hog, "h")
        k.run_until_done([s, h])
        assert timeline[0][0] == "hog_done"


class TestRunUntilDone:
    """Completion counting: the last awaited exit halts the engine."""

    def test_stops_at_the_completion_event_with_a_timer_armed(self):
        from repro.sim.interrupts import TimerInterrupt
        k = make_kernel()
        timer = TimerInterrupt(k, period=300, cost=0)
        timer.start()

        def body(proc):
            yield CpuBurst(1000)

        p = k.spawn(body, "p")
        k.run_until_done([p])
        assert k.now == p.finished_at == pytest.approx(1000)
        assert timer.fired == 3
        # The next tick is still queued for whoever runs the engine next.
        assert k.engine.pending() >= 1
        k.run(until=1300)
        assert timer.fired == 4

    def test_unawaited_exit_does_not_halt(self):
        k = make_kernel(context_switch_cost=0.0)

        def short(proc):
            yield CpuBurst(10)

        def long(proc):
            yield Sleep(5000)

        quick = k.spawn(short, "quick")
        slow = k.spawn(long, "slow")
        k.run_until_done([slow])
        assert quick.finished_at < slow.finished_at == k.now

    def test_exits_after_a_run_until_done_do_not_halt_later_runs(self):
        k = make_kernel(context_switch_cost=0.0)

        def sleeper(delay):
            def body(proc):
                yield Sleep(delay)
            return body

        first = k.spawn(sleeper(100), "first")
        k.run_until_done([first])
        later = [k.spawn(sleeper(d), f"p{d}") for d in (200, 300)]
        k.run()
        assert all(p.done for p in later)
        assert k.engine.pending() == 0

    def test_already_done_runs_exactly_one_event(self):
        k = make_kernel()

        def body(proc):
            yield CpuBurst(10)

        p = k.spawn(body, "p")
        k.run_until_done([p])
        k.engine.run()  # drain the exit's dispatch
        seen = []
        k.engine.schedule(5, lambda: seen.append(1))
        k.engine.schedule(6, lambda: seen.append(2))
        before = k.engine.events_processed
        k.run_until_done([p])
        assert seen == [1]
        assert k.engine.events_processed == before + 1
        # With nothing queued it returns at once, without an error.
        k.engine.run()
        k.run_until_done([p])
        assert seen == [1, 2]

    def test_event_budget_exhausted(self):
        k = make_kernel()

        def endless(proc):
            while True:
                yield CpuBurst(100)

        p = k.spawn(endless, "endless")
        with pytest.raises(RuntimeError, match=r"event budget exhausted "
                           r"with processes pending: \['endless'\]"):
            k.run_until_done([p], max_events=50)
        assert k.engine.events_processed == 50


class TestShutdownAndErrors:
    def test_deadlock_detected(self):
        k = make_kernel()
        cond = Condition("never")

        def stuck(proc):
            yield WaitCondition(cond)

        p = k.spawn(stuck, "stuck")
        with pytest.raises(RuntimeError, match=r"deadlock: no events pending "
                           r"but processes not done: \['stuck'\]"):
            k.run_until_done([p])

    def test_shutdown_closes_generators(self):
        k = make_kernel()

        def endless(proc):
            while True:
                yield CpuBurst(100)

        p = k.spawn(endless, "endless")
        k.run(until=10_000)
        k.shutdown()
        assert p.done

    def test_accounting_sys_vs_user(self):
        k = make_kernel()

        def body(proc):
            yield CpuBurst(100)  # user
            proc.in_kernel += 1
            yield CpuBurst(300)  # system
            proc.in_kernel -= 1

        p = k.spawn(body, "p")
        k.run_until_done([p])
        assert p.user_time == pytest.approx(100)
        assert p.sys_time == pytest.approx(300)


class TestSchedulerProperties:
    @given(st.lists(st.integers(min_value=1, max_value=10_000),
                    min_size=1, max_size=12),
           st.integers(min_value=1, max_value=3))
    @settings(max_examples=30, deadline=None)
    def test_total_cpu_time_conserved(self, bursts, cpus):
        k = make_kernel(num_cpus=cpus, context_switch_cost=0.0)

        def body(proc, cycles):
            yield CpuBurst(cycles)

        procs = [k.spawn(lambda p, c=c: body(p, c), f"p{i}")
                 for i, c in enumerate(bursts)]
        k.run_until_done(procs)
        total = sum(p.cpu_time for p in procs)
        assert total == pytest.approx(sum(bursts), rel=1e-9)

    @given(st.integers(min_value=2, max_value=6))
    @settings(max_examples=10, deadline=None)
    def test_all_processes_complete(self, n):
        k = make_kernel(num_cpus=1, quantum=500)

        def body(proc):
            for _ in range(3):
                yield CpuBurst(700)
                yield YieldCpu()

        procs = [k.spawn(body, f"p{i}") for i in range(n)]
        k.run_until_done(procs)
        assert all(p.done for p in procs)
