"""Tests for the Profiler interception layer."""

import pytest

from repro.core.profiler import Profiler, tsc_clock


class FakeClock:
    """A controllable cycle counter."""

    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now

    def advance(self, cycles):
        self.now += cycles


@pytest.fixture
def clock():
    return FakeClock()


@pytest.fixture
def profiler(clock):
    return Profiler(name="test", clock=clock)


class TestBeginEnd:
    def test_latency_measured_between_begin_and_end(self, profiler, clock):
        token = profiler.begin("read")
        clock.advance(1000)
        latency = profiler.end(token)
        assert latency == 1000
        assert profiler.profiles["read"].count(9) == 1

    def test_double_end_raises(self, profiler, clock):
        token = profiler.begin("read")
        profiler.end(token)
        with pytest.raises(RuntimeError):
            profiler.end(token)

    def test_nested_requests_each_measured(self, profiler, clock):
        outer = profiler.begin("readdir")
        clock.advance(100)
        inner = profiler.begin("readpage")
        clock.advance(1000)
        profiler.end(inner)
        clock.advance(100)
        profiler.end(outer)
        assert profiler.profiles["readpage"].total_latency == 1000
        assert profiler.profiles["readdir"].total_latency == 1200

    def test_negative_latency_clamped(self, profiler, clock):
        # Clock skew across CPUs can produce negative deltas (§3.4).
        token = profiler.begin("read")
        clock.now = -50
        latency = profiler.end(token)
        assert latency == 0.0
        assert profiler.profiles["read"].count(0) == 1


class TestContextManagerAndDecorator:
    def test_request_context_manager(self, profiler, clock):
        with profiler.request("write"):
            clock.advance(500)
        assert profiler.profiles["write"].total_ops == 1

    def test_request_records_on_exception(self, profiler, clock):
        with pytest.raises(RuntimeError):
            with profiler.request("write"):
                clock.advance(500)
                raise RuntimeError("boom")
        assert profiler.profiles["write"].total_ops == 1

    def test_wrap_uses_function_name(self, profiler, clock):
        @profiler.wrap()
        def fsync():
            clock.advance(42)
            return "ok"

        assert fsync() == "ok"
        assert profiler.profiles["fsync"].total_ops == 1

    def test_wrap_with_explicit_name(self, profiler, clock):
        @profiler.wrap("custom")
        def helper():
            clock.advance(1)

        helper()
        assert "custom" in profiler.profiles

    def test_record_direct(self, profiler):
        profiler.record("op", 12345)
        assert profiler.profiles["op"].total_ops == 1


class TestHousekeeping:
    def test_reset_clears_profiles(self, profiler, clock):
        with profiler.request("a"):
            clock.advance(1)
        profiler.reset()
        assert len(profiler.profiles) == 0
        assert profiler.requests_profiled == 0

    def test_requests_profiled_counts(self, profiler, clock):
        for _ in range(5):
            with profiler.request("x"):
                clock.advance(1)
        assert profiler.requests_profiled == 5

    def test_measurement_overhead_positive_with_real_clock(self):
        prof = Profiler(clock=tsc_clock())
        overhead = prof.measurement_overhead(samples=100)
        assert overhead >= 0

    def test_measurement_overhead_validates_samples(self, profiler):
        with pytest.raises(ValueError):
            profiler.measurement_overhead(samples=0)

    def test_tsc_clock_monotone(self):
        clock = tsc_clock()
        a = clock()
        b = clock()
        assert b >= a
