"""Tests for the discrete-event engine."""

import pytest

from repro.sim.engine import (CYCLES_PER_SECOND, Engine, cycles_to_seconds,
                              seconds)


class TestTimeConversions:
    def test_roundtrip(self):
        assert cycles_to_seconds(seconds(0.5)) == pytest.approx(0.5)

    def test_nominal_frequency(self):
        assert seconds(1.0) == CYCLES_PER_SECOND


class TestScheduling:
    def test_events_run_in_time_order(self):
        engine = Engine()
        order = []
        engine.schedule(30, lambda: order.append("c"))
        engine.schedule(10, lambda: order.append("a"))
        engine.schedule(20, lambda: order.append("b"))
        engine.run()
        assert order == ["a", "b", "c"]
        assert engine.now == 30

    def test_ties_run_in_schedule_order(self):
        engine = Engine()
        order = []
        engine.schedule(10, lambda: order.append(1))
        engine.schedule(10, lambda: order.append(2))
        engine.run()
        assert order == [1, 2]

    def test_past_scheduling_rejected(self):
        engine = Engine()
        engine.now = 100
        with pytest.raises(ValueError):
            engine.schedule(-1, lambda: None)
        with pytest.raises(ValueError):
            engine.schedule_at(50, lambda: None)

    def test_events_scheduled_during_events(self):
        engine = Engine()
        seen = []

        def first():
            seen.append(engine.now)
            engine.schedule(5, lambda: seen.append(engine.now))

        engine.schedule(10, first)
        engine.run()
        assert seen == [10, 15]

    def test_cancellation(self):
        engine = Engine()
        seen = []
        event = engine.schedule(10, lambda: seen.append("no"))
        engine.cancel(event)
        engine.schedule(20, lambda: seen.append("yes"))
        engine.run()
        assert seen == ["yes"]
        # Idempotent.
        engine.cancel(event)

    def test_pending_ignores_cancelled(self):
        engine = Engine()
        e1 = engine.schedule(10, lambda: None)
        engine.schedule(20, lambda: None)
        engine.cancel(e1)
        assert engine.pending() == 1

    def test_cancelled_head_is_skipped(self):
        engine = Engine()
        seen = []
        head = engine.schedule(10, lambda: seen.append("head"))
        engine.schedule(20, lambda: seen.append("next"))
        engine.cancel(head)
        assert head.cancelled
        assert engine.pending() == 1
        assert engine.run() == 1
        assert seen == ["next"]
        assert engine.now == 20
        assert engine.events_processed == 1

    def test_step_skips_cancelled_head(self):
        engine = Engine()
        seen = []
        engine.cancel(engine.schedule(1, lambda: seen.append(1)))
        engine.schedule(2, lambda: seen.append(2))
        assert engine.step() is True
        assert seen == [2]
        assert engine.step() is False

    def test_event_is_its_heap_entry(self):
        engine = Engine()

        def fn():
            return None

        event = engine.schedule(7, fn)
        assert list(event) == [7, 1, fn]
        assert not event.cancelled
        assert repr(event) == "<Event t=7>"
        # Same time: the sequence number orders, never the callback.
        assert event < engine.schedule(7, lambda: None)


class TestRunBounds:
    def test_until_advances_clock_even_if_queue_drains(self):
        engine = Engine()
        engine.schedule(5, lambda: None)
        engine.run(until=100)
        assert engine.now == 100

    def test_until_leaves_future_events(self):
        engine = Engine()
        seen = []
        engine.schedule(5, lambda: seen.append(5))
        engine.schedule(200, lambda: seen.append(200))
        engine.run(until=100)
        assert seen == [5]
        assert engine.pending() == 1

    def test_max_events(self):
        engine = Engine()
        seen = []
        for i in range(5):
            engine.schedule(i + 1, lambda i=i: seen.append(i))
        executed = engine.run(max_events=2)
        assert executed == 2
        assert seen == [0, 1]

    def test_halt_stops_after_the_current_event(self):
        engine = Engine()
        seen = []

        def second():
            seen.append(2)
            engine.halt()

        engine.schedule(1, lambda: seen.append(1))
        engine.schedule(2, second)
        engine.schedule(3, lambda: seen.append(3))
        assert engine.run() == 2
        assert seen == [1, 2]
        assert engine.now == 2

    def test_halt_skips_the_until_clock_advance(self):
        engine = Engine()
        engine.schedule(5, engine.halt)
        engine.schedule(50, lambda: None)
        engine.run(until=100)
        assert engine.now == 5
        assert engine.pending() == 1

    def test_halted_run_does_not_halt_the_next(self):
        engine = Engine()
        seen = []
        engine.schedule(1, engine.halt)
        engine.schedule(2, lambda: seen.append(2))
        engine.schedule(3, lambda: seen.append(3))
        assert engine.run() == 1
        assert engine.run() == 2
        assert seen == [2, 3]

    def test_halt_outside_a_run_is_ignored(self):
        engine = Engine()
        engine.schedule(1, lambda: None)
        engine.schedule(2, lambda: None)
        engine.halt()
        assert engine.run() == 2

    def test_step_returns_false_on_empty(self):
        assert Engine().step() is False

    def test_events_processed_counter(self):
        engine = Engine()
        engine.schedule(1, lambda: None)
        engine.schedule(2, lambda: None)
        engine.run()
        assert engine.events_processed == 2
