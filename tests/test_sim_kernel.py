"""Unit tests for the discrete-event kernel."""

import pytest

from repro.sim.kernel import SimulationError, Simulator, StopSimulation
from repro.sim.sync import Event


class TestScheduling:
    def test_clock_starts_at_zero(self, sim):
        assert sim.now == 0.0

    def test_callback_fires_at_scheduled_time(self, sim):
        seen = []
        sim.call_in(2.5, lambda: seen.append(sim.now))
        sim.run()
        assert seen == [2.5]

    def test_call_at_absolute_time(self, sim):
        seen = []
        sim.call_at(1.0, lambda: seen.append("a"))
        sim.call_at(3.0, lambda: seen.append("b"))
        sim.run()
        assert seen == ["a", "b"]
        assert sim.now == 3.0

    def test_fifo_tie_break_at_same_time(self, sim):
        seen = []
        for i in range(10):
            sim.call_at(1.0, lambda i=i: seen.append(i))
        sim.run()
        assert seen == list(range(10))

    def test_interleaved_times_dispatch_in_order(self, sim):
        seen = []
        for t in (5.0, 1.0, 3.0, 2.0, 4.0):
            sim.call_at(t, lambda t=t: seen.append(t))
        sim.run()
        assert seen == sorted(seen)

    def test_negative_delay_rejected(self, sim):
        with pytest.raises(SimulationError):
            sim.schedule(Event(sim), delay=-1.0)

    def test_schedule_in_past_rejected(self, sim):
        sim.call_at(5.0, lambda: None)
        sim.run()
        with pytest.raises(SimulationError):
            sim.schedule_at(Event(sim), 1.0)

    def test_nested_scheduling_from_callback(self, sim):
        seen = []

        def outer():
            seen.append(("outer", sim.now))
            sim.call_in(1.0, lambda: seen.append(("inner", sim.now)))

        sim.call_at(1.0, outer)
        sim.run()
        assert seen == [("outer", 1.0), ("inner", 2.0)]


class TestRun:
    def test_run_until_stops_clock_at_horizon(self, sim):
        sim.call_at(10.0, lambda: None)
        sim.run(until=4.0)
        assert sim.now == 4.0
        assert sim.queue_size == 1

    def test_run_until_resumable(self, sim):
        seen = []
        sim.call_at(10.0, lambda: seen.append("x"))
        sim.run(until=4.0)
        sim.run()
        assert seen == ["x"]

    def test_stop_simulation_carries_value(self, sim):
        def stopper():
            raise StopSimulation("done")

        sim.call_at(1.0, stopper)
        sim.call_at(2.0, lambda: pytest.fail("should not run"))
        assert sim.run() == "done"

    def test_stop_mid_timestamp_keeps_the_rest_pending(self, sim):
        """A batch interrupted by StopSimulation loses nothing: the rest of
        the timestamp's cohort stays queued, ahead of same-time follow-ups,
        and a second run resumes in order."""
        seen = []

        def first():
            seen.append("a")
            sim.call_in(0.0, lambda: seen.append("a.0"))
            raise StopSimulation("halt")

        sim.call_at(1.0, first)
        sim.call_at(1.0, lambda: seen.append("b"))
        sim.call_at(2.0, lambda: seen.append("c"))
        assert sim.run() == "halt"
        assert seen == ["a"] and sim.now == 1.0
        assert sim.queue_size == 3 and sim.peek() == 1.0
        sim.run()
        assert seen == ["a", "b", "a.0", "c"]

    def test_events_dispatched_counter(self, sim):
        for t in range(5):
            sim.call_at(float(t), lambda: None)
        sim.run()
        assert sim.events_dispatched == 5

    def test_step_single_event(self, sim):
        seen = []
        sim.call_at(1.0, lambda: seen.append(1))
        sim.call_at(2.0, lambda: seen.append(2))
        assert sim.step()
        assert seen == [1]
        assert sim.step()
        assert not sim.step()

    def test_run_not_reentrant(self, sim):
        def recurse():
            sim.run()

        sim.call_at(1.0, recurse)
        with pytest.raises(SimulationError):
            sim.run()

    def test_peek_next_event_time(self, sim):
        assert sim.peek() is None
        sim.call_at(7.0, lambda: None)
        assert sim.peek() == 7.0


class TestCancellation:
    def test_cancelled_event_not_dispatched(self, sim):
        ev = Event(sim)
        seen = []
        ev.add_callback(lambda e: seen.append(1))
        ev.succeed()
        ev.cancelled = True
        sim.run()
        assert seen == []

    def test_trace_hook_sees_every_event(self, sim):
        seen = []
        sim.trace_hook = lambda t, e: seen.append(t)
        sim.call_at(1.0, lambda: None)
        sim.call_at(2.0, lambda: None)
        sim.run()
        assert seen == [1.0, 2.0]


class TestDeterminism:
    def test_identical_runs_produce_identical_traces(self):
        def build_and_run():
            sim = Simulator()
            trace = []
            for t in (3.0, 1.0, 1.0, 2.0):
                sim.call_at(t, lambda t=t: trace.append((sim.now, t)))
            sim.call_at(1.5, lambda: sim.call_in(0.5, lambda: trace.append("nested")))
            sim.run()
            return trace

        assert build_and_run() == build_and_run()
