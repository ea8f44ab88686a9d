"""Unit tests for events, timeouts, composites, and mailboxes."""

import pytest

from repro.sim.kernel import SimulationError
from repro.sim.sync import AllOf, AnyOf, Event, Timeout


class TestEvent:
    def test_initial_state(self, sim):
        ev = Event(sim)
        assert not ev.triggered and not ev.processed

    def test_succeed_delivers_value(self, sim):
        ev = Event(sim)
        got = []
        ev.add_callback(lambda e: got.append(e.value))
        ev.succeed(42)
        sim.run()
        assert got == [42]
        assert ev.ok

    def test_fail_delivers_exception(self, sim):
        ev = Event(sim)
        got = []
        ev.add_callback(lambda e: got.append(e.value))
        ev.fail(ValueError("boom"))
        sim.run()
        assert isinstance(got[0], ValueError)
        assert not ev.ok

    def test_double_complete_rejected(self, sim):
        ev = Event(sim)
        ev.succeed(1)
        with pytest.raises(SimulationError):
            ev.succeed(2)
        with pytest.raises(SimulationError):
            ev.fail(RuntimeError())

    def test_fail_requires_exception_instance(self, sim):
        with pytest.raises(TypeError):
            Event(sim).fail("not an exception")  # type: ignore[arg-type]

    def test_late_callback_fires_immediately(self, sim):
        ev = Event(sim)
        ev.succeed("v")
        sim.run()
        got = []
        ev.add_callback(lambda e: got.append(e.value))
        assert got == ["v"]

    def test_value_before_completion_raises(self, sim):
        with pytest.raises(SimulationError):
            _ = Event(sim).value

    def test_delayed_succeed(self, sim):
        ev = Event(sim)
        times = []
        ev.add_callback(lambda e: times.append(sim.now))
        ev.succeed(delay=3.0)
        sim.run()
        assert times == [3.0]


class TestTimeout:
    def test_fires_after_delay(self, sim):
        times = []
        Timeout(sim, 1.5).add_callback(lambda e: times.append(sim.now))
        sim.run()
        assert times == [1.5]

    def test_zero_delay_fires_now(self, sim):
        times = []
        Timeout(sim, 0.0).add_callback(lambda e: times.append(sim.now))
        sim.run()
        assert times == [0.0]

    def test_carries_value(self, sim):
        vals = []
        Timeout(sim, 1.0, value="tick").add_callback(lambda e: vals.append(e.value))
        sim.run()
        assert vals == ["tick"]


class TestComposites:
    def test_allof_waits_for_all(self, sim):
        evs = [Timeout(sim, t) for t in (1.0, 3.0, 2.0)]
        done = []
        AllOf(sim, evs).add_callback(lambda e: done.append(sim.now))
        sim.run()
        assert done == [3.0]

    def test_allof_value_preserves_order(self, sim):
        a, b = Event(sim), Event(sim)
        vals = []
        AllOf(sim, [a, b]).add_callback(lambda e: vals.append(e.value))
        b.succeed("b")
        a.succeed("a", delay=1.0)
        sim.run()
        assert vals == [["a", "b"]]

    def test_allof_empty_succeeds_immediately(self, sim):
        ev = AllOf(sim, [])
        assert ev.triggered

    def test_allof_fails_fast(self, sim):
        a, b = Event(sim), Event(sim)
        vals = []
        composite = AllOf(sim, [a, b])
        composite.add_callback(lambda e: vals.append(e.ok))
        a.fail(RuntimeError("x"))
        sim.run()
        assert vals == [False]

    def test_anyof_first_wins(self, sim):
        evs = [Timeout(sim, 2.0, value="slow"), Timeout(sim, 1.0, value="fast")]
        got = []
        AnyOf(sim, evs).add_callback(lambda e: got.append(e.value))
        sim.run()
        assert got == [(1, "fast")]

    def test_anyof_requires_children(self, sim):
        with pytest.raises(SimulationError):
            AnyOf(sim, [])
