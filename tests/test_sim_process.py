"""Unit tests for generator-based processes."""

import pytest

from repro.sim.kernel import Simulator
from repro.sim.process import Process, ProcessCrashed, ProcessFailure
from repro.sim.sync import Event, Timeout


def test_process_runs_and_returns_value(sim):
    def body():
        yield Timeout(sim, 1.0)
        yield Timeout(sim, 2.0)
        return "done"

    p = Process(sim, body(), name="t")
    sim.run()
    assert not p.alive
    assert p.value == "done"
    assert sim.now == 3.0


def test_yielded_event_value_flows_back(sim):
    got = []

    def body():
        v = yield Timeout(sim, 1.0, value="tick")
        got.append(v)

    Process(sim, body())
    sim.run()
    assert got == ["tick"]


def test_failed_event_throws_into_generator(sim):
    caught = []

    def body():
        ev = Event(sim)
        ev.fail(ValueError("boom"))
        try:
            yield ev
        except ValueError as exc:
            caught.append(str(exc))

    Process(sim, body())
    sim.run()
    assert caught == ["boom"]


def test_escaped_exception_recorded_and_join_fails(sim):
    def body():
        yield Timeout(sim, 1.0)
        raise RuntimeError("died")

    p = Process(sim, body())
    joined = []
    p.join().add_callback(lambda e: joined.append(e.ok))
    sim.run()
    assert isinstance(p.exception, RuntimeError)
    assert joined == [False]


def test_yielding_non_event_is_an_error(sim):
    def body():
        yield "not an event"

    p = Process(sim, body())
    sim.run()
    assert p.exception is not None
    assert "yield" in str(p.exception)


def test_yielding_negative_charge_is_an_error(sim):
    def body():
        yield -1.0

    p = Process(sim, body())
    sim.run()
    assert p.exception is not None
    assert "yield" in str(p.exception)


def test_yielding_float_charges_virtual_time(sim):
    """`yield seconds` is the allocation-free equivalent of a Timeout."""
    seen = []

    def body():
        yield 1.5
        seen.append(sim.now)
        yield 0.5
        seen.append(sim.now)
        return "done"

    p = Process(sim, body())
    sim.run()
    assert seen == [1.5, 2.0]
    assert p.value == "done"
    assert sim.events_dispatched == 4  # start + two charges + terminated


def test_float_charge_counts_events_like_timeout(sim):
    """Charge scheduling is observationally identical to Timeout yields."""
    from repro.sim.kernel import Simulator

    def body_timeout(s):
        yield Timeout(s, 1.0)
        yield Timeout(s, 2.0)

    def body_charge(s):
        yield 1.0
        yield 2.0

    s1, s2 = Simulator(), Simulator()
    Process(s1, body_timeout(s1))
    Process(s2, body_charge(s2))
    s1.run()
    s2.run()
    assert s1.events_dispatched == s2.events_dispatched
    assert s1.now == s2.now


def test_non_generator_body_rejected(sim):
    with pytest.raises(TypeError):
        Process(sim, lambda: None)  # type: ignore[arg-type]


def test_crash_stops_process_immediately(sim):
    progress = []

    def body():
        for i in range(10):
            progress.append(i)
            yield Timeout(sim, 1.0)

    p = Process(sim, body())
    sim.call_at(2.5, p.crash)
    sim.run()
    assert p.crashed and not p.alive
    assert progress == [0, 1, 2]  # i=3 would have run at t=3.0


def test_crash_is_idempotent(sim):
    def body():
        yield Timeout(sim, 10.0)

    p = Process(sim, body())
    sim.call_at(1.0, p.crash)
    sim.call_at(2.0, p.crash)
    sim.run()
    assert p.crashed


def test_crash_runs_generator_finally(sim):
    cleaned = []

    def body():
        try:
            yield Timeout(sim, 10.0)
        finally:
            cleaned.append(True)

    p = Process(sim, body())
    sim.call_at(1.0, p.crash)
    sim.run()
    assert cleaned == [True]


def test_join_returns_value(sim):
    def worker():
        yield Timeout(sim, 2.0)
        return 99

    def waiter(w):
        v = yield w.join()
        return v * 2

    w = Process(sim, worker())
    p = Process(sim, waiter(w))
    sim.run()
    assert p.value == 198


def test_on_exit_callback(sim):
    exited = []

    def body():
        yield Timeout(sim, 1.0)

    Process(sim, body(), on_exit=lambda p: exited.append(p.name), name="w")
    sim.run()
    assert exited == ["w"]


def test_processes_interleave_by_virtual_time(sim):
    order = []

    def body(name, dt):
        for _ in range(3):
            yield Timeout(sim, dt)
            order.append((name, sim.now))

    Process(sim, body("fast", 1.0))
    Process(sim, body("slow", 2.5))
    sim.run()
    assert order == sorted(order, key=lambda x: x[1])
    assert [n for n, _ in order].count("fast") == 3


class TestStartAndJoin:
    """A process queues itself at construction (no start event), and its
    join event exists only once :meth:`Process.join` or its exit needs it."""

    def test_processes_started_together_dispatch_once_in_construction_order(self, sim):
        order, dispatched = [], []
        sim.trace_hook = lambda t, ev: dispatched.append(ev)

        def body(name):
            order.append(name)
            return name
            yield  # pragma: no cover - makes body a generator

        names = [f"p{i}" for i in range(5)]
        procs = [Process(sim, body(name), name=name) for name in names]
        assert all(p.terminated is None for p in procs)  # no join event yet
        sim.run()
        assert order == names
        # the kernel dispatches each process itself, once, then its exit
        assert dispatched[:5] == procs
        assert sim.events_dispatched == 10  # 5 starts + 5 join events
        assert [p.value for p in procs] == names

    def test_join_before_and_after_exit_sees_the_value(self, sim):
        def worker():
            yield Timeout(sim, 1.0)
            return 7

        def joiner(w, delay):
            yield Timeout(sim, delay)
            return (yield w.join())

        w = Process(sim, worker())
        early = Process(sim, joiner(w, 0.5))
        late = Process(sim, joiner(w, 2.0))
        sim.run()
        assert early.value == late.value == 7
        assert w.join() is w.terminated and w.terminated.value == 7

    def test_join_before_and_after_exit_sees_the_failure(self, sim):
        def worker():
            yield Timeout(sim, 1.0)
            raise RuntimeError("died")

        def joiner(w, delay):
            yield Timeout(sim, delay)
            try:
                yield w.join()
            except ProcessFailure as failure:
                return type(failure.cause).__name__

        w = Process(sim, worker())
        early = Process(sim, joiner(w, 0.5))
        late = Process(sim, joiner(w, 2.0))
        sim.run()
        assert early.value == late.value == "RuntimeError"

    def test_failed_wait_throws_process_crashed_in(self, sim):
        """The failure path looks ``throw`` up when it needs it: a
        ProcessCrashed arriving through an event still ends the process
        as crashed."""
        seen = []

        def body():
            ev = Event(sim)
            ev.fail(ProcessCrashed())
            try:
                yield ev
            except ProcessCrashed:
                seen.append("thrown")
                raise

        p = Process(sim, body())
        sim.run()
        assert seen == ["thrown"] and p.crashed and not p.alive
        assert p.terminated.value is None  # a crash is not a failure

    def test_crash_before_first_dispatch_never_runs_the_body(self, sim):
        ran = []

        def body():
            ran.append(True)
            yield Timeout(sim, 1.0)

        p = Process(sim, body())
        p.crash()
        sim.run()
        assert ran == [] and p.crashed
        assert sim.events_dispatched == 2  # the start entry (a no-op) + the join event

    def test_on_exit_receives_the_process(self, sim):
        exited = []

        def body():
            yield Timeout(sim, 1.0)

        p = Process(sim, body(), on_exit=exited.append)
        p.slot = 3
        sim.run()
        assert exited == [p] and exited[0].slot == 3
