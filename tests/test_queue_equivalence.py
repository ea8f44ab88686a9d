"""The event queue against its recorded specification.

``tests/data/queue_fingerprints.jsonl`` holds the full engine fingerprint
(per-rank results, bit-identical virtual and finish times, dispatched-event
and frame counts, per-kind frame histograms) of 185 configurations — seeded
draws from the p2p (60), rendezvous (40), collectives (40) and failover
(45) parameter spaces below, across all five protocols — as produced by the
seed-shaped **heap-only** queue (``Job(bucketed=False)`` at commit 006445c,
its last run before PR 13 deleted it; the two-level queue of the same
commit agreed on every line).  The one remaining engine is asserted against
that corpus.  It records the specification's answers, so it is never
re-recorded from the engine under test: a declared semantic change
re-derives it together with the determinism goldens.

The kernel's own order law needs no twin: it is checked as a property of
:class:`Simulator` alone, against a sorted ``(time, push index)`` reference
(:func:`test_kernel_order_is_time_then_push_order`).
"""

from __future__ import annotations

import heapq

from hypothesis import given, settings, strategies as st

from repro.sim.kernel import Simulator
from tests.conftest import assert_matches_corpus, load_corpus

CORPUS = load_corpus("queue_fingerprints.jsonl")
SPEC = "heap-only queue"


# ------------------------------------------------------- the recorded law
def test_p2p_queue_equivalence():
    assert_matches_corpus(CORPUS, "p2p", SPEC)


def test_rendezvous_queue_equivalence():
    assert_matches_corpus(CORPUS, "rendezvous", SPEC)


def test_collective_queue_equivalence():
    assert_matches_corpus(CORPUS, "collectives", SPEC)


def test_failover_queue_equivalence():
    """Crash handling (detector fan-out, failover resends, duplicate
    suppression) schedules bursts of now-time events — the fingerprint
    must hold through a fail-stop too."""
    assert_matches_corpus(CORPUS, "failover", SPEC)


# ------------------------------------------------------- kernel-level laws
# Dyadic delays reach exactly equal timestamps by different float sums
# (0.25 + 0.5 == 0.5 + 0.25 == 0.75); 0.1 + 0.2 != 0.3 must stay two cohorts.
_DELAYS = st.sampled_from([0.0, 0.0, 0.25, 0.5, 0.75, 0.1, 0.2, 0.3])
_FOLLOW = st.lists(st.tuples(st.sampled_from(["in", "at", "raw"]), _DELAYS), max_size=2)
_OPS = st.lists(
    st.one_of(
        st.tuples(st.sampled_from(["in", "at"]), _DELAYS, _FOLLOW),
        st.tuples(st.sampled_from(["run", "before"]), _DELAYS),
        st.tuples(st.just("cancel"), st.integers(0, 99)),
        st.just(("step",)),
    ),
    max_size=40,
)


class _Probe:
    """A schedulable that logs its firing and pushes its follow-ups."""

    cancelled = False

    def __init__(self, world, follow):
        self.world, self.follow = world, follow

    def fire(self):
        self.world.fired.append(self)
        for how, delay in self.follow:
            self.world.push(how, delay, (), self.key[1])


class _World:
    """Simulator plus the reference: every push gets the key ``(time,
    round, push index)``.  *round* is 0 except for an **unrouted** push — a
    site that puts an entry *at the current time* straight into the cohort
    map (``raw``) — which fires once the now-time FIFO has drained: one
    round after the event that pushed it."""

    def __init__(self):
        self.sim, self.probes, self.fired, self.surfaced = Simulator(), [], [], 0
        self.last = (-1.0, 0, 0)  # key of the last entry check() saw surfaced

    def push(self, how, delay, follow, parent_round=None):
        sim, probe = self.sim, _Probe(self, follow)
        # The queue's position: the entry firing right now, or — between
        # ops — the last one surfaced (a cancelled entry surfaces unfired).
        last = max([self.last] + [p.key for p in self.fired[-1:]])
        rnd = last[1] if last[0] == sim.now else 0
        if how == "raw" and parent_round is not None:
            sim._seq += 1
            sim._cohorts.setdefault(sim.now, []).append((sim._seq, probe))
            if sim.now not in sim._queue:
                heapq.heappush(sim._queue, sim.now)
            probe.key = (sim.now, parent_round + 1, len(self.probes))
        else:
            if how == "at":
                sim.schedule_at(probe, sim.now + delay)
            else:
                sim.schedule(probe, delay)
            probe.key = (sim.now + delay, rnd if delay == 0.0 else 0, len(self.probes))
        self.probes.append(probe)

    def check(self, surfaced_if):
        """The queue surfaces entries in key order; the surfaced prefix is
        whatever *surfaced_if* admits (never shrinking)."""
        sim, order = self.sim, sorted(self.probes, key=lambda p: p.key)
        self.surfaced = max(self.surfaced, sum(1 for p in order if surfaced_if(p.key[0])))
        if self.surfaced:
            self.last = order[self.surfaced - 1].key
        assert self.fired == [p for p in order[: self.surfaced] if not p.cancelled]
        assert sim.queue_size == len(order) - self.surfaced
        rest = order[self.surfaced :]
        assert sim.peek() == (rest[0].key[0] if rest else None)
        return rest


@settings(max_examples=200, deadline=None)
@given(ops=_OPS)
def test_kernel_order_is_time_then_push_order(ops):
    """``Simulator`` alone against a sorted ``(time, push index)`` list:
    any interleaving of zero/positive ``schedule``, now/future
    ``schedule_at``, ``cancel``, ``step``, ``run(until)`` and
    ``run_until_before(horizon)`` — with pushes made while a timestamp is
    being fired — dispatches in reference order, honours both horizons,
    and keeps ``queue_size`` and ``peek`` exact."""
    world = _World()
    sim = world.sim
    nothing = lambda t: False  # noqa: E731 - the op surfaces nothing by time
    for op in ops:
        pending = world.check(nothing)
        admit = nothing
        if op[0] in ("in", "at"):
            world.push(*op)
        elif op[0] == "cancel":
            if pending:
                pending[op[1] % len(pending)].cancelled = True
        elif op[0] == "step":
            assert sim.step() == bool(pending)
            world.surfaced += bool(pending)
        elif op[0] == "run":
            until = sim.now + op[1]
            sim.run(until=until)
            assert sim.now == until
            admit = lambda t: t <= until  # noqa: E731
        else:
            before, horizon = sim.now, sim.now + op[1]
            sim.run_until_before(horizon)
            assert sim.now < horizon or sim.now == before
            admit = lambda t: t < horizon  # noqa: E731
        world.check(admit)
    sim.run()
    assert world.check(lambda t: True) == []


def test_kernel_fifo_order_is_push_order():
    """Same-time insertions made while a batch drains fire behind it, in
    push order (the literal order the heap-only queue produced)."""
    sim = Simulator()
    seen = []

    def fire(label, follow=()):
        def cb():
            seen.append((label, sim.now))
            for f in follow:
                sim.call_in(0.0, lambda f=f: seen.append((f, sim.now)))
        return cb

    sim.call_in(0.0, fire("pre-a", follow=("pre-a.0", "pre-a.1")))
    sim.call_at(1.0, fire("t1-a", follow=("t1-a.0",)))
    sim.call_at(1.0, fire("t1-b", follow=("t1-b.0", "t1-b.1")))
    sim.call_at(2.0, fire("t2-a"))
    sim.call_in(0.0, fire("pre-b"))
    sim.run()
    assert seen == [
        ("pre-a", 0.0), ("pre-b", 0.0), ("pre-a.0", 0.0), ("pre-a.1", 0.0),
        ("t1-a", 1.0), ("t1-b", 1.0), ("t1-a.0", 1.0), ("t1-b.0", 1.0), ("t1-b.1", 1.0),
        ("t2-a", 2.0),
    ]


def test_kernel_step_and_peek_agree():
    sim = Simulator()
    seen = []
    sim.call_in(0.0, lambda: seen.append("now"))
    sim.call_at(3.0, lambda: seen.append("later"))
    assert sim.peek() == 0.0
    assert sim.queue_size == 2
    assert sim.step() and seen == ["now"]
    assert sim.peek() == 3.0
    assert sim.step() and seen == ["now", "later"]
    assert not sim.step()
    assert sim.peek() is None and sim.queue_size == 0
