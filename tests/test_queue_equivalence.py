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
import json
from pathlib import Path

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.core.config import ReplicationConfig
from repro.harness.runner import Job, cluster_for
from repro.mpi.datatypes import Phantom
from repro.sim.kernel import Simulator

CORPUS = [
    json.loads(line)
    for line in (Path(__file__).parent / "data" / "queue_fingerprints.jsonl").open()
]


def _job(protocol: str, n_ranks: int) -> Job:
    if protocol == "native":
        cfg = ReplicationConfig(degree=1, protocol="native")
    else:
        cfg = ReplicationConfig(degree=2, protocol=protocol)
    return Job(n_ranks, cfg=cfg, cluster=cluster_for(n_ranks, cfg.degree))


def _norm(value):
    if isinstance(value, np.ndarray):
        return ("ndarray", value.dtype.str, value.tolist())
    if isinstance(value, (list, tuple)):
        return [_norm(v) for v in value]
    return value


def _fingerprint(res):
    return {
        "results": {proc: _norm(v) for proc, v in sorted(res.app_results.items())},
        "runtime": repr(res.runtime),
        "finish": {p: repr(t) for p, t in sorted(res.finish_times.items())},
        "events": res.events,
        "frames": res.fabric["frames"],
        "bytes": res.fabric["bytes"],
        "by_kind": dict(sorted(res.fabric["by_kind"].items())),
        "unexpected": res.stat_total("unexpected_count"),
        "acks": res.stat_total("acks_sent"),
    }


def _assert_matches_corpus(kind, run):
    """Every recorded *kind* line: ``run(job, **params)`` must reproduce the
    heap-only engine's fingerprint (compared in the corpus's JSON form)."""
    cases = [c for c in CORPUS if c["kind"] == kind]
    assert cases, f"no {kind} lines in the corpus"
    for case in cases:
        res = run(_job(case["protocol"], case["n"]), **case["params"])
        got = json.loads(json.dumps(_fingerprint(res)))
        assert got == case["fingerprint"], (
            f"queue diverged from the recorded heap-only spec "
            f"({kind}, {case['protocol']}, n={case['n']}, {case['params']})"
        )


# ------------------------------------------------------------ applications
def mixed_p2p(mpi, rounds, anonymous, tagset):
    """Eager p2p with optional wildcards: matched, unexpected and reorder
    paths — dense same-timestamp batches of completions and wake-ups."""
    acc = 0.0
    if mpi.rank == 0:
        for r in range(rounds):
            for _ in range(mpi.size - 1):
                src = mpi.ANY_SOURCE if anonymous else (_ % (mpi.size - 1)) + 1
                d, st_ = yield from mpi.recv(source=src, tag=tagset[r % len(tagset)])
                acc += float(d[0])
            for dst in range(1, mpi.size):
                yield from mpi.send(np.array([acc]), dest=dst, tag=tagset[r % len(tagset)])
    else:
        for r in range(rounds):
            yield from mpi.send(
                np.array([float(mpi.rank + r)]), dest=0, tag=tagset[r % len(tagset)]
            )
            d, _ = yield from mpi.recv(source=0, tag=tagset[r % len(tagset)])
            acc = float(d[0])
    return acc


def rendezvous_ring(mpi, iters, nbytes):
    """Modeled large payloads force the rts/cts/data handshake + a collective."""
    right = (mpi.rank + 1) % mpi.size
    left = (mpi.rank - 1) % mpi.size
    acc = 0.0
    for _ in range(iters):
        yield from mpi.sendrecv(Phantom(nbytes), dest=right, source=left, sendtag=5)
        acc += float((yield from mpi.allreduce(float(mpi.rank), op="sum")))
    return acc


def collective_mix(mpi, iters):
    acc = 0.0
    for it in range(iters):
        root = it % mpi.size
        data = yield from mpi.bcast(np.arange(4, dtype=np.float64) + it, root=root)
        acc += float(data[0])
        acc += float((yield from mpi.allreduce(float(mpi.rank + it), op="max")))
        gathered = yield from mpi.gather(mpi.rank + it, root=root)
        acc += float((yield from mpi.scatter(gathered if mpi.rank == root else None, root=root)))
    return acc


# ------------------------------------------------------- the recorded law
def test_p2p_queue_equivalence():
    _assert_matches_corpus(
        "p2p",
        lambda job, rounds, anonymous, tagset: job.launch(
            mixed_p2p, rounds=rounds, anonymous=anonymous, tagset=tuple(tagset)
        ).run(),
    )


def test_rendezvous_queue_equivalence():
    _assert_matches_corpus(
        "rendezvous",
        lambda job, iters, nbytes: job.launch(rendezvous_ring, iters=iters, nbytes=nbytes).run(),
    )


def test_collective_queue_equivalence():
    _assert_matches_corpus(
        "collectives", lambda job, iters: job.launch(collective_mix, iters=iters).run()
    )


def test_failover_queue_equivalence():
    """Crash handling (detector fan-out, failover resends, duplicate
    suppression) schedules bursts of now-time events — the fingerprint
    must hold through a fail-stop too."""

    def run(job, crash_us):
        job.launch(mixed_p2p, rounds=3, anonymous=True, tagset=(1, 2))
        job.crash(1, 1, at=crash_us * 1e-6)
        return job.run(allow_lost_ranks=True)

    _assert_matches_corpus("failover", run)


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

    def push(self, how, delay, follow, parent_round=None):
        sim, probe = self.sim, _Probe(self, follow)
        last = self.fired[-1].key if self.fired else (None, 0)
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
