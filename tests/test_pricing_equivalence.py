"""Node-pair pricing == the per-channel pricer it replaced.

:class:`ReferencePricer` is the pricing half of ``Fabric.inject`` as it
stood through PR 20 — one ``[model, src_busy, dst_busy, channel_free,
last_arrival]`` state per ordered ``(src, dst)`` channel, the FIFO clamp
applied to every frame — kept here as the oracle (the
``LinearMatchEngine`` / ``_place_cohort_reference`` pattern).  The engine
now prices per node pair, keeps only the intra-node ``channel_free`` per
channel and consults the clamp only under perturbation; the properties
below prove the two agree to the last bit on random frame sequences, with
and without jitter, delay windows and duplication, through ``inject`` and
through the shard path (``Fabric.deferred`` -> ``price_downlink``).
"""

from itertools import cycle

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.network.fabric import Fabric, Frame
from repro.network.model import FaultPlan, LinkFaultWindow
from repro.network.topology import Cluster, round_robin_placement
from repro.sim.kernel import Simulator

NODES, CORES = 3, 2
N_PROCS = NODES * CORES


class ReferencePricer:
    """Per-channel wire pricing, one 5-slot state per ordered channel."""

    def __init__(self, cost_table):
        self.cost_table = cost_table
        self.chan = {}
        self.node_busy = {}
        self.clamps = 0  # times the FIFO clamp actually moved an arrival

    def _chan_state(self, key):
        src_node, dst_node = (self.cost_table.node_of[p] for p in key)
        model = self.cost_table.model(src_node, dst_node)
        if src_node != dst_node:
            src_busy = self.node_busy.setdefault(src_node, [0.0, 0.0])
            dst_busy = self.node_busy.setdefault(dst_node, [0.0, 0.0])
            state = [model, src_busy, dst_busy, 0.0, 0.0]
        else:
            state = [model, None, None, 0.0, 0.0]
        self.chan[key] = state
        return state

    def price(self, src, dst, size, now, jit=0.0, extra_delay=0.0):
        state = self.chan.get((src, dst)) or self._chan_state((src, dst))
        model, src_busy, dst_busy = state[:3]
        ser = model.serialization(size)
        if src_busy is not None:
            t_up = src_busy[0]
            if t_up < now:
                t_up = now
            src_busy[0] = t_up + ser
            t_down = t_up + model.latency
            if t_down < dst_busy[1]:
                t_down = dst_busy[1]
            arrival = t_down + ser
            dst_busy[1] = arrival
        else:
            depart = state[3]
            if depart < now:
                depart = now
            arrival = depart + ser + model.latency
            state[3] = arrival
        if jit > 0.0:
            arrival += jit
        if extra_delay > 0.0:
            arrival += extra_delay
        if arrival < state[4]:
            arrival = state[4]
            self.clamps += 1
        state[4] = arrival
        return arrival


def _eager(src, dst, size):
    return Frame("eager", src, dst, size, ("w", 0), src, 0, src, dst, 0, size)


frames_st = st.lists(
    st.tuples(
        st.integers(0, N_PROCS - 1),
        st.integers(1, N_PROCS - 1),  # dst = (src + k) % N_PROCS, never src
        st.sampled_from([0, 1, 64, 4096, 100_000]),
        st.sampled_from([0.0, 0.0, 1e-7, 3e-6, 1e-4]),  # gap to the previous inject
    ),
    min_size=1,
    max_size=40,
)
window_st = st.tuples(st.sampled_from([0.0, 2e-6, 1e-5]), st.sampled_from([3e-6, 5e-5, 1.0]))
jitter_st = st.lists(st.sampled_from([0.0, 1e-7, 5e-6, 50e-6]), min_size=1, max_size=7)


def _run(frames, mode, window, jolts, deferred):
    """Price *frames* on the engine and on the reference.

    Returns ``(fabric, reference, engine, oracle)`` where the last two are
    the ``(src, dst, sent_at, arrival)`` records of every frame priced (link
    duplicates included), in pricing order.
    """
    sim = Simulator()
    placement = round_robin_placement(Cluster(nodes=NODES, cores_per_node=CORES), N_PROCS)
    draws = cycle(jolts)
    fabric = Fabric(sim, placement, jitter=(lambda: next(draws)) if mode == "jitter" else None)
    start, end = window[0], window[0] + window[1]
    if mode == "delay":
        fabric.install_faults(FaultPlan(windows=(LinkFaultWindow(start, end, delay=20e-6),)), None)
    elif mode == "dup":
        plan = FaultPlan(windows=(LinkFaultWindow(start, end, dup_p=1.0),))
        fabric.install_faults(plan, np.random.default_rng(0))
    fabric.deferred = [] if deferred else None  # what a shard worker sets
    reference = ReferencePricer(fabric.cost_table)
    ref_draws = cycle(jolts)
    engine, oracle = [], []
    now = 0.0
    for src, k, size, gap in frames:
        now += gap
        dst = (src + k) % N_PROCS
        in_window = start <= now < end
        copies = 2 if mode == "dup" and in_window else 1
        for _ in range(copies):  # a duplicate is priced right behind its original, unperturbed
            jit = next(ref_draws) if mode == "jitter" else 0.0
            spike = 20e-6 if mode == "delay" and in_window else 0.0
            oracle.append((src, dst, now, reference.price(src, dst, size, now, jit, spike)))

        def inject(src=src, dst=dst, size=size):
            fabric.inject(_eager(src, dst, size))

        sim.call_at(now, inject)
    sim.run()
    if deferred:
        # Barrier: downlinks priced in inject order (one shard: canonical).
        for _at, _shard, _seq, frame, t_head, ser, spike, _sim_seq in fabric.deferred:
            arrival = fabric.price_downlink(frame.src, frame.dst, t_head, ser, spike)
            engine.append((frame.src, frame.dst, frame.sent_at, arrival))
    for ep in fabric.endpoints:
        engine.extend((f.src, f.dst, f.sent_at, f.arrived_at) for f in ep.inbox)
    return fabric, reference, engine, oracle


def _assert_same_state(fabric, reference):
    for node, cell in reference.node_busy.items():
        assert repr(fabric._node_busy[node]) == repr(cell)
    assert all(cell == [0.0, 0.0] for n, cell in enumerate(fabric._node_busy) if n not in reference.node_busy)
    intra = {key: state[3] for key, state in reference.chan.items() if state[1] is None}
    engine_intra = {
        (src, dst): free
        for src, row in enumerate(fabric._chan_free)
        if row
        for dst, free in row.items()
    }
    assert {k: repr(v) for k, v in engine_intra.items()} == {k: repr(v) for k, v in intra.items()}


@settings(max_examples=120, deadline=None)
@given(
    frames=frames_st,
    mode=st.sampled_from(["none", "jitter", "delay", "dup"]),
    window=window_st,
    jolts=jitter_st,
)
def test_inject_prices_like_the_per_channel_reference(frames, mode, window, jolts):
    fabric, reference, engine, oracle = _run(frames, mode, window, jolts, deferred=False)
    assert sorted(map(repr, engine)) == sorted(map(repr, oracle))
    _assert_same_state(fabric, reference)


@settings(max_examples=80, deadline=None)
@given(frames=frames_st, mode=st.sampled_from(["none", "delay"]), window=window_st)
def test_deferred_pricing_matches_the_per_channel_reference(frames, mode, window):
    # jitter and stochastic windows are shard hazards: they never reach defer()
    fabric, reference, engine, oracle = _run(frames, mode, window, [0.0], deferred=True)
    assert sorted(map(repr, engine)) == sorted(map(repr, oracle))
    _assert_same_state(fabric, reference)  # uplinks were priced at inject, downlinks at the barrier


@settings(max_examples=80, deadline=None)
@given(frames=frames_st, deferred=st.booleans())
def test_clamp_never_fires_without_a_perturbation_source(frames, deferred):
    fabric, reference, _engine, _oracle = _run(frames, "none", (0.0, 1.0), [0.0], deferred)
    assert reference.clamps == 0  # the always-on clamp of the old pricer was dead code here
    assert not fabric._perturbed and fabric._last_arrival == {}


@settings(max_examples=80, deadline=None)
@given(
    frames=frames_st,
    mode=st.sampled_from(["jitter", "delay"]),
    window=window_st,
    jolts=jitter_st,
)
def test_fifo_per_ordered_channel_under_perturbation(frames, mode, window, jolts):
    fabric, _reference, _engine, _oracle = _run(frames, mode, window, jolts, deferred=False)
    assert fabric._perturbed
    last = {}
    # inbox order is delivery order; per channel it must also be inject order
    for ep in fabric.endpoints:
        sent = {}
        for f in ep.inbox:
            assert f.sent_at >= sent.get(f.src, 0.0)
            assert f.arrived_at >= last.get((f.src, f.dst), 0.0)
            sent[f.src] = f.sent_at
            last[(f.src, f.dst)] = f.arrived_at


def test_same_instant_deferred_keys_are_unique_and_inject_ordered():
    """Several same-instant inter-node injects from one shard within one
    window: the merge key ``(inject_time, shard_id, seq)`` is unique, so the
    barrier's tuple sort never reaches the frame (a Frame does not order),
    and it sorts in inject order — the serial engine's downlink order."""
    sim = Simulator()
    placement = round_robin_placement(Cluster(nodes=NODES, cores_per_node=CORES), N_PROCS)
    fabric = Fabric(sim, placement)
    fabric.deferred, fabric.shard_id = [], 1
    pairs = [(0, 2), (1, 4), (0, 1), (0, 3), (3, 5), (0, 2)]  # (0, 1) is intra-node: never deferred
    frames = [_eager(src, dst, 64) for src, dst in pairs]
    for frame in frames:
        sim.call_at(5e-6, lambda frame=frame: fabric.inject(frame))
    sim.run()
    keys = [rec[:3] for rec in fabric.deferred]
    assert keys == [(5e-6, 1, seq) for seq in range(5)]
    assert [rec[3] for rec in sorted(fabric.deferred)] == [f for f in frames if f.dst != 1]
