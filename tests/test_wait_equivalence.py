"""Property tests: specialized wait loops ≡ generic wait loops.

PR 4 specialized the remaining generic completion loops per-handle
(:meth:`MpiProcess.wait_handles` — the NAS ``waitall`` towers — plus
``waitsome``/``waitany``): stock handles resolve to their underlying PML
requests once, completed requests drop out of the pending scan, and the
progress step is inlined.  The generic loops
(``wait_handles_generic``/``waitsome_generic``/``waitany_generic``) are
production code — *the* loops for non-stock handles, selected by handle
type — and correct for any handle, so every randomized configuration here
runs the same program through both and compares results, statuses,
completion orders, bit-identical virtual times and dispatched-event
counts, under completion orders randomized by per-sender compute delays.

The leader protocol is included deliberately: its ``DeferredRecvHandle``
does real work in ``advance()``, is *not* stock, and must route the whole
handle set to the generic loop — the fallback dispatch is part of the
contract.
"""

from __future__ import annotations

import numpy as np
from hypothesis import given, settings, strategies as st

from tests.conftest import fingerprint, make_job

PROTOCOLS = ["native", "sdr", "leader"]


def _status_obs(status):
    return None if status is None else (status.source, status.tag, status.nbytes)


def waiter_fanin(mpi, which, use_generic, delays, per_peer):
    """Rank 0 posts ANY_SOURCE receives (plus sends back), then completes
    them through the selected wait loop; peers send after hypothesis-drawn
    compute delays, randomizing the completion order rank 0 observes."""
    if mpi.rank != 0:
        d = delays[(mpi.rank - 1) % len(delays)]
        for i in range(per_peer):
            yield from mpi.compute(d * 1e-6)
            yield from mpi.send(np.array([float(mpi.rank * 100 + i)]), dest=0, tag=7)
        got, _st = yield from mpi.recv(source=0, tag=8)
        return float(got[0])
    handles = []
    for _ in range(per_peer * (mpi.size - 1)):
        h = yield from mpi.irecv(source=mpi.ANY_SOURCE, tag=7)
        handles.append(h)
    # Mixed handle kinds: the farewell sends complete through the same loop.
    for dst in range(1, mpi.size):
        s = yield from mpi.isend(np.array([float(dst)]), dest=dst, tag=8)
        handles.append(s)
    obs = []
    if which == "waitall":
        loop = mpi.wait_handles_generic if use_generic else mpi.wait_handles
        statuses = yield from loop(handles)
        obs.append([_status_obs(s) for s in statuses])
    elif which == "waitsome":
        loop = mpi.waitsome_generic if use_generic else mpi.waitsome
        pending = list(range(len(handles)))
        while pending:
            done = yield from loop([handles[i] for i in pending])
            got = {i for i, _s in done}
            obs.append(sorted((pending[i], _status_obs(s)) for i, s in done))
            pending = [p for j, p in enumerate(pending) if j not in got]
    else:  # waitany
        loop = mpi.waitany_generic if use_generic else mpi.waitany
        pending = list(range(len(handles)))
        while pending:
            i, s = yield from loop([handles[p] for p in pending])
            obs.append((pending[i], _status_obs(s)))
            pending.pop(i)
    data = sorted(float(h.data[0]) for h in handles[: per_peer * (mpi.size - 1)])
    return (obs, data)


def _run(protocol, n, which, use_generic, delays, per_peer):
    job = make_job(protocol, n).launch(
        waiter_fanin, which=which, use_generic=use_generic, delays=delays, per_peer=per_peer
    )
    return fingerprint(job.run())


@settings(max_examples=40, deadline=None)
@given(
    protocol=st.sampled_from(PROTOCOLS),
    n=st.sampled_from([3, 4, 5]),
    which=st.sampled_from(["waitall", "waitsome", "waitany"]),
    per_peer=st.integers(1, 3),
    delays=st.lists(st.integers(0, 40), min_size=1, max_size=4),
)
def test_wait_loop_equivalence(protocol, n, which, per_peer, delays):
    fast = _run(protocol, n, which, use_generic=False, delays=delays, per_peer=per_peer)
    spec = _run(protocol, n, which, use_generic=True, delays=delays, per_peer=per_peer)
    assert fast == spec, (
        f"specialized {which} diverged from generic spec ({protocol}, n={n})"
    )


def test_stock_dispatch_decision():
    """Stock handle sets get a poll plan; one non-stock handle (leader's
    deferred receive) sends the whole set to the generic spec loop."""
    from repro.core.baselines.leader import DeferredRecvHandle
    from repro.mpi.handles import RecvHandle, SendHandle
    from repro.mpi.pml import PmlRecvRequest

    job = make_job("native", 2)
    mpi = job.mpis[0]
    recv = RecvHandle(PmlRecvRequest(("w",), 1, 7))
    send = SendHandle([], world_dst=1, seq=0)
    polls = mpi._stock_polls([recv, send])
    assert polls == [(False, recv.pml_req), (True, send)]
    deferred = DeferredRecvHandle(None, 0, ("w",), 7, None)
    assert mpi._stock_polls([recv, deferred, send]) is None


def test_specialized_waitall_drops_completed_handles():
    """The whole point: completed requests leave the pending scan.  Proven
    indirectly by equivalence; pinned here via the public result so a
    refactor cannot quietly turn the compaction into a no-op."""
    job = make_job("sdr", 3)
    res = job.launch(
        waiter_fanin, which="waitall", use_generic=False, delays=[5, 25], per_peer=3
    ).run()
    obs, data = res.app_results[0]
    assert len(obs[0]) == 3 * 2 + 2  # every status surfaced, sends included
    assert data == sorted(data) and len(data) == 6
