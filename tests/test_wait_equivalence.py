"""The wait loops against their recorded predecessors.

Until PR 19 every completion call had two loops: a specialized one for
stock handles and a ``*_generic`` one that drove ``advance()`` on every
handle each progress iteration (the leader protocols' deferred receive did
real work there).  Handles are passive now and each call has one loop; what
the deleted ``wait_handles_generic`` / ``waitsome_generic`` /
``waitany_generic`` computed on the parent commit is recorded in
``tests/data/wait_fingerprints.jsonl`` — ``waiter_fanin`` × {waitall,
waitsome, waitany} × five protocols (leader/redmpi at degree 2 and 3) ×
n ∈ {3, 4, 5} × per_peer ∈ {1, 3} × four per-sender delay vectors, 504
lines: results, statuses, completion orders, bit-identical virtual times,
dispatched-event counts and every counter.  The corpus cannot be re-recorded
from this engine (the loops are gone) and must not be.

``test_wait_order_is_unobservable`` is the property the old design broke:
which wait call completes a handle, and in what order, must not change the
run.
"""

from __future__ import annotations

import pytest

from repro.mpi.datatypes import Phantom
from tests.conftest import (
    PROTOCOLS,
    assert_matches_corpus,
    load_corpus,
    make_job,
    norm,
    waiter_fanin,
)


def test_wait_loop_equivalence():
    corpus = load_corpus("wait_fingerprints.jsonl")
    assert len(corpus) == 504
    assert_matches_corpus(corpus, "wait", "*_generic wait loops")


def test_specialized_waitall_drops_completed_handles():
    """The whole point: completed requests leave the pending scan.  Proven
    indirectly by equivalence; pinned here via the public result so a
    refactor cannot quietly turn the compaction into a no-op."""
    job = make_job("sdr", 3)
    res = job.launch(waiter_fanin, which="waitall", delays=[5, 25], per_peer=3).run()
    obs, data = res.app_results[0]
    assert len(obs[0]) == 3 * 2 + 2  # every status surfaced, sends included
    assert data == sorted(data) and len(data) == 6


def halo(mpi, nbytes, piecemeal):
    """Two anonymous receives and two sends to the ring neighbours, completed
    one ``wait`` at a time (receive, both sends, the other receive) or by one
    ``waitall`` — legal MPI either way."""
    right = (mpi.rank + 1) % mpi.size
    left = (mpi.rank - 1) % mpi.size
    r_lo = yield from mpi.irecv(source=mpi.ANY_SOURCE, tag=1)
    r_hi = yield from mpi.irecv(source=mpi.ANY_SOURCE, tag=1)
    s1 = yield from mpi.isend(Phantom(nbytes), dest=left, tag=1)
    s2 = yield from mpi.isend(Phantom(nbytes), dest=right, tag=1)
    if piecemeal:
        for handle in (r_lo, s1, s2, r_hi):
            yield from mpi.wait(handle)
    else:
        yield from mpi.waitall([r_lo, s1, s2, r_hi])
    return sorted((r.status.source, r.status.nbytes) for r in (r_lo, r_hi))


@pytest.mark.parametrize("degree", [2, 3])
@pytest.mark.parametrize("nbytes", [64, 200_000], ids=["eager", "rendezvous"])
@pytest.mark.parametrize("protocol", PROTOCOLS)
def test_wait_order_is_unobservable(protocol, nbytes, degree):
    """Piecemeal waits ≡ one waitall.  On the PR 16 engine the rendezvous
    case raised ``DeadlockError`` under leader and redmpi: a follower posted
    its second deferred receive only once ``wait`` reached that handle, so
    its peer's clear-to-send never left."""
    runs = [
        make_job(protocol, 4, degree=degree).launch(halo, nbytes=nbytes, piecemeal=piecemeal).run()
        for piecemeal in (True, False)
    ]
    piecemeal, waitall = runs
    assert repr(piecemeal.runtime) == repr(waitall.runtime)
    assert norm(sorted(piecemeal.app_results.items())) == norm(sorted(waitall.app_results.items()))
    assert piecemeal.events == waitall.events
