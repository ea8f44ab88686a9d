"""The §3.3 deadlock argument, executable.

The paper: two processes each do MPI_Irecv; MPI_Send; MPI_Wait(recv).  The
Send cannot complete before the acks arrive; the acks can only be produced
if reception completes *at the library level* while the peers are stuck
inside MPI_Send.  Acking at irecvComplete (SDR-MPI's choice) therefore
works; acking when the receive completes at the *application* level (i.e.
when MPI_Wait is finally called on it) deadlocks, because neither process
ever gets there.
"""

import numpy as np
import pytest

from repro.core.config import ReplicationConfig
from repro.core.sdr import SdrProtocol
from repro.harness.runner import Job, _PROTOCOL_CLASSES, cluster_for
from repro.mpi.errors import DeadlockError


def exchange(mpi):
    """Irecv; Send; Wait(recv) — both ranks simultaneously (§3.3)."""
    peer = 1 - mpi.rank
    recv = yield from mpi.irecv(source=peer, tag=1)
    yield from mpi.send(np.ones(1), dest=peer, tag=1)  # blocks awaiting acks
    yield from mpi.wait(recv)
    return float(recv.data[0])


class AckOnAppCompletionProtocol(SdrProtocol):
    """The broken design the paper warns against: acks are emitted when the
    application completes the receive, never at irecvComplete.  In
    ``exchange`` no process ever gets that far — each sits in MPI_Send,
    which needs the ack — so unhooking SDR's irecvComplete ack is the whole
    counterfactual."""

    name = "sdr-late-ack"

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.pml.on_recv_complete.remove(self._ack_on_recv_complete)


def _job(protocol_cls):
    _PROTOCOL_CLASSES["_test"] = protocol_cls
    cfg = ReplicationConfig(degree=2, protocol="sdr")
    object.__setattr__(cfg, "protocol", "_test")
    job = Job(2, cfg=cfg, cluster=cluster_for(2, 2, cores_per_node=1))
    del _PROTOCOL_CLASSES["_test"]
    return job


def test_ack_on_irecv_complete_is_deadlock_free():
    """SDR-MPI's design: the exchange completes."""
    cfg = ReplicationConfig(degree=2, protocol="sdr")
    job = Job(2, cfg=cfg, cluster=cluster_for(2, 2, cores_per_node=1))
    res = job.launch(exchange).run()
    assert all(v == 1.0 for v in res.app_results.values())


def test_ack_on_app_completion_deadlocks():
    """The counterfactual: every process stuck in MPI_Send forever."""
    job = _job(AckOnAppCompletionProtocol)
    job.launch(exchange)
    with pytest.raises(DeadlockError) as err:
        job.run()
    # all four physical processes are blocked
    assert len(err.value.blocked) == 4


def test_unexpected_eager_message_still_acked():
    """irecvComplete covers unexpected eager messages: the message is fully
    in the library even though no receive is posted — the ack must flow,
    letting the sender's MPI_Send complete before the receive is posted."""

    def app(mpi):
        peer = 1 - mpi.rank
        if mpi.rank == 0:
            t0 = mpi.wtime()
            yield from mpi.send(np.ones(1), dest=peer, tag=1)
            send_done = mpi.wtime() - t0
            return send_done
        # receiver sits in an unrelated MPI call (probe loop), receive
        # posted only much later
        yield from mpi.compute(50e-6)
        st = yield from mpi.probe(source=0, tag=1)  # drains, acks fire here
        yield from mpi.compute(100e-6)
        data, _ = yield from mpi.recv(source=0, tag=1)
        return float(data[0])

    cfg = ReplicationConfig(degree=2, protocol="sdr")
    job = Job(2, cfg=cfg, cluster=cluster_for(2, 2, cores_per_node=1))
    res = job.launch(app).run()
    # rank 0's Send completed as soon as the library-level reception +
    # ack happened (~50 us), NOT after the 100 us post-probe delay
    assert res.app_results[0] < 120e-6
    assert res.app_results[1] == 1.0
