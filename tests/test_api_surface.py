"""The engine's constructor surface and handle contract, pinned.

ROADMAP's rule — no new ``Job`` / ``Pml`` / ``Simulator`` / ``MatchEngine``
parameter without a reason in the PR description — fails a test instead of
a review: a parameter added, renamed or removed has to be written down here
too.  So does any attempt to give the completion handles behaviour again,
or to let anything hold a message past the call that borrowed it.
"""

from __future__ import annotations

import importlib
import inspect

import pytest

import repro.core.interpose as interpose
import repro.mpi
import repro.trace as trace
from repro.core.baselines.leader import LeaderProtocol
from repro.core.baselines.mirror import MirrorProtocol
from repro.core.baselines.redmpi import RedMpiProtocol
from repro.core.config import ReplicationConfig
from repro.core.sdr import SdrProtocol
from repro.harness.runner import Job, cluster_for
from repro.mpi.api import MpiProcess
from repro.mpi.handles import RecvHandle, SendHandle
from repro.mpi.matching import MatchEngine
from repro.mpi.pml import Pml, PmlRecvRequest
from repro.network.fabric import Endpoint, Frame
from repro.sim.kernel import Simulator

SURFACE = {
    Job: [
        "n_ranks", "cfg", "cluster", "seed", "jitter",
        "detector", "fault_plan", "shape", "traffic", "parallel",
    ],
    Pml: ["sim", "fabric", "proc"],
    MpiProcess: ["sim", "pml", "protocol", "world_rank", "world_shared"],
    # A replica stack reads the job's replica map and config directly: no
    # second, per-job copy of them is passed in.
    SdrProtocol: ["pml", "rmap", "membership", "cfg"],
    LeaderProtocol: ["pml", "rmap", "membership", "cfg"],
    MirrorProtocol: ["pml", "rmap", "membership", "cfg"],
    RedMpiProtocol: ["pml", "rmap", "membership", "cfg"],
    Simulator: ["trace_hook"],
    MatchEngine: [],
    # One object per message: a frame carries its routing and its envelope
    # (the matching and replication fields), so no envelope class is left.
    Frame: [
        "kind", "src", "dst", "size", "ctx", "src_rank", "tag", "world_src", "world_dst", "seq",
        "nbytes", "data", "msg_id", "ctrl_key",
    ],
}  # fmt: skip


@pytest.mark.parametrize("cls", SURFACE, ids=lambda cls: cls.__name__)
def test_constructor_parameters_are_pinned(cls):
    params = list(inspect.signature(cls.__init__).parameters)[1:]  # drop self
    assert params == SURFACE[cls]


def test_payloads_have_no_job_wide_table():
    """A payload stays the object its sender posted: no intern table in
    ``repro.mpi.datatypes`` and none on the job (copy-on-write in
    ``copy_payload``/``writable_copy`` is the only mutation gate)."""
    datatypes = importlib.import_module("repro.mpi.datatypes")
    assert not hasattr(datatypes, "PayloadInterner")
    assert "PayloadInterner" not in datatypes.__all__
    job = Job(2, cfg=ReplicationConfig(degree=2, protocol="sdr"), cluster=cluster_for(2, 2))
    assert not hasattr(job, "interner")


def test_handles_are_passive_and_every_wait_has_one_loop():
    """PR 19's contract: wait loops only read handles (no ``advance`` hook to
    drive, no ``needs_advance`` flag to dispatch on), so no MPI call keeps a
    second ``*_generic`` loop for handles that want driving."""
    for cls in (SendHandle, RecvHandle):
        assert not hasattr(cls, "advance") and not hasattr(cls, "needs_advance")
    assert not [name for name in dir(MpiProcess) if name.endswith("_generic")]
    assert MpiProcess.waitall is MpiProcess.wait_handles


def test_envelopes_are_borrowed_never_held():
    """One owner, no refcount: a message carries its wire fields, two
    timestamps and its fabric and nothing else, has no ``retain``/``copy``
    escape hatch, a receive request keeps no matched message, and hooks are
    plain lists with no guard."""
    assert Frame.__slots__ == (*SURFACE[Frame], "sent_at", "arrived_at", "fabric")
    assert not hasattr(Frame, "retain") and not hasattr(Frame, "copy")
    assert not {"matched", "lib_complete"} & set(PmlRecvRequest.__slots__)
    cfg = ReplicationConfig(degree=2, protocol="sdr")
    job = Job(2, cfg=cfg, cluster=cluster_for(2, 2))
    assert type(job.pmls[0].on_match) is list
    assert type(job.pmls[0].on_recv_complete) is list


def test_one_object_per_message_surface():
    """The envelope arena is gone: ``repro.mpi`` exports no ``Envelope``,
    a PML has no envelope pool or counters, and the fabric's one acquire
    is the only allocation site (no envelope relay/duplication counters)."""
    assert not hasattr(repro.mpi, "Envelope")
    assert not hasattr(importlib.import_module("repro.mpi.pml"), "Envelope")
    for name in ("acquire_env", "release_env", "strand_env", "_env_pool", "env_acquired", "env_high_water"):
        assert not hasattr(Pml, name), name
    fabric = Job(2, cfg=ReplicationConfig(degree=2, protocol="sdr"), cluster=cluster_for(2, 2)).fabric
    for name in ("acquire_frame", "send", "envs_duplicated", "envs_exported", "envs_imported"):
        assert not hasattr(fabric, name), name


def test_one_wire_path():
    """A frame is priced, counted and deferred in ``Fabric.inject`` alone:
    the barrier's downlink body is ``price_downlink`` (no mirrored
    ``price_deferred``), and a shard defers into the plain
    ``Fabric.deferred`` list (no router object)."""
    import repro.sim.shard as shard
    from repro.network.fabric import Fabric

    for name in ("price_deferred", "shard_router"):
        assert not hasattr(Fabric, name), name
    fabric = Job(2, cfg=ReplicationConfig(degree=2, protocol="sdr"), cluster=cluster_for(2, 2)).fabric
    assert fabric.deferred is None and not hasattr(fabric, "shard_router")
    assert not hasattr(shard, "_ShardRouter")


def test_one_ownership_check():
    """The end-of-run arena balance is the only envelope-ownership check:
    no opt-in filter guard, its per-PML ledger or its installing property,
    and no per-frame or per-compute counter that nothing reads."""
    for name in ("set_filter_guard", "filter_guard_enabled", "guard_incoming_filter"):
        assert not hasattr(interpose, name)
    assert "incoming_filter" in Pml.__slots__
    for name in ("_incoming_filter", "_guard_pending", "guard_violations"):
        assert not hasattr(Pml, name)
    assert not {"frames_sent", "bytes_sent", "bytes_received"} & set(Endpoint.__slots__)
    assert "compute_time" not in MpiProcess.__slots__


def test_one_send_recorder():
    """The determinism checker captures sends from the kernel's trace_hook:
    no per-process recorder slot, no recorder/event/Lamport modules, and no
    write-only SDR ``physical_src`` table."""
    assert "recorder" not in MpiProcess.__slots__
    for name in ("Recorder", "TraceSet", "SendEvent", "LamportClock", "happened_before"):
        assert not hasattr(trace, name)
    for module in ("recorder", "events", "lamport"):
        with pytest.raises(ImportError):
            importlib.import_module(f"repro.trace.{module}")
    assert not hasattr(SdrProtocol, "physical_src")
