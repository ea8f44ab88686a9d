"""The engine's constructor surface and handle contract, pinned.

ROADMAP's rule — no new ``Job`` / ``Pml`` / ``Simulator`` / ``MatchEngine``
parameter without a reason in the PR description — fails a test instead of
a review: a parameter added, renamed or removed has to be written down here
too.  So does any attempt to give the completion handles behaviour again,
or to let anything hold an envelope past the call that borrowed it.
"""

from __future__ import annotations

import importlib
import inspect

import pytest

import repro.core.interpose as interpose
import repro.trace as trace
from repro.core.config import ReplicationConfig
from repro.core.sdr import SdrProtocol
from repro.harness.runner import Job, cluster_for
from repro.mpi.api import MpiProcess
from repro.mpi.handles import RecvHandle, SendHandle
from repro.mpi.matching import MatchEngine
from repro.mpi.pml import Envelope, Pml, PmlRecvRequest
from repro.network.fabric import Endpoint
from repro.sim.kernel import Simulator

SURFACE = {
    Job: [
        "n_ranks", "cfg", "cluster", "seed", "jitter",
        "detector", "fault_plan", "shape", "traffic", "parallel",
    ],
    Pml: ["sim", "fabric", "proc", "interner"],
    Simulator: ["trace_hook"],
    MatchEngine: [],
}  # fmt: skip


@pytest.mark.parametrize("cls", SURFACE, ids=lambda cls: cls.__name__)
def test_constructor_parameters_are_pinned(cls):
    params = list(inspect.signature(cls.__init__).parameters)[1:]  # drop self
    assert params == SURFACE[cls]


def test_handles_are_passive_and_every_wait_has_one_loop():
    """PR 19's contract: wait loops only read handles (no ``advance`` hook to
    drive, no ``needs_advance`` flag to dispatch on), so no MPI call keeps a
    second ``*_generic`` loop for handles that want driving."""
    for cls in (SendHandle, RecvHandle):
        assert not hasattr(cls, "advance") and not hasattr(cls, "needs_advance")
    assert not [name for name in dir(MpiProcess) if name.endswith("_generic")]
    assert MpiProcess.waitall is MpiProcess.wait_handles


def test_envelopes_are_borrowed_never_held():
    """One owner, no refcount: an envelope carries its wire fields and
    nothing else, has no ``retain``/``copy`` escape hatch, a receive request
    keeps no matched envelope, and hooks are plain lists with no guard."""
    assert Envelope.__slots__ == Envelope._FIELDS
    assert not hasattr(Envelope, "retain") and not hasattr(Envelope, "copy")
    assert not {"matched", "lib_complete"} & set(PmlRecvRequest.__slots__)
    cfg = ReplicationConfig(degree=2, protocol="sdr")
    job = Job(2, cfg=cfg, cluster=cluster_for(2, 2))
    assert type(job.pmls[0].on_match) is list
    assert type(job.pmls[0].on_recv_complete) is list


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
