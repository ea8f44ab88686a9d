"""The engine's constructor surface and handle contract, pinned.

ROADMAP's rule — no new ``Job`` / ``Pml`` / ``Simulator`` / ``MatchEngine``
parameter without a reason in the PR description — fails a test instead of
a review: a parameter added, renamed or removed has to be written down here
too.  So does any attempt to give the completion handles behaviour again.
"""

from __future__ import annotations

import inspect

import pytest

from repro.harness.runner import Job
from repro.mpi.api import MpiProcess
from repro.mpi.handles import RecvHandle, SendHandle
from repro.mpi.matching import MatchEngine
from repro.mpi.pml import Pml
from repro.sim.kernel import Simulator

SURFACE = {
    Job: [
        "n_ranks", "cfg", "cluster", "seed", "jitter", "recorder_factory",
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
