"""The engine's constructor surface, pinned.

ROADMAP's rule — no new ``Job`` / ``Pml`` / ``Simulator`` / ``MatchEngine``
parameter without a reason in the PR description — fails a test instead of
a review: a parameter added, renamed or removed has to be written down here
too.
"""

from __future__ import annotations

import inspect

import pytest

from repro.harness.runner import Job
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
