"""A simulated MPI library with Open MPI's layering.

Layer map (paper Fig. 5):

* :mod:`repro.mpi.api`      — the "OMPI" user-facing binding (MPI_* analogue)
* :mod:`repro.mpi.pml`      — point-to-point management layer: eager and
  rendezvous protocols, matching, the ``pml_match`` / ``pml_recv_complete``
  hook events the vProtocol interposition layer consumes
* :mod:`repro.network`      — the "BTL": the wire

Replication protocols (:mod:`repro.core`) interpose between the API and the
PML exactly as SDR-MPI does between OMPI and ob1.

The library deliberately reproduces one behavioural constraint the paper's
deadlock argument (§3.3) depends on: **no asynchronous progress**.  Frames
are only examined while the owning process executes an MPI call.
"""

from repro.mpi.errors import (
    DeadlockError,
    MpiError,
    RankError,
    TruncationError,
)
from repro.mpi.datatypes import Phantom, copy_payload, nbytes_of
from repro.mpi.status import ANY_SOURCE, ANY_TAG, Status
from repro.mpi.pml import Pml
from repro.mpi.group import Group
from repro.mpi.comm import Communicator
from repro.mpi.api import MpiProcess

__all__ = [
    "ANY_SOURCE",
    "ANY_TAG",
    "Communicator",
    "DeadlockError",
    "Group",
    "MpiError",
    "MpiProcess",
    "Phantom",
    "Pml",
    "RankError",
    "Status",
    "TruncationError",
    "copy_payload",
    "nbytes_of",
]
