"""repro — SDR-MPI: Replication for Send-Deterministic MPI HPC Applications.

A simulation-grade reproduction of Lefray, Ropars & Schiper (FTXS/HPDC
2013): the SDR-MPI replication protocol implemented inside a deterministic
discrete-event MPI runtime, together with the mirror (MR-MPI), leader-based
(rMPI) and redMPI comparator protocols, the paper's benchmark set (NetPipe,
NAS BT/CG/FT/MG/SP, HPCCG, CM1), failure injection, dual-replication
recovery, and a harness regenerating every table and figure of the paper's
evaluation.

Quickstart::

    from repro import Job, ReplicationConfig

    def app(mpi):
        x = yield from mpi.allreduce(float(mpi.rank), op="sum")
        return x

    native = Job(8).launch(app).run()
    replicated = Job(8, cfg=ReplicationConfig(degree=2, protocol="sdr")).launch(app).run()
"""

from repro.core.config import ReplicationConfig
from repro.core.recovery import RecoveryManager
from repro.harness.faults import FaultSchedule
from repro.harness.runner import Job, JobResult, cluster_for
from repro.mpi.status import ANY_SOURCE, ANY_TAG
from repro.network.topology import Cluster
from repro.trace.determinism import check_send_determinism

__version__ = "1.0.0"

__all__ = [
    "ANY_SOURCE",
    "ANY_TAG",
    "Cluster",
    "FaultSchedule",
    "Job",
    "JobResult",
    "RecoveryManager",
    "ReplicationConfig",
    "check_send_determinism",
    "cluster_for",
    "__version__",
]
