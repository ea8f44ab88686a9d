"""NetPipe: the ping-pong microbenchmark behind Fig. 7.

Two ranks on distinct nodes bounce a message of each size back and forth;
reported latency is half the round-trip, throughput is bits moved per
second of half-round-trip — NetPipe's convention.
"""

from __future__ import annotations

from typing import Dict, Generator, Sequence

import numpy as np

from repro.core.config import ReplicationConfig
from repro.harness.runner import Job, cluster_for
from repro.mpi.datatypes import Phantom

__all__ = ["DEFAULT_SIZES", "netpipe_rank", "netpipe_sweep"]

#: the paper's Fig. 7 x-axis: 1 B .. 8 MB
DEFAULT_SIZES = tuple(
    int(x) for x in (1, 8, 64, 256, 1024, 4096, 16384, 65536, 262144, 1048576, 4194304, 8388608)
)


def netpipe_rank(
    mpi,
    nbytes: int = 1,
    iters: int = 10,
    warmup: int = 2,
    validate: bool = False,
) -> Generator:
    """One size point of the ping-pong.  Returns the per-direction latency."""
    if mpi.size != 2:
        raise ValueError("NetPipe runs on exactly 2 ranks")
    if validate:
        payload = np.full(max(1, nbytes // 8), float(mpi.rank + 1))
    else:
        payload = Phantom(nbytes)
    peer = 1 - mpi.rank
    t0 = 0.0
    for it in range(warmup + iters):
        if it == warmup:
            t0 = mpi.wtime()
        if mpi.rank == 0:
            yield from mpi.send(payload, dest=peer, tag=0)
            got, _ = yield from mpi.recv(source=peer, tag=0)
        else:
            got, _ = yield from mpi.recv(source=peer, tag=0)
            yield from mpi.send(payload, dest=peer, tag=0)
        if validate and isinstance(got, np.ndarray):
            assert got[0] == float(peer + 1), "ping-pong payload corrupted"
    return (mpi.wtime() - t0) / (2 * iters)


def netpipe_sweep(
    protocol: str = "native",
    sizes: Sequence[int] = DEFAULT_SIZES,
    iters: int = 10,
    degree: int = 2,
) -> Dict[int, Dict[str, float]]:
    """Run the full Fig. 7 sweep for one protocol.

    Returns ``{size: {"latency_s", "throughput_mbps"}}``.  One process per
    node, as in the paper's NetPipe setup (§4.2).  Raises ``ValueError``
    before running anything for ``iters < 1`` or a negative size.
    """
    if iters < 1:
        raise ValueError(f"iters must be >= 1 (latency is time over iterations), got {iters}")
    negative = [nbytes for nbytes in sizes if nbytes < 0]
    if negative:
        raise ValueError(f"message sizes must be >= 0 bytes, got {negative}")
    results: Dict[int, Dict[str, float]] = {}
    for nbytes in sizes:
        if protocol == "native":
            cfg = ReplicationConfig(degree=1, protocol="native")
            cluster = cluster_for(2, 1, cores_per_node=1)
        else:
            cfg = ReplicationConfig(degree=degree, protocol=protocol)
            cluster = cluster_for(2, degree, cores_per_node=1)
        job = Job(2, cfg=cfg, cluster=cluster).launch(netpipe_rank, nbytes=nbytes, iters=iters)
        res = job.run()
        latency = res.app_results[0]
        results[nbytes] = {
            "latency_s": latency,
            "throughput_mbps": (nbytes * 8) / latency / 1e6,
        }
    return results
