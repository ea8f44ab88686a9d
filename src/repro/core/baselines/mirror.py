"""MR-MPI-style mirror replication protocol (§2.4).

Every replica of rank A sends each application message to **all** replicas
of rank B: as long as one replica of A survives, every replica of B keeps
receiving.  No acknowledgements or retention are needed — reliability is
bought with bandwidth: O(q·r²) application messages versus the parallel
protocol's O(q·r).  Receivers see r copies of every logical message and
keep the first (the shared dedup filter drops the rest).

Failure handling is trivial: nothing to elect, nothing to resend.  This is
the protocol's selling point and its cost — both measurable in the
``abl-mirror`` experiment.
"""

from __future__ import annotations

from typing import Any, Generator

from repro.core.interpose import RecvHandle, SendHandle
from repro.core.replicated import ReplicatedBase
from repro.mpi.datatypes import copy_payload, nbytes_of

__all__ = ["MirrorProtocol"]


class MirrorProtocol(ReplicatedBase):
    name = "mirror"
    replica_fanout = True  # the message goes to every replica of the receiver

    __slots__ = ()

    def app_isend(
        self, ctx, src_rank, tag, data, world_dst, synchronous=False
    ) -> Generator[Any, Any, SendHandle]:
        self.app_sends += 1
        seq = self.next_seq(world_dst)
        payload = copy_payload(data)
        handle = SendHandle([], world_dst, seq, payload=payload, nbytes=nbytes_of(payload))
        for rep in range(self.rmap.degree):
            dst_phys = self.rmap.phys(world_dst, rep)
            if not self.membership.is_alive(dst_phys):
                continue
            req = yield from self.pml.isend(
                ctx=ctx,
                src_rank=src_rank,
                tag=tag,
                data=payload,
                world_src=self.rank,
                world_dst=world_dst,
                seq=seq,
                dst_phys=dst_phys,
                already_copied=True,
                synchronous=synchronous,
            )
            handle.pml_reqs.append(req)
        return handle

    def app_irecv(self, ctx, source, tag, buf=None) -> Generator[Any, Any, RecvHandle]:
        self.app_recvs += 1
        req = yield from self.pml.irecv(ctx=ctx, source=source, tag=tag, buf=buf)
        return RecvHandle(req)

    def on_failure(self, failed: int) -> Generator:
        """Mirror needs only to stop targeting the dead endpoint."""
        self.pml.cancel_sends_to(failed)
        yield from ()
