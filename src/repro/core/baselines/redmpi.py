"""redMPI-style silent-data-corruption (SDC) detection (§2.4).

Each replica sends its application message to its pairwise receiver, plus a
small **hash** of the payload to every other replica of the receiving rank.
A receiver therefore holds, for each logical message, its own full copy and
r-1 foreign hashes; disagreement flags a silent fault.  Crashes are *not*
tolerated (no acks, no retention) — redMPI targets data integrity, which is
why it can skip the synchronization SDR-MPI needs for crash coverage.

Non-determinism is handled with the same leader-based agreement as rMPI
(the paper: "redMPI also adopts a leader-based approach to deal with
non-determinism"), so its overhead grows on ANY_SOURCE-heavy applications —
the ``abl-redmpi`` experiment.

Fault injection: :meth:`RedMpiProtocol.corrupt_next_send` flips the payload
digest of the next outgoing message of this replica, modelling a silent
bit-flip between computation and transmission.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import Any, Dict, Generator, List, Optional, Tuple

import numpy as np

from repro.core.baselines.leader import DECIDE, LeaderDecideMixin
from repro.core.interpose import RecvHandle, SendHandle
from repro.core.replicated import ReplicatedBase
from repro.mpi.datatypes import Phantom, copy_payload, nbytes_of
from repro.mpi.pml import PmlRecvRequest
from repro.network.fabric import Frame
from repro.mpi.status import ANY_SOURCE

__all__ = ["RedMpiProtocol", "SdcEvent"]

#: ctrl key for payload-hash frames
HASH = "red.hash"


@dataclass
class SdcEvent:
    """A detected silent-data-corruption: hashes disagreed."""

    src_rank: int
    seq: int
    own_digest: int
    foreign_digest: int
    detected_at: float


def payload_digest(payload: Any) -> int:
    """64-bit digest of a payload (size-keyed for phantom buffers)."""
    if payload is None:
        return 0
    if isinstance(payload, Phantom):
        return hash(("phantom", payload.nbytes)) & 0xFFFFFFFFFFFFFFFF
    if isinstance(payload, np.ndarray):
        raw = payload.tobytes()
    elif isinstance(payload, (bytes, bytearray)):
        raw = bytes(payload)
    else:
        raw = repr(payload).encode()
    return int.from_bytes(hashlib.blake2b(raw, digest_size=8).digest(), "little")


class RedMpiProtocol(LeaderDecideMixin, ReplicatedBase):
    name = "redmpi"
    replica_fanout = True  # the hash goes to every *other* replica of the receiver

    CTRL_HANDLERS = {DECIDE: "_on_decide", HASH: "_on_hash"}

    __slots__ = LeaderDecideMixin.DECIDER_SLOTS + (
        "_own_digests",
        "_foreign_digests",
        "_compared",
        "sdc_events",
        "hashes_sent",
        "_corrupt_pending",
    )

    def __init__(self, pml, rmap, membership, cfg) -> None:
        ReplicatedBase.__init__(self, pml, rmap, membership, cfg)
        self._init_decider()
        #: (src_rank, seq) -> digest of my own received copy
        self._own_digests: Dict[Tuple[int, int], int] = {}
        #: (src_rank, seq) -> list of foreign digests not yet compared
        self._foreign_digests: Dict[Tuple[int, int], List[int]] = {}
        #: (src_rank, seq) -> number of foreign digests already compared
        self._compared: Dict[Tuple[int, int], int] = {}
        self.sdc_events: List[SdcEvent] = []
        self.hashes_sent = 0
        self._corrupt_pending = 0
        pml.on_recv_complete.append(self._check_on_recv_complete)

    # --------------------------------------------------------------- sending
    def corrupt_next_send(self, count: int = 1) -> None:
        """Inject SDC: the next *count* sends of this replica carry payloads
        whose transmitted digest will not match the other replica's."""
        self._corrupt_pending += count

    def app_isend(
        self, ctx, src_rank, tag, data, world_dst, synchronous=False
    ) -> Generator[Any, Any, SendHandle]:
        self.app_sends += 1
        seq = self.next_seq(world_dst)
        payload = copy_payload(data)
        digest = payload_digest(payload)
        if self._corrupt_pending > 0:
            self._corrupt_pending -= 1
            digest ^= 0xDEADBEEF  # the silent bit-flip
        handle = SendHandle([], world_dst, seq, payload=payload, nbytes=nbytes_of(payload))
        pair = self.pair_of(world_dst)
        if self.membership.is_alive(pair):
            req = yield from self.pml.isend(
                ctx=ctx,
                src_rank=src_rank,
                tag=tag,
                data=payload,
                world_src=self.rank,
                world_dst=world_dst,
                seq=seq,
                dst_phys=pair,
                already_copied=True,
                synchronous=synchronous,
            )
            handle.pml_reqs.append(req)
        # Hash to all *other* replicas of the receiving rank.
        for rep in range(self.rmap.degree):
            if rep == self.rep:
                continue
            ph = self.rmap.phys(world_dst, rep)
            if self.membership.is_alive(ph):
                self.hashes_sent += 1
                yield from self.pml.send_ctrl(
                    ph, HASH, (self.rank, seq, digest), nbytes=self.cfg.hash_bytes
                )
        return handle

    # -------------------------------------------------------------- receiving
    def app_irecv(self, ctx, source, tag, buf=None) -> Generator[Any, Any, RecvHandle]:
        self.app_recvs += 1
        if source == ANY_SOURCE:
            return (yield from self.leader_irecv(ctx, source, tag, buf))
        req = yield from self.pml.irecv(ctx=ctx, source=source, tag=tag, buf=buf)
        return RecvHandle(req)

    def _check_on_recv_complete(self, env: Frame, recv: Optional[PmlRecvRequest]) -> Generator:
        # Vote state digests the payload *inside* the borrow window: the
        # retained comparison record is a 64-bit digest, never the
        # envelope (the envelope is recycled when this hook returns).
        key = (env.world_src, env.seq)
        own = payload_digest(env.data)
        self._own_digests[key] = own
        self._compare(key)
        yield from ()

    def _on_hash(self, env: Frame) -> Generator:
        src_rank, seq, digest = env.data
        self._foreign_digests.setdefault((src_rank, seq), []).append(digest)
        self._compare((src_rank, seq))
        yield from ()

    def _compare(self, key: Tuple[int, int]) -> None:
        own = self._own_digests.get(key)
        foreign = self._foreign_digests.get(key)
        if own is None or not foreign:
            return
        for digest in foreign:
            if digest != own:
                self.sdc_events.append(
                    SdcEvent(
                        src_rank=key[0],
                        seq=key[1],
                        own_digest=own,
                        foreign_digest=digest,
                        detected_at=self.pml.sim.now,
                    )
                )
        compared = self._compared.get(key, 0) + len(foreign)
        del self._foreign_digests[key]
        if compared >= self.rmap.degree - 1:
            # All r-1 foreign digests checked: forget the message.
            self._own_digests.pop(key, None)
            self._compared.pop(key, None)
        else:
            self._compared[key] = compared

    def stats(self) -> dict:
        base = ReplicatedBase.stats(self)
        base.update(
            hashes_sent=self.hashes_sent,
            sdc_detected=len(self.sdc_events),
            decisions_sent=self.decisions_sent,
            anonymous_recvs=self.anonymous_recvs,
        )
        return base
