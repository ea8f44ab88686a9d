"""rMPI-style leader-based parallel protocol (§2.4, §3.1).

Identical to SDR-MPI on the send/ack path, but non-deterministic receive
outcomes are **agreed** instead of resolved locally: the leader replica of
a rank posts anonymous receives normally; when one matches (``pml_match`` —
the source is now known), the leader sends the decided ``(source, tag)`` to
its follower replicas.  A follower holds its anonymous receive *deferred*
— built but unposted, parked by anonymous-reception id — and the
``ldr.decide`` ctrl handler posts it as a specific-source receive when the
decision arrives (a decision that overtakes the follower's ``irecv`` is
consumed at ``irecv`` time instead).  Either way the application holds a
plain passive :class:`~repro.mpi.handles.RecvHandle`: no wait loop drives
the protocol.

Cost structure the paper predicts (Fig. 2, §3.1) and the ``abl-leader``
experiment measures:

* an extra leader→follower control message on the critical path of every
  anonymous reception;
* followers post their receives late, so messages land in the unexpected
  queue (extra copy in a real MPI; counted by the matching engine here).

Deterministic receives take the SDR fast path unchanged.
"""

from __future__ import annotations

from typing import Any, Dict, Generator, Optional, Tuple

from repro.core.interpose import RecvHandle
from repro.core.sdr import SdrProtocol
from repro.mpi.pml import PmlRecvRequest
from repro.network.fabric import Frame
from repro.mpi.status import ANY_SOURCE

__all__ = ["LeaderProtocol", "LeaderDecideMixin"]

#: ctrl key for leader decisions on anonymous receptions
DECIDE = "ldr.decide"


class LeaderDecideMixin:
    """Leader election + decision plumbing for anonymous receptions.

    Mixed into protocols that must agree on non-deterministic outcomes
    (this baseline and redMPI).  Requires the host protocol to provide
    ``pml``, ``rmap``, ``membership``, ``rank``, ``rep``.

    Empty ``__slots__``: the decider attributes (see ``DECIDER_SLOTS``)
    are declared by each slotted host class — Python forbids two bases
    with non-empty slot layouts, so the mixin contributes behaviour only.
    """

    __slots__ = ()

    #: per-instance decider state, declared in each host class's __slots__
    DECIDER_SLOTS = (
        "_anon_seq",
        "decisions",
        "_deferred",
        "_anon_pending",
        "_arming_anon",
        "decisions_sent",
        "anonymous_recvs",
    )

    def _init_decider(self) -> None:
        self._anon_seq = 0
        #: follower side: anon_id -> decided (source, tag), for decisions
        #: that arrived before the follower's own irecv
        self.decisions: Dict[int, Tuple[int, int]] = {}
        #: follower side: anon_id -> the unposted receive awaiting its decision
        self._deferred: Dict[int, PmlRecvRequest] = {}
        #: leader side: pml request -> anon_id, resolved at pml_match
        self._anon_pending: Dict[int, int] = {}
        #: anon_id being posted right now (an anonymous receive can match an
        #: unexpected message *during* irecv, before we learn the request id)
        self._arming_anon: Optional[int] = None
        self.decisions_sent = 0
        self.anonymous_recvs = 0
        self.pml.on_match.append(self._decide_on_match)

    def _is_leader(self) -> bool:
        """The leader is the lowest alive replica of my rank.

        Runs once per anonymous reception: scan replica slots directly
        instead of materializing the alive-replica list.
        """
        rmap = self.rmap
        n_ranks = rmap.n_ranks
        endpoints = self.pml.fabric.endpoints
        for rep in range(rmap.degree):
            if endpoints[rep * n_ranks + self.rank].alive:
                return rep == self.rep
        return False

    def _next_anon_id(self) -> int:
        self._anon_seq += 1
        return self._anon_seq

    def _decide_on_match(self, recv: PmlRecvRequest, env: Frame) -> Optional[Generator]:
        anon_id = self._anon_pending.pop(id(recv), None)
        if anon_id is None:
            # Matched from the unexpected queue while still inside irecv.
            anon_id, self._arming_anon = self._arming_anon, None
        if anon_id is None:
            return None
        return self._broadcast_decision(anon_id, env)

    def _broadcast_decision(self, anon_id: int, env: Frame) -> Generator:
        # Charge-then-inject split (see Pml.inject_ctrl): one decision per
        # anonymous reception puts this on the leader ablation's hot path.
        pml = self.pml
        endpoints = pml.fabric.endpoints
        n_ranks = self.rmap.n_ranks
        for rep in range(self.rmap.degree):
            if rep == self.rep:
                continue
            ph = rep * n_ranks + self.rank  # rmap.phys, replica-major
            if endpoints[ph].alive:
                self.decisions_sent += 1
                overhead = pml.send_cost(ph)
                if overhead > 0.0:
                    yield overhead
                pml.inject_ctrl(ph, DECIDE, (anon_id, env.src_rank, env.tag))

    def _on_decide(self, env: Frame) -> Optional[Generator]:
        # The decision tuple is unpacked out of the borrowed envelope here;
        # the returned generator (posting may match an unexpected message
        # and, for rendezvous, clear the sender) is driven by the PML.
        anon_id, source, tag = env.data
        req = self._deferred.pop(anon_id, None)
        if req is None:
            self.decisions[anon_id] = (source, tag)  # ahead of my irecv
            return None
        req.source, req.tag = source, tag
        return self.pml.post_recv(req)

    def leader_irecv(self, ctx, source, tag, buf) -> Generator[Any, Any, RecvHandle]:
        """Anonymous-reception entry point used by app_irecv overrides."""
        self.anonymous_recvs += 1
        anon_id = self._next_anon_id()
        if self._is_leader():
            self._arming_anon = anon_id
            req = yield from self.pml.irecv(ctx=ctx, source=source, tag=tag, buf=buf)
            if self._arming_anon is not None:
                # Not matched inside irecv (that would have broadcast the
                # decision already): decide at pml_match.
                self._arming_anon = None
                self._anon_pending[id(req)] = anon_id
        else:
            req = PmlRecvRequest(ctx, source, tag, buf)
            decision = self.decisions.pop(anon_id, None)
            if decision is None:
                self._deferred[anon_id] = req  # posted by _on_decide
            else:
                req.source, req.tag = decision
                yield from self.pml.post_recv(req)
        return RecvHandle(req)


class LeaderProtocol(LeaderDecideMixin, SdrProtocol):
    """SDR's send/ack machinery + leader-based anonymous receptions."""

    name = "leader"

    __slots__ = LeaderDecideMixin.DECIDER_SLOTS

    CTRL_HANDLERS = {**SdrProtocol.CTRL_HANDLERS, DECIDE: "_on_decide"}

    def __init__(self, pml, rmap, membership, cfg) -> None:
        SdrProtocol.__init__(self, pml, rmap, membership, cfg)
        self._init_decider()

    def app_irecv(self, ctx, source, tag, buf=None) -> Generator[Any, Any, RecvHandle]:
        if source == ANY_SOURCE:
            self.app_recvs += 1
            return (yield from self.leader_irecv(ctx, source, tag, buf))
        return (yield from SdrProtocol.app_irecv(self, ctx, source, tag, buf))

    def stats(self) -> dict:
        base = SdrProtocol.stats(self)
        base.update(
            decisions_sent=self.decisions_sent,
            anonymous_recvs=self.anonymous_recvs,
        )
        return base
