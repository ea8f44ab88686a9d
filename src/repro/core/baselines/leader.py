"""rMPI-style leader-based parallel protocol (§2.4, §3.1).

Identical to SDR-MPI on the send/ack path, but non-deterministic receive
outcomes are **agreed** instead of resolved locally: the leader replica of
a rank posts anonymous receives normally; when one matches (``pml_match`` —
the source is now known), the leader sends the decided ``(source, tag)`` to
its follower replicas.  A follower holds its anonymous receive *deferred*
until the decision arrives, then posts a specific-source receive.

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
from repro.mpi.pml import Envelope, PmlRecvRequest
from repro.mpi.status import ANY_SOURCE

__all__ = ["LeaderProtocol", "LeaderDecideMixin", "DeferredRecvHandle"]

#: ctrl key for leader decisions on anonymous receptions
DECIDE = "ldr.decide"


class DeferredRecvHandle(RecvHandle):
    """A follower's anonymous receive, parked until the leader decides."""

    __slots__ = ("proto", "anon_id", "ctx", "tag", "buf", "_posted")

    #: deferred receives do real work in advance() (posting on decision)
    needs_advance = True

    def __init__(self, proto: "LeaderDecideMixin", anon_id: int, ctx: Any, tag: int, buf: Any) -> None:
        super().__init__(PmlRecvRequest(ctx, ANY_SOURCE, tag, buf))  # placeholder
        self.proto = proto
        self.anon_id = anon_id
        self.ctx = ctx
        self.tag = tag
        self.buf = buf
        self._posted = False

    @property
    def done(self) -> bool:
        return self._posted and self.pml_req.done

    def advance(self) -> Optional[Generator]:
        if self._posted:
            return None
        decision = self.proto.decisions.pop(self.anon_id, None)
        if decision is None:
            return None
        return self._post_decided(decision)

    def _post_decided(self, decision: Tuple[int, int]) -> Generator:
        source, tag = decision
        self.pml_req = yield from self.proto.pml.irecv(
            ctx=self.ctx, source=source, tag=tag, buf=self.buf
        )
        self._posted = True


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
        "_anon_pending",
        "_arming_anon",
        "decisions_sent",
        "anonymous_recvs",
    )

    def _init_decider(self) -> None:
        self._anon_seq = 0
        #: follower side: anon_id -> decided (source, tag)
        self.decisions: Dict[int, Tuple[int, int]] = {}
        #: leader side: pml request -> anon_id, resolved at pml_match
        self._anon_pending: Dict[int, int] = {}
        #: anon_id being posted right now (an anonymous receive can match an
        #: unexpected message *during* irecv, before we learn the request id)
        self._arming_anon: Optional[int] = None
        self.decisions_sent = 0
        self.anonymous_recvs = 0
        self.pml.ctrl_handlers[DECIDE] = self._on_decide
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

    def _decide_on_match(self, recv: PmlRecvRequest, env: Envelope) -> Optional[Generator]:
        anon_id = self._anon_pending.pop(id(recv), None)
        if anon_id is None:
            # Matched from the unexpected queue while still inside irecv.
            anon_id, self._arming_anon = self._arming_anon, None
        if anon_id is None:
            return None
        return self._broadcast_decision(anon_id, env)

    def _broadcast_decision(self, anon_id: int, env: Envelope) -> Generator:
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

    def _on_decide(self, env: Envelope) -> None:
        # Plain ctrl handler (no charge, no yields): returning None lets
        # the PML skip driving a generator per decision frame.  The
        # decision tuple is unpacked out of the borrowed envelope here.
        anon_id, source, tag = env.data
        self.decisions[anon_id] = (source, tag)
        return None

    def leader_irecv(self, ctx, source, tag, buf) -> Generator[Any, Any, RecvHandle]:
        """Anonymous-reception entry point used by app_irecv overrides."""
        self.anonymous_recvs += 1
        anon_id = self._next_anon_id()
        if self._is_leader():
            self._arming_anon = anon_id
            req = yield from self.pml.irecv(ctx=ctx, source=source, tag=tag, buf=buf)
            if self._arming_anon is None:
                # Decision already broadcast from the in-irecv match.
                return RecvHandle(req)
            self._arming_anon = None
            self._anon_pending[id(req)] = anon_id
            return RecvHandle(req)
        return DeferredRecvHandle(self, anon_id, ctx, tag, buf)


class LeaderProtocol(LeaderDecideMixin, SdrProtocol):
    """SDR's send/ack machinery + leader-based anonymous receptions."""

    name = "leader"

    __slots__ = LeaderDecideMixin.DECIDER_SLOTS

    def __init__(self, pml, rmap, membership, cfg, shared) -> None:
        SdrProtocol.__init__(self, pml, rmap, membership, cfg, shared)
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
