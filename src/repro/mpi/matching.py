"""Message matching: posted-receive queue and unexpected-message queue.

MPI matching rules implemented here:

* a receive matches a message when contexts are equal, the receive's source
  is :data:`~repro.mpi.status.ANY_SOURCE` or equals the message's source
  rank, and the receive's tag is :data:`~repro.mpi.status.ANY_TAG` or equals
  the message's tag;
* *non-overtaking*: messages are considered in arrival order, receives in
  posting order — the first compatible pair matches;
* a message that matches no posted receive is queued as *unexpected* (the
  paper's §3.1 points out that leader-based replication inflates this queue;
  we count hits so the ablation can measure it).

Two implementations share that contract:

:class:`MatchEngine` (the default) indexes both queues by
``(ctx, source, tag)`` *pattern lanes* and holds state for pending entries
only.  The pending receives and the parked envelopes each live in one dict
keyed by their posting/arrival sequence number (dict order is queue order);
a lane is a list ``[head, seq, seq, ...]`` of the live entries of one
pattern, element 0 being the head cursor.  A posted receive is in exactly
one lane, that of its own pattern, wildcards included.  An envelope falls
under four pattern *classes* (``(ctx, src, tag)``, ``(ctx, src, ANY)``,
``(ctx, ANY, tag)``, ``(ctx, ANY, ANY)``), but a class is indexed on an
engine only from the first receive (or probe) of that class: that first
use backfills the class's lanes from the parked envelopes in arrival
order, and from then on ``arrive`` peeks the posted lane of each indexed
class — taking the earliest-posted head, which is exactly the "first
compatible receive in posting order" rule — and registers an unexpected
envelope under each indexed class, so ``post`` finds "first compatible
envelope in arrival order" at the head of the single lane of its own
pattern.  A send-deterministic SPMD process only ever indexes the exact
class: one dict operation per post and per arrival.

Nothing dead is kept.  A claim removes the envelope from every lane that
holds it (it is the head of the claiming lane and of every narrower one;
in a wider lane it may sit behind older envelopes, where removal costs a
scan of that lane), a cancel removes the receive from its lane, and a lane
whose last entry goes leaves its dict at once, key tuple and all.  Lane
heads advance by cursor and a dead prefix longer than the live remainder
is cut, so every operation on the head of a lane is amortized O(1) and the
engine's footprint is proportional to what is pending — the earlier
layout bounded the lane *lists* but kept a lane-dict entry for every
pattern ever seen and slot-array cells for every envelope whose sibling
lanes were never visited again, which on fresh-tag-per-round collectives
grew without bound (``docs/performance.md``, "Live-only matching").

:class:`LinearMatchEngine` is the seed engine's O(n)-scan implementation,
kept as the matching-order oracle: the property tests in
``tests/test_matching_equivalence.py`` drive both engines with randomized
post/arrive/cancel/probe streams (including wildcards) and require
identical pairing decisions, and ``tests/test_working_set.py`` runs entire
jobs on it (patched over ``repro.mpi.pml.MatchEngine``, no production
seam) for the fingerprint comparison.
"""

from __future__ import annotations

from collections import deque
from typing import Deque, Dict, List, Optional, Tuple, TYPE_CHECKING

from repro.mpi.status import ANY_SOURCE, ANY_TAG

if TYPE_CHECKING:  # pragma: no cover
    from repro.mpi.pml import Envelope, PmlRecvRequest

__all__ = ["MatchEngine", "LinearMatchEngine"]

#: cut a lane's dead prefix once the head cursor passes this depth (and
#: the prefix outweighs the live remainder)
_COMPACT_AT = 32


def _compatible(recv: "PmlRecvRequest", env: "Envelope") -> bool:
    if recv.ctx != env.ctx:
        return False
    if recv.source != ANY_SOURCE and recv.source != env.src_rank:
        return False
    if recv.tag != ANY_TAG and recv.tag != env.tag:
        return False
    return True


class MatchEngine:
    """Per-process matching state: (ctx, source, tag) lanes over the
    pending receives and parked envelopes only."""

    __slots__ = (
        "_classes",
        "_posted",
        "_posted_lanes",
        "_posted_seq",
        "_unexpected",
        "_unexpected_lanes",
        "unexpected_count",
        "unexpected_peak",
    )

    def __init__(self) -> None:
        #: indexed pattern classes, as (source is ANY, tag is ANY) pairs in
        #: order of first use
        self._classes: Tuple[Tuple[bool, bool], ...] = ()
        #: pending receives by posting seq (dict order = posting order)
        self._posted: Dict[int, "PmlRecvRequest"] = {}
        #: receive pattern -> [head, seq, ...] of the receives posted with it
        self._posted_lanes: Dict[Tuple, list] = {}
        self._posted_seq = 0
        #: parked envelopes by arrival seq — ``unexpected_count`` at arrival
        #: (dict order = arrival order)
        self._unexpected: Dict[int, "Envelope"] = {}
        #: pattern -> [head, seq, ...] of the parked envelopes it covers,
        #: for the patterns of indexed classes only
        self._unexpected_lanes: Dict[Tuple, list] = {}
        #: number of messages that arrived before their receive was posted
        self.unexpected_count = 0
        #: high-water mark of the unexpected queue
        self.unexpected_peak = 0

    # ----------------------------------------------------- diagnostic views
    @property
    def posted(self) -> List["PmlRecvRequest"]:
        """Pending posted receives in posting order (diagnostics/tests)."""
        return list(self._posted.values())

    @property
    def unexpected(self) -> List["Envelope"]:
        """Pending unexpected envelopes in arrival order (diagnostics/tests)."""
        return list(self._unexpected.values())

    def footprint(self) -> Tuple[int, int]:
        """``(lanes, cells)`` held right now: lane-dict entries, and queue
        entries plus lane-list elements (the boundedness tests' measure)."""
        lanes = list(self._posted_lanes.values()) + list(self._unexpected_lanes.values())
        cells = len(self._posted) + len(self._unexpected) + sum(map(len, lanes))
        return len(lanes), cells

    # ----------------------------------------------------------- post side
    def _index_class(self, any_src: bool, any_tag: bool) -> None:
        """Start indexing a pattern class, at its first receive or probe on
        this engine: backfill its lanes from the parked envelopes in
        arrival order; every later arrival registers under it."""
        self._classes += ((any_src, any_tag),)
        lanes = self._unexpected_lanes
        for seq, env in self._unexpected.items():
            key = (
                env.ctx,
                ANY_SOURCE if any_src else env.src_rank,
                ANY_TAG if any_tag else env.tag,
            )
            lane = lanes.get(key)
            if lane is None:
                lanes[key] = [1, seq]
            else:
                lane.append(seq)

    def post(self, recv: "PmlRecvRequest") -> Optional["Envelope"]:
        """Register a receive; returns an unexpected envelope if one matches."""
        source = recv.source
        tag = recv.tag
        key = (recv.ctx, source, tag)
        lanes = self._unexpected_lanes
        lane = lanes.get(key)
        if lane is None and (source == ANY_SOURCE, tag == ANY_TAG) not in self._classes:
            self._index_class(source == ANY_SOURCE, tag == ANY_TAG)
            lane = lanes.get(key)
        if lane is not None:
            # Claim the head: it leaves every lane that holds it.  It heads
            # the claiming lane and every narrower one; in a wider lane it
            # may sit behind older envelopes, which then stay (that lane
            # cannot drain here).
            seq = lane[lane[0]]
            env = self._unexpected.pop(seq)
            ctx = env.ctx
            for any_src, any_tag in self._classes:
                k = (ctx, ANY_SOURCE if any_src else env.src_rank, ANY_TAG if any_tag else env.tag)
                sibling = lanes[k]
                h = sibling[0]
                if sibling[h] != seq:
                    del sibling[sibling.index(seq, h)]
                    continue
                # Pop the head: a drained lane leaves the dict; a consumed
                # prefix longer than the live remainder is cut.
                h += 1
                n = len(sibling)
                if h == n:
                    del lanes[k]
                elif h > _COMPACT_AT and h + h > n:
                    del sibling[1:h]
                    sibling[0] = 1
                else:
                    sibling[0] = h
            return env
        self._posted_seq = seq = self._posted_seq + 1
        self._posted[seq] = recv
        lane = self._posted_lanes.get(key)
        if lane is None:
            self._posted_lanes[key] = [1, seq]
        else:
            lane.append(seq)
        return None

    def cancel(self, recv: "PmlRecvRequest") -> bool:
        """Remove a posted receive; False if it already matched."""
        key = (recv.ctx, recv.source, recv.tag)
        lane = self._posted_lanes.get(key)
        if lane is None:
            return False
        posted = self._posted
        head = lane[0]
        for i in range(head, len(lane)):
            seq = lane[i]
            if posted[seq] is recv:
                del posted[seq]
                del lane[i]
                if len(lane) == head:
                    del self._posted_lanes[key]
                return True
        return False

    # -------------------------------------------------------- arrival side
    def arrive(self, env: "Envelope") -> Optional["PmlRecvRequest"]:
        """Offer an arriving envelope; returns the matching posted receive,
        or None after queuing the envelope as unexpected."""
        ctx = env.ctx
        src = env.src_rank
        tag = env.tag
        classes = self._classes
        lanes = self._posted_lanes
        best = None
        best_key = None
        best_seq = 0
        # A class nobody posted a receive of has no posted lanes: peek one
        # lane head per indexed class, the earliest-posted wins.
        for any_src, any_tag in classes:
            key = (ctx, ANY_SOURCE if any_src else src, ANY_TAG if any_tag else tag)
            lane = lanes.get(key)
            if lane is not None:
                seq = lane[lane[0]]
                if best is None or seq < best_seq:
                    best = lane
                    best_key = key
                    best_seq = seq
        if best is not None:
            # Pop the head, as in post().
            h = best[0] + 1
            n = len(best)
            if h == n:
                del lanes[best_key]
            elif h > _COMPACT_AT and h + h > n:
                del best[1:h]
                best[0] = 1
            else:
                best[0] = h
            return self._posted.pop(best_seq)
        self.unexpected_count = seq = self.unexpected_count + 1
        parked = self._unexpected
        parked[seq] = env
        if len(parked) > self.unexpected_peak:
            self.unexpected_peak = len(parked)
        lanes = self._unexpected_lanes
        for any_src, any_tag in classes:
            key = (ctx, ANY_SOURCE if any_src else src, ANY_TAG if any_tag else tag)
            lane = lanes.get(key)
            if lane is None:
                lanes[key] = [1, seq]
            else:
                lane.append(seq)
        return None

    # ------------------------------------------------------------- queries
    def probe(self, ctx, source: int, tag: int) -> Optional["Envelope"]:
        """First unexpected envelope compatible with (ctx, source, tag)."""
        key = (ctx, source, tag)
        lane = self._unexpected_lanes.get(key)
        if lane is None and (source == ANY_SOURCE, tag == ANY_TAG) not in self._classes:
            self._index_class(source == ANY_SOURCE, tag == ANY_TAG)
            lane = self._unexpected_lanes.get(key)
        if lane is None:
            return None
        return self._unexpected[lane[lane[0]]]

    def drain_unexpected(self) -> List["Envelope"]:
        """Remove and return every pending unexpected envelope, in arrival
        order (end-of-run teardown: the PML returns them to its arena)."""
        out = list(self._unexpected.values())
        self._unexpected.clear()
        self._unexpected_lanes.clear()
        return out

    def stats(self) -> dict:
        return {
            "unexpected_count": self.unexpected_count,
            "unexpected_peak": self.unexpected_peak,
            "posted_pending": len(self._posted),
            "unexpected_pending": len(self._unexpected),
        }


class LinearMatchEngine:
    """The seed engine: linear scans over plain deques.

    Kept as the executable specification of MPI matching semantics; the
    indexed :class:`MatchEngine` must be observationally equivalent (see
    the property tests).  Also the better choice for tiny hand-built
    debugging scenarios where inspecting raw deques beats speed.
    """

    def __init__(self) -> None:
        self.posted: Deque["PmlRecvRequest"] = deque()
        self.unexpected: Deque["Envelope"] = deque()
        self.unexpected_count = 0
        self.unexpected_peak = 0

    # ----------------------------------------------------------- post side
    def post(self, recv: "PmlRecvRequest") -> Optional["Envelope"]:
        """Register a receive; returns an unexpected envelope if one matches."""
        for i, env in enumerate(self.unexpected):
            if _compatible(recv, env):
                del self.unexpected[i]
                return env
        self.posted.append(recv)
        return None

    def cancel(self, recv: "PmlRecvRequest") -> bool:
        """Remove a posted receive; False if it already matched."""
        try:
            self.posted.remove(recv)
            return True
        except ValueError:
            return False

    # -------------------------------------------------------- arrival side
    def arrive(self, env: "Envelope") -> Optional["PmlRecvRequest"]:
        """Offer an arriving envelope; returns the matching posted receive,
        or None after queuing the envelope as unexpected."""
        for i, recv in enumerate(self.posted):
            if _compatible(recv, env):
                del self.posted[i]
                return recv
        self.unexpected.append(env)
        self.unexpected_count += 1
        self.unexpected_peak = max(self.unexpected_peak, len(self.unexpected))
        return None

    # ------------------------------------------------------------- queries
    def probe(self, ctx, source: int, tag: int) -> Optional["Envelope"]:
        """First unexpected envelope compatible with (ctx, source, tag)."""
        for env in self.unexpected:
            if env.ctx != ctx:
                continue
            if source != ANY_SOURCE and source != env.src_rank:
                continue
            if tag != ANY_TAG and tag != env.tag:
                continue
            return env
        return None

    def drain_unexpected(self) -> List["Envelope"]:
        """Remove and return every pending unexpected envelope, in arrival
        order (end-of-run teardown: the PML returns them to its arena)."""
        out = list(self.unexpected)
        self.unexpected.clear()
        return out

    def stats(self) -> dict:
        return {
            "unexpected_count": self.unexpected_count,
            "unexpected_peak": self.unexpected_peak,
            "posted_pending": len(self.posted),
            "unexpected_pending": len(self.unexpected),
        }
