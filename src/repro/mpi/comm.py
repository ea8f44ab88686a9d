"""Communicators.

A communicator binds an ordered member list (world-logical ranks) to a
*context id* separating its matching space from every other communicator.

Context ids are **genealogy tuples**, not a mutable global counter: a child
context is ``parent_ctx + (op, seq[, color])`` where ``seq`` is the parent's
per-communicator construction counter.  Because MPI requires all members to
invoke communicator operations in the same order, every process derives the
same tuple — and, crucially for replication, every *replica world* derives
the same tuple, so cross-world traffic after a failover still matches
(§4.1, Fig. 6).

Point-to-point and collective traffic use disjoint sub-contexts of each
communicator so application tags can never collide with internal collective
tags (Open MPI does the same with separate context id halves).
"""

from __future__ import annotations

from typing import Any, Dict, Generator, Mapping, Optional, Sequence, Tuple, TYPE_CHECKING

from repro.mpi.errors import RankError
from repro.mpi.group import Group, UNDEFINED

if TYPE_CHECKING:  # pragma: no cover
    from repro.mpi.api import MpiProcess

__all__ = ["Communicator", "IdentityRankMap", "shared_world"]

#: the world communicator's context and its two sub-contexts
WORLD_CTX = ("w",)
_WORLD_SUBCONTEXTS = (WORLD_CTX + ("p",), WORLD_CTX + ("c",))


class IdentityRankMap:
    """Dict-shaped flyweight for the world→rank map of an identity communicator.

    The world communicator maps world rank *w* to communicator rank *w* on
    every process, so materializing a ``{w: w}`` dict per process costs
    O(world_size) bytes × n_procs — the dominant construction footprint at
    scale before this class existed.  One shared instance answers the same
    queries arithmetically.
    """

    __slots__ = ("n",)

    def __init__(self, n: int) -> None:
        self.n = n

    def get(self, world_rank: Any, default: Any = None) -> Any:
        if type(world_rank) is int and 0 <= world_rank < self.n:
            return world_rank
        return default

    def __getitem__(self, world_rank: int) -> int:
        if type(world_rank) is int and 0 <= world_rank < self.n:
            return world_rank
        raise KeyError(world_rank)

    def __contains__(self, world_rank: Any) -> bool:
        return type(world_rank) is int and 0 <= world_rank < self.n

    def __len__(self) -> int:
        return self.n

    def __iter__(self):
        return iter(range(self.n))

    def keys(self):
        return range(self.n)

    def values(self):
        return range(self.n)

    def items(self):
        return ((w, w) for w in range(self.n))


def shared_world(world_size: int) -> Tuple[Tuple[int, ...], IdentityRankMap]:
    """One (members, rank_map) pair for *every* process of a job to share.

    Built once per :class:`~repro.harness.runner.Job` and handed to each
    :class:`~repro.mpi.api.MpiProcess`: the per-process world communicator
    then holds two references instead of an O(world_size) tuple + dict of
    its own.
    """
    return tuple(range(world_size)), IdentityRankMap(world_size)


class Communicator:
    """An ordered process group plus an isolated matching context."""

    __slots__ = (
        "api",
        "ctx",
        "members",
        "_world_to_rank",
        "rank",
        "ctx_p2p",
        "ctx_coll",
        "_child_seq",
        "_coll_seq",
    )

    def __init__(
        self,
        api: "MpiProcess",
        ctx: Tuple,
        members: Sequence[int],
        rank_map: Optional[Mapping[int, int]] = None,
    ) -> None:
        #: the owning API object; a finished job cuts the world
        #: communicator's link, a cycle otherwise (``Job._unlink``)
        self.api = api
        self.ctx = tuple(ctx)
        #: ``tuple(t)`` returns *t* itself, so a shared members tuple (see
        #: :func:`shared_world`) is stored by reference, never copied
        self.members: Tuple[int, ...] = tuple(members)
        if rank_map is None:
            rank_map = {w: r for r, w in enumerate(self.members)}
        self._world_to_rank: Mapping[int, int] = rank_map
        me = api.world_rank
        if me not in self._world_to_rank:
            raise RankError(f"world rank {me} is not a member of {self.ctx}")
        self.rank = self._world_to_rank[me]
        #: matching contexts for application point-to-point and internal
        #: collective traffic (every world communicator shares one pair)
        sub = _WORLD_SUBCONTEXTS if self.ctx == WORLD_CTX else (self.ctx + ("p",), self.ctx + ("c",))
        self.ctx_p2p, self.ctx_coll = sub
        self._child_seq = 0
        self._coll_seq = 0

    # ------------------------------------------------------------- queries
    @property
    def size(self) -> int:
        return len(self.members)

    def world_of(self, rank: int) -> int:
        """World-logical rank of communicator rank *rank*."""
        if not (0 <= rank < self.size):
            raise RankError(f"rank {rank} outside communicator of size {self.size}")
        return self.members[rank]

    @property
    def group(self) -> Group:
        return Group(self.members)

    def __repr__(self) -> str:
        return f"<Communicator ctx={self.ctx} rank={self.rank}/{self.size}>"

    # ----------------------------------------------------------- internals
    def next_child_ctx(self, op: str, *extra: Any) -> Tuple:
        self._child_seq += 1
        return self.ctx + ((op, self._child_seq) + tuple(extra),)

    def next_coll_tag(self) -> int:
        """Tag for the next collective; all ranks agree by call order."""
        self._coll_seq += 1
        return self._coll_seq

    # -------------------------------------------------------- constructions
    def dup(self) -> Generator[Any, Any, "Communicator"]:
        """MPI_Comm_dup: same members, fresh context (collective)."""
        ctx = self.next_child_ctx("dup")
        # Synchronize like a real dup (context agreement is collective).
        yield from self.api.barrier(comm=self)
        # Same members, so the rank map is reusable (shared or private).
        return Communicator(self.api, ctx, self.members, rank_map=self._world_to_rank)

    def split(self, color: int, key: int) -> Generator[Any, Any, Optional["Communicator"]]:
        """MPI_Comm_split (collective).

        Members of each color are ordered by (key, parent rank).  A color
        of ``UNDEFINED`` yields None for that caller.
        """
        pairs = yield from self.api.allgather((color, key), comm=self)
        ctx_seq = self._child_seq + 1
        self._child_seq = ctx_seq
        if color == UNDEFINED:
            return None
        ordered = sorted(
            (pair_key, parent_rank)
            for parent_rank, (pair_color, pair_key) in enumerate(pairs)
            if pair_color == color
        )
        members = [self.members[parent_rank] for _key, parent_rank in ordered]
        ctx = self.ctx + (("split", ctx_seq, color),)
        return Communicator(self.api, ctx, members)

    def create(self, group: Group) -> Generator[Any, Any, Optional["Communicator"]]:
        """MPI_Comm_create (collective over this communicator)."""
        for w in group.members:
            if w not in self._world_to_rank:
                raise RankError(f"group member {w} not in parent communicator")
        ctx = self.next_child_ctx("create", group.members)
        yield from self.api.barrier(comm=self)
        if self.api.world_rank not in group:
            return None
        return Communicator(self.api, ctx, group.members)
