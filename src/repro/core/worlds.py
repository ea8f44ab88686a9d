"""Replica/world bookkeeping: the Fig. 6 COMM_WORLD separation.

The job launches ``r·n`` physical processes.  SDR-MPI duplicates the real
COMM_WORLD (kept internal for cross-world acks) and splits it into *r*
application worlds; the application only ever sees its own world of *n*
ranks.  :class:`ReplicaMap` is the arithmetic of that split, replica-major:

    physical process id  =  replica * n_ranks + rank

so replica set 0 is procs ``[0, n)``, replica set 1 is ``[n, 2n)`` — which,
combined with :func:`repro.network.topology.split_halves_placement`, puts
the two replicas of every rank on different nodes exactly as in §4.2.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Tuple

from repro.network.topology import positive_count

__all__ = ["ReplicaMap"]


@dataclass(frozen=True)
class ReplicaMap:
    """Bidirectional (rank, replica) <-> physical-process arithmetic."""

    n_ranks: int
    degree: int
    #: replica-major base offset per replica index: phys(rank, rep) ==
    #: rep_bases[rep] + rank — the table the SDR fan-out loops index
    rep_bases: Tuple[int, ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        for knob in ("n_ranks", "degree"):
            object.__setattr__(self, knob, positive_count(knob, getattr(self, knob)))
        object.__setattr__(self, "rep_bases", tuple(rep * self.n_ranks for rep in range(self.degree)))

    @property
    def n_procs(self) -> int:
        return self.n_ranks * self.degree

    def phys(self, rank: int, rep: int) -> int:
        """Physical id of replica *rep* of logical *rank* (p^rep_rank)."""
        if not (0 <= rank < self.n_ranks):
            raise ValueError(f"rank {rank} outside [0, {self.n_ranks})")
        if not (0 <= rep < self.degree):
            raise ValueError(f"replica {rep} outside [0, {self.degree})")
        return rep * self.n_ranks + rank

    def rank_of(self, proc: int) -> int:
        self._check(proc)
        return proc % self.n_ranks

    def rep_of(self, proc: int) -> int:
        self._check(proc)
        return proc // self.n_ranks

    def replicas_of(self, rank: int) -> List[int]:
        """All physical ids hosting *rank*, in replica order."""
        return [self.phys(rank, rep) for rep in range(self.degree)]

    def pair(self, proc: int) -> Tuple[int, int]:
        return self.rank_of(proc), self.rep_of(proc)

    def _check(self, proc: int) -> None:
        if not (0 <= proc < self.n_procs):
            raise ValueError(f"physical id {proc} outside [0, {self.n_procs})")
