"""Typed event records.

A :class:`SendEvent` is the observable unit of Definition 1: the identity
of a send is (matching context, destination, tag, size) — *not* its wall
time, which legitimately varies across correct executions.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Tuple

__all__ = ["SendEvent"]


@dataclass(frozen=True)
class SendEvent:
    """One application-level send, as identified for send-determinism."""

    ctx: Any
    src_rank: int
    dest_rank: int
    world_dst: int
    tag: int
    nbytes: int

    def key(self) -> Tuple:
        """The comparison key for Definition 1 (timing excluded)."""
        return (self.ctx, self.src_rank, self.dest_rank, self.world_dst, self.tag, self.nbytes)
