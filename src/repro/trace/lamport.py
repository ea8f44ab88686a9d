"""Lamport logical clocks and the happened-before relation [Lamport 78].

The paper's execution model (§2.1) orders events by a total order
compatible with happened-before; this module provides the machinery used
by trace analyses and their tests.
"""

from __future__ import annotations

from typing import Dict, Hashable, Iterable, List, Set, Tuple

__all__ = ["LamportClock", "happened_before", "causal_order_violations"]


class LamportClock:
    """A per-process scalar logical clock."""

    __slots__ = ("value",)

    def __init__(self) -> None:
        self.value = 0

    def tick(self) -> int:
        """Local event: advance and return the new timestamp."""
        self.value += 1
        return self.value

    def stamp_send(self) -> int:
        """Timestamp attached to an outgoing message."""
        return self.tick()

    def merge(self, received: int) -> int:
        """Receive rule: clock = max(local, received) + 1."""
        self.value = max(self.value, received) + 1
        return self.value


def happened_before(
    edges: Iterable[Tuple[Hashable, Hashable]], a: Hashable, b: Hashable
) -> bool:
    """True iff a →* b in the event graph given program-order and
    message-order *edges* (each edge is (earlier, later))."""
    succ: Dict[Hashable, List[Hashable]] = {}
    for earlier, later in edges:
        succ.setdefault(earlier, []).append(later)
        succ.setdefault(later, [])
    if a not in succ or b not in succ:
        return False
    # a →* a holds for any known event (the empty path).
    seen: Set[Hashable] = {a}
    frontier = [a]
    while frontier:
        node = frontier.pop()
        if node == b:
            return True
        for nxt in succ[node]:
            if nxt not in seen:
                seen.add(nxt)
                frontier.append(nxt)
    return False


def causal_order_violations(
    stamps: Dict[Hashable, int], edges: Iterable[Tuple[Hashable, Hashable]]
) -> List[Tuple[Hashable, Hashable]]:
    """Edges (a, b) whose Lamport stamps do not satisfy C(a) < C(b).

    An empty list is the clock-condition invariant the property tests
    assert for every simulated execution.
    """
    return [(a, b) for a, b in edges if stamps[a] >= stamps[b]]
