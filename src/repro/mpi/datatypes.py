"""Message payloads: real data and phantom (size-only) buffers.

Workloads run in one of two modes:

* **validate** — payloads are real Python/numpy objects; receives copy data,
  reductions compute real values.  Used by tests and small examples.
* **modeled**  — payloads are :class:`Phantom` markers carrying only a byte
  count.  The protocol/cost behaviour is identical (everything is keyed on
  sizes), but no memory traffic happens, letting benches run the paper's
  256-rank class-D-sized problems in seconds.
"""

from __future__ import annotations

from typing import Any

import numpy as np

__all__ = [
    "Phantom",
    "PayloadInterner",
    "nbytes_of",
    "copy_payload",
    "writable_copy",
    "combine",
]


class Phantom:
    """A size-only stand-in for a message payload.

    Phantoms are absorbing under arithmetic-style combination, so reduction
    collectives work transparently in modeled mode.
    """

    __slots__ = ("nbytes",)

    def __init__(self, nbytes: int) -> None:
        if nbytes < 0:
            raise ValueError("payload size cannot be negative")
        self.nbytes = int(nbytes)

    def __repr__(self) -> str:
        return f"Phantom({self.nbytes})"

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Phantom) and other.nbytes == self.nbytes

    def __hash__(self) -> int:
        return hash(("Phantom", self.nbytes))


class PayloadInterner:
    """Job-wide intern table for immutable payload snapshots.

    Collectives and replication fan-out mint millions of size-only
    :class:`Phantom` markers per run — e.g. every reduction step of every
    replica produces a fresh ``Phantom(max(...))`` even though only a
    handful of distinct sizes ever occur.  All of them are immutable and
    compared by value, so one canonical object per distinct value is
    observationally equivalent; `copy_payload`/`writable_copy` remain the
    only mutation gates, and neither ever mutates an interned type.

    Interned types are chosen for *safe* value-keyed identity collapse:

    * ``Phantom`` — keyed by ``nbytes`` (the whole value);
    * ``bytes``/``str`` — keyed by ``(type, value)``, only up to
      :data:`SMALL_LIMIT` so a huge one-off blob cannot be pinned by the
      table for the rest of the job.

    Ints and floats are deliberately **not** interned: ``True == 1`` and
    ``hash(True) == hash(1)`` would conflate distinct payloads under a
    value key, and ``-0.0 == 0.0`` would canonicalize away a sign bit.

    The table is bounded (:data:`MAX_ENTRIES` per kind); once full it
    keeps serving hits for known values but stops admitting new ones
    (counted as misses), so an adversarial workload degrades to the
    uninterned baseline instead of leaking.
    """

    MAX_ENTRIES = 4096
    SMALL_LIMIT = 256

    __slots__ = ("_phantoms", "_small", "hits", "misses")

    def __init__(self) -> None:
        self._phantoms: dict = {}
        self._small: dict = {}
        #: payloads collapsed onto an existing canonical object
        self.hits = 0
        #: payloads passed through unchanged (uninternable type, first
        #: sighting of a value, or table full)
        self.misses = 0

    def intern(self, obj: Any) -> Any:
        """Canonical object for *obj*, or *obj* itself if not internable."""
        cls = type(obj)
        if cls is Phantom:
            table = self._phantoms
            canon = table.get(obj.nbytes)
            if canon is not None:
                self.hits += 1
                return canon
            if len(table) < self.MAX_ENTRIES:
                table[obj.nbytes] = obj
            self.misses += 1
            return obj
        if (cls is bytes or cls is str) and len(obj) <= self.SMALL_LIMIT:
            table = self._small
            key = (cls, obj)
            canon = table.get(key)
            if canon is not None:
                self.hits += 1
                return canon
            if len(table) < self.MAX_ENTRIES:
                table[key] = obj
            self.misses += 1
            return obj
        self.misses += 1
        return obj


def nbytes_of(obj: Any) -> int:
    """Byte size of a payload object for costing purposes."""
    if obj is None:
        return 0
    if isinstance(obj, Phantom):
        return obj.nbytes
    if isinstance(obj, np.ndarray):
        return int(obj.nbytes)
    if isinstance(obj, (bytes, bytearray, memoryview)):
        return len(obj)
    if isinstance(obj, str):
        return len(obj.encode())
    if isinstance(obj, (int, float, complex, np.generic)):
        return 8  # bool too: it is an int (MPI_C_BOOL sizing would move fingerprints)
    if isinstance(obj, (list, tuple)):
        return sum(nbytes_of(x) for x in obj)
    raise TypeError(f"cannot size payload of type {type(obj).__name__}")


def copy_payload(obj: Any) -> Any:
    """Snapshot a payload at send time (MPI send-buffer semantics).

    Copy-on-write discipline: the returned snapshot is *immutable* and may
    be shared freely.  Immutable inputs — ``Phantom``, ``bytes``, scalars,
    and ndarrays whose writeable flag is already cleared (i.e. a previous
    ``copy_payload`` result) — are returned as-is; only a writable ndarray
    pays for a copy, and that copy is write-guarded (``writeable=False``)
    so any later mutation of the shared snapshot raises instead of silently
    corrupting retention buffers.  This is what lets the SDR retention
    table, mirror fan-out, failover resends and respawn state cloning all
    hold *one* snapshot per logical message instead of deep-copying per
    send: re-snapshotting an immutable payload is free.
    """
    if obj is None or isinstance(obj, (Phantom, bytes, str, int, float, complex)):
        return obj
    if isinstance(obj, np.ndarray):
        if not obj.flags.writeable:
            return obj
        snap = obj.copy()
        snap.flags.writeable = False
        return snap
    if isinstance(obj, bytearray):
        return bytes(obj)
    if isinstance(obj, (list, tuple)):
        return type(obj)(copy_payload(x) for x in obj)
    if isinstance(obj, np.generic):
        return obj
    raise TypeError(f"cannot copy payload of type {type(obj).__name__}")


def writable_copy(obj: Any) -> Any:
    """Mutable copy of a (possibly shared, read-only) received payload.

    Receivers that want to update a received array in place should go
    through this instead of mutating ``recv.data`` — the latter may be a
    write-guarded shared snapshot.
    """
    if isinstance(obj, np.ndarray) and not obj.flags.writeable:
        return obj.copy()
    return obj


_OPS = {
    "sum": lambda a, b: a + b,
    "prod": lambda a, b: a * b,
    "max": lambda a, b: np.maximum(a, b) if isinstance(a, np.ndarray) else max(a, b),
    "min": lambda a, b: np.minimum(a, b) if isinstance(a, np.ndarray) else min(a, b),
}


def combine(op: str, a: Any, b: Any) -> Any:
    """Apply reduction *op* to two payloads; Phantom absorbs.

    Lists/tuples combine elementwise (MPI reductions over count>1 buffers;
    also what reduce_scatter needs for rank-indexed chunk lists).
    """
    if isinstance(a, (list, tuple)) and isinstance(b, (list, tuple)):
        if len(a) != len(b):
            raise ValueError(f"cannot combine sequences of lengths {len(a)} and {len(b)}")
        return type(a)(combine(op, x, y) for x, y in zip(a, b))
    if isinstance(a, Phantom) or isinstance(b, Phantom):
        return Phantom(max(nbytes_of(a), nbytes_of(b)))
    try:
        fn = _OPS[op]
    except KeyError:
        raise ValueError(f"unknown reduction op {op!r}; have {sorted(_OPS)}") from None
    return fn(a, b)
