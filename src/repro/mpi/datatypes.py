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
