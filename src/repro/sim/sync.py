"""Synchronization primitives: events, timeouts, composite waits, mailboxes.

These are the objects generator processes yield.  A process may yield:

* an :class:`Event` (wait until it succeeds or fails),
* a :class:`Timeout` (an event pre-scheduled to succeed after a delay),
* an :class:`AllOf` / :class:`AnyOf` composite.

Values flow back into the generator through ``.send(value)``; failures are
thrown in with ``.throw(exc)``.

Hot-path notes
--------------
Events are the unit of simulation work — every frame delivery, CPU charge
and process wake-up allocates one — so the class is kept deliberately lean:
``__slots__`` everywhere, the callback list allocated lazily on first
``add_callback``, and zero-delay completion appended straight to the
simulator's now-time bucket (one FIFO append — no sequence counter, no
tuple, no heap sift) without going through :meth:`Simulator.schedule`.
"""

from __future__ import annotations

from heapq import heappush
from typing import Any, Callable, Deque, Iterable, List, Optional

from collections import deque

from repro.sim.kernel import SimulationError, Simulator

__all__ = ["Event", "Timeout", "AllOf", "AnyOf", "Mailbox", "Interrupt"]


class Interrupt(Exception):
    """Thrown into a process when it is interrupted (e.g. crash injection)."""

    def __init__(self, cause: Any = None) -> None:
        super().__init__(cause)
        self.cause = cause


_PENDING = object()


class Event:
    """A one-shot occurrence processes can wait on.

    An event starts *pending*; it is completed exactly once via
    :meth:`succeed` or :meth:`fail`.  Completion schedules the event on the
    simulator queue; callbacks run when the event fires.
    """

    __slots__ = ("sim", "callbacks", "_value", "_ok", "_fired", "cancelled", "label")

    def __init__(self, sim: Simulator, label: str = "") -> None:
        self.sim = sim
        self.callbacks: Optional[List[Callable[["Event"], None]]] = None
        self._value: Any = _PENDING
        self._ok: Optional[bool] = None
        self._fired = False
        self.cancelled = False
        self.label = label

    # -------------------------------------------------------------- queries
    @property
    def triggered(self) -> bool:
        """True once succeed/fail has been called (may not have fired yet)."""
        return self._value is not _PENDING

    @property
    def processed(self) -> bool:
        """True once the event has fired and callbacks have run."""
        return self._fired

    @property
    def ok(self) -> bool:
        if self._ok is None:
            raise SimulationError("event not yet completed")
        return self._ok

    @property
    def value(self) -> Any:
        if self._value is _PENDING:
            raise SimulationError("event has no value yet")
        return self._value

    # ----------------------------------------------------------- completion
    def succeed(self, value: Any = None, delay: float = 0.0) -> "Event":
        if self._value is not _PENDING:
            raise SimulationError(f"event {self.label!r} already completed")
        self._value = value
        self._ok = True
        if delay == 0.0:
            self.sim._bucket.append(self)
        else:
            self.sim.schedule(self, delay)
        return self

    def abandon(self) -> None:
        """Neutralize a pending wait without scheduling it.

        The event becomes *triggered* — producers that skip triggered
        waiters (:meth:`Mailbox.put`, :meth:`Endpoint.deliver`) pass it
        over — and *cancelled*, so the dispatch loop drops it if it was
        ever queued.  No callback will run and no event is dispatched.
        The sharded runner uses this to retire the one drain-loop park
        the serial engine never creates (see
        :meth:`repro.harness.runner.Job._shard_release_drain`).
        """
        if self._value is _PENDING:
            self._value = None
            self._ok = True
        self.cancelled = True

    def fail(self, exc: BaseException, delay: float = 0.0) -> "Event":
        if self._value is not _PENDING:
            raise SimulationError(f"event {self.label!r} already completed")
        if not isinstance(exc, BaseException):
            raise TypeError("Event.fail expects an exception instance")
        self._value = exc
        self._ok = False
        self.sim.schedule(self, delay)
        return self

    # ------------------------------------------------------------- dispatch
    def add_callback(self, fn: Callable[["Event"], None]) -> None:
        """Register *fn* to run when the event fires.

        If the event has already fired, *fn* runs immediately; this keeps
        late waiters correct.
        """
        if self._fired:
            fn(self)
        elif self.callbacks is None:
            self.callbacks = [fn]
        else:
            self.callbacks.append(fn)

    def fire(self) -> None:
        self._fired = True
        callbacks, self.callbacks = self.callbacks, None
        if callbacks:
            for fn in callbacks:
                fn(self)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        state = "pending" if not self.triggered else ("ok" if self._ok else "failed")
        return f"<Event {self.label!r} {state}>"


class Timeout(Event):
    """An event that succeeds ``delay`` seconds after construction.

    Construction is the PML's per-frame CPU-charge path, so the generic
    ``Event.__init__`` + ``succeed`` pair is inlined into direct slot
    writes plus one queue push.
    """

    __slots__ = ("delay",)

    def __init__(self, sim: Simulator, delay: float, value: Any = None) -> None:
        if delay < 0:
            raise SimulationError(f"cannot schedule event {delay} s in the past")
        self.sim = sim
        self.callbacks = None
        self._value = value
        self._ok = True
        self._fired = False
        self.cancelled = False
        self.delay = delay
        if delay:
            sim._seq += 1
            when = sim._now + delay
            cohort = sim._cohorts.get(when)
            if cohort is None:
                sim._cohorts[when] = [(sim._seq, self)]
                heappush(sim._queue, when)
            else:
                cohort.append((sim._seq, self))
        else:
            sim._bucket.append(self)

    @property
    def label(self) -> str:  # shadows the Event slot; Timeouts are immutable
        return f"timeout({self.delay})"


class AllOf(Event):
    """Succeeds when every child event has succeeded.

    Value is the list of child values in construction order.  Fails fast if
    any child fails.
    """

    __slots__ = ("_children", "_remaining")

    def __init__(self, sim: Simulator, events: Iterable[Event]) -> None:
        super().__init__(sim, label="all_of")
        self._children = list(events)
        self._remaining = len(self._children)
        if self._remaining == 0:
            self.succeed([])
            return
        for ev in self._children:
            ev.add_callback(self._on_child)

    def _on_child(self, ev: Event) -> None:
        if self.triggered:
            return
        if not ev.ok:
            self.fail(ev.value)
            return
        self._remaining -= 1
        if self._remaining == 0:
            self.succeed([c.value for c in self._children])


class AnyOf(Event):
    """Succeeds when the first child succeeds; value is ``(index, value)``."""

    __slots__ = ("_children",)

    def __init__(self, sim: Simulator, events: Iterable[Event]) -> None:
        super().__init__(sim, label="any_of")
        self._children = list(events)
        if not self._children:
            raise SimulationError("AnyOf requires at least one event")
        for idx, ev in enumerate(self._children):
            ev.add_callback(lambda e, i=idx: self._on_child(i, e))

    def _on_child(self, idx: int, ev: Event) -> None:
        if self.triggered:
            return
        if ev.ok:
            self.succeed((idx, ev.value))
        else:
            self.fail(ev.value)


class Mailbox:
    """An unbounded FIFO queue with event-based blocking receive.

    Used by the network fabric to hand frames to endpoints, and by the
    failure detector to deliver notifications.  ``put`` never blocks.
    """

    __slots__ = ("sim", "_items", "_getters", "label")

    def __init__(self, sim: Simulator, label: str = "") -> None:
        self.sim = sim
        self._items: Deque[Any] = deque()
        self._getters: Deque[Event] = deque()
        self.label = label

    def __len__(self) -> int:
        return len(self._items)

    def put(self, item: Any) -> None:
        self._items.append(item)
        # Wake exactly one waiter per item, preserving FIFO fairness.
        while self._getters and self._items:
            getter = self._getters.popleft()
            if getter.triggered:
                continue
            getter.succeed(self._items.popleft())

    def get(self) -> Event:
        """Return an event yielding the next item (immediately if queued)."""
        ev = Event(self.sim, label=f"mailbox.get({self.label})")
        if self._items:
            ev.succeed(self._items.popleft())
        else:
            self._getters.append(ev)
        return ev

    def get_nowait(self) -> Any:
        if not self._items:
            raise SimulationError(f"mailbox {self.label!r} is empty")
        return self._items.popleft()

    def peek_all(self) -> List[Any]:
        """Non-destructive snapshot of queued items (diagnostics only)."""
        return list(self._items)

    def drain(self) -> List[Any]:
        items = list(self._items)
        self._items.clear()
        return items
