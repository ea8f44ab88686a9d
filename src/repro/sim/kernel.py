"""The event loop: virtual clock plus a deterministic timestamp-cohort queue.

Determinism contract
--------------------
Events scheduled for the same virtual time fire in the order they were
scheduled (FIFO tie-breaking).  Nothing in the kernel consults wall-clock
time or unseeded randomness, so a simulation is a pure function of its
inputs.  This property is load-bearing: the send-determinism checker
(:mod:`repro.trace.determinism`) relies on being able to perturb *only*
the knobs it intends to perturb.

Timestamp cohorts
-----------------
Send-deterministic SPMD programs put thousands of processes on the *same*
virtual timestamps (``coll-1k``: 176 events per distinct time), so the
queue is keyed on the timestamp, not on the event:

* ``_queue`` — a ``heapq`` of the **distinct** strictly-future times;
* ``_cohorts`` — ``{time: [(seq, event), ...]}``, each list in push order.
  A future push is one dict probe and one list append; only the first
  event of a new timestamp pays a heap push, and only one heap pop is paid
  per timestamp.  ``seq`` is the global push counter: the dispatch loop
  never compares it (list order *is* the order), it is the push-order
  witness :mod:`repro.sim.shard` uses to place deferred frames;
* ``_bucket`` — a FIFO (``deque``) of bare events scheduled *at* the
  current time (zero-delay completions, wake-ups): no seq, no tuple.

Order proof.  Dispatch must equal the sort by ``(time, push index)``.
Times: the heap yields distinct times in increasing order and the clock
only moves to a popped time, so timestamps fire in order.  Within one time
*T*: every cohort entry was pushed while ``now < T`` (a push *at* ``now``
is routed to the bucket), hence before anything the bucket receives once
the clock reads *T*; the cohort list preserves push order by construction
(append-only) and the bucket is FIFO.  Firing the cohort in list order,
then draining the bucket, is therefore exactly ``(time, push index)``
order.  The cohort is popped from ``_cohorts`` *before* it is fired, so
the one push the routing rule does not cover — embedding code putting an
entry at the current time directly into ``_cohorts`` — opens a fresh
cohort for *T*, fired once the bucket has drained, instead of growing the
list under iteration.  A batch cut short (``StopSimulation``, a raising
event) moves its unfired remainder to the *front* of the bucket: still
pending, still in order, where :meth:`Simulator.step`, a resumed
:meth:`Simulator.run` and the harness's in-flight audit all find it.

Every insertion site makes the same decision: the kernel's
:meth:`Simulator.schedule`/:meth:`Simulator.schedule_at`, and the inlined
hot paths in :mod:`repro.sim.sync` (``Event.succeed``, ``Timeout``),
:mod:`repro.sim.process` (CPU charges) and :mod:`repro.network.fabric`
(endpoint wake-ups, frame arrivals).

Hot-path notes
--------------
One dispatch loop (:meth:`Simulator._dispatch`) serves :meth:`Simulator.run`
bounded and unbounded, :meth:`Simulator.run_until_before` and the
``trace_hook`` mode.  Per-timestamp work (deadline compare, ``on_advance``,
clock store) is amortised over the cohort and the hook costs one
``is not None`` test per event, so separate unbounded, exclusive-horizon
and traced loops buy less than the 3 % that would earn them their place
(``docs/performance.md``, "Timestamp cohorts").  Every schedulable object
**must** carry a ``cancelled`` attribute (see :class:`EventLike`); a
class-level ``cancelled = False`` is enough for events never revoked.
Install ``trace_hook`` before calling :meth:`run` — mid-run installation
is not observed until the next ``run`` call.
"""

from __future__ import annotations

import gc
import heapq
import math
from collections import deque
from typing import Any, Callable, Optional

__all__ = ["Simulator", "SimulationError", "StopSimulation"]

_INF = math.inf


class SimulationError(RuntimeError):
    """Raised for fatal kernel-level errors (deadlock, time travel, ...)."""


class StopSimulation(Exception):
    """Raised internally to abort :meth:`Simulator.run` early."""

    def __init__(self, value: Any = None) -> None:
        super().__init__(value)
        self.value = value


class Simulator:
    """A deterministic discrete-event simulator.

    Parameters
    ----------
    trace_hook:
        Optional callable invoked as ``trace_hook(time, event)`` just before
        each event fires; used by :mod:`repro.trace` for observability.
    """

    __slots__ = (
        "_now",
        "_seq",
        "_queue",
        "_cohorts",
        "_bucket",
        "_running",
        "_stopped",
        "trace_hook",
        "on_advance",
        "events_dispatched",
    )

    def __init__(self, trace_hook: Optional[Callable[[float, Any], None]] = None) -> None:
        self._now: float = 0.0
        self._seq: int = 0
        self._queue: list = []  # heap of the distinct future times
        self._cohorts: dict = {}  # time -> [(seq, event), ...] in push order
        self._bucket: deque = deque()  # FIFO of events at the current time
        self._running = False
        self._stopped: Optional[StopSimulation] = None
        self.trace_hook = trace_hook
        #: quiescent-point hook: a zero-argument callable invoked after all
        #: events at the current timestamp have fired, just before the
        #: clock advances.  Deliberately *not* a scheduled event — it never
        #: touches ``events_dispatched`` or the queue order, so enabling it
        #: is unobservable to determinism goldens.  The callee must not
        #: schedule events or raise; the harness uses it to trim arena
        #: free lists between timestamp batches (``Job._install_trimmer``).
        self.on_advance: Optional[Callable[[], None]] = None
        #: number of events dispatched so far (observability/bench metric)
        self.events_dispatched: int = 0

    # ------------------------------------------------------------------ time
    @property
    def now(self) -> float:
        """Current virtual time in seconds."""
        return self._now

    # ------------------------------------------------------------- scheduling
    def schedule(self, event: "EventLike", delay: float = 0.0) -> "EventLike":
        """Enqueue *event* to fire ``delay`` seconds from now.

        Returns the event to allow chaining.  Negative delays are a
        programming error and raise :class:`SimulationError`.
        """
        if delay < 0:
            raise SimulationError(f"cannot schedule event {delay} s in the past")
        return self.schedule_at(event, self._now + delay)

    def schedule_at(self, event: "EventLike", when: float) -> "EventLike":
        """Enqueue *event* to fire at absolute virtual time *when*."""
        if when > self._now:
            self._seq += 1
            cohort = self._cohorts.get(when)
            if cohort is None:
                self._cohorts[when] = [(self._seq, event)]
                heapq.heappush(self._queue, when)
            else:
                cohort.append((self._seq, event))
        elif when == self._now:
            self._bucket.append(event)
        else:
            raise SimulationError(
                f"cannot schedule event at t={when} (now t={self._now})"
            )
        return event

    def call_at(self, when: float, fn: Callable[[], None]) -> None:
        """Schedule a bare callback at absolute time *when*."""
        self.schedule_at(_Callback(fn), when)

    def call_in(self, delay: float, fn: Callable[[], None]) -> None:
        """Schedule a bare callback ``delay`` seconds from now."""
        self.schedule(_Callback(fn), delay)

    # ------------------------------------------------------------------- run
    def run(self, until: Optional[float] = None) -> Any:
        """Dispatch events until the queue drains or *until* is reached.

        Bounded runs are *inclusive* of events at ``until`` and leave the
        clock there.  Returns the value carried by :class:`StopSimulation`
        if the simulation was stopped explicitly, else ``None``.
        """
        if until is None:
            return self._dispatch(_INF, park=False)
        return self._dispatch(until, park=True)

    def run_until_before(self, horizon: float) -> Any:
        """Dispatch every event with virtual time strictly below *horizon*.

        The conservative-window drain used by sharded-parallel execution
        (:mod:`repro.sim.shard`): unlike :meth:`run`, which is *inclusive*
        of events at ``until``, this leaves every event at
        ``t >= horizon`` pending and the clock strictly below *horizon*
        (or unchanged if nothing fired).  A shard can therefore run its
        window ``[W, W + lookahead)``, exchange cross-shard frames whose
        arrivals all land at ``>= W + lookahead``, and resume — without
        ever firing an event whose inputs a peer shard could still
        change.  ``t < horizon`` is ``t <= pred(horizon)`` on floats, so
        this is the inclusive loop bounded one ulp earlier.
        """
        return self._dispatch(math.nextafter(horizon, -_INF), park=False)

    def _dispatch(self, until: float, park: bool) -> Any:
        """The dispatch loop: fire every event with ``time <= until``.

        Drain the now-time bucket, pop the next timestamp and fire its
        cohort in list (= push) order, repeat (module docstring has the
        order proof): one heap pop, one deadline compare, one
        ``on_advance`` and one clock store per timestamp, not per event.
        *park* moves the clock to *until* after a normal drain (the
        bounded :meth:`run` contract).

        ``events_dispatched`` is accumulated in a local and written back
        on exit (including the StopSimulation path), never observable
        mid-run by events themselves — nothing in-tree reads it before
        the run returns.
        """
        if self._running:
            raise SimulationError("Simulator.run is not reentrant")
        self._running = True
        self._stopped = None
        times = self._queue
        bucket = self._bucket
        heappop = heapq.heappop
        pop_cohort = self._cohorts.pop
        popleft = bucket.popleft
        hook = self.trace_hook
        dispatched = self.events_dispatched
        # The dispatch loop allocates heavily (events, frames, generator
        # frames) but creates almost no garbage cycles; pausing the cyclic
        # collector for the duration avoids whole-heap scans mid-run.  It
        # is restored whatever happens, and has no observable effect on
        # simulation results.
        gc_was_enabled = gc.isenabled()
        if gc_was_enabled:
            gc.disable()
        cohort: list = []  # the cohort being fired (see the finally clause)
        seq = 0
        try:
            now = self._now
            if now <= until:
                while True:
                    while bucket:
                        event = popleft()
                        if not event.cancelled:
                            if hook is not None:
                                hook(now, event)
                            dispatched += 1
                            event.fire()
                    if not times:
                        break
                    when = times[0]
                    if when > until:
                        break
                    if when != now:  # else: unrouted same-time push
                        advance = self.on_advance
                        if advance is not None:
                            advance()
                        self._now = now = when
                    cohort = pop_cohort(heappop(times))
                    for seq, event in cohort:
                        if not event.cancelled:
                            if hook is not None:
                                hook(now, event)
                            dispatched += 1
                            event.fire()
                if park:
                    self._now = until
        except StopSimulation as stop:
            self._stopped = stop
        finally:
            # An interrupted batch keeps its place, ahead of the bucket:
            # seqs ascend along a cohort and ``seq`` is the last one fired
            # (the cohort's last, i.e. no remainder, after a full pass).
            bucket.extendleft(reversed([ev for s, ev in cohort if s > seq]))
            self.events_dispatched = dispatched
            if gc_was_enabled:
                gc.enable()
            self._running = False
        return self._stopped.value if self._stopped is not None else None

    def step(self) -> bool:
        """Dispatch a single event.  Returns False when the queue is empty.

        A new timestamp's cohort moves into the (then empty) bucket whole,
        so the rest of it stays ahead of whatever the stepped event
        schedules at the current time.
        """
        bucket = self._bucket
        if not bucket:
            if not self._queue:
                return False
            self._now = when = heapq.heappop(self._queue)
            bucket.extend([event for _seq, event in self._cohorts.pop(when)])
        event = bucket.popleft()
        if event.cancelled:
            return True
        self.events_dispatched += 1
        event.fire()
        return True

    def stop(self, value: Any = None) -> None:
        """Stop the simulation from inside an event callback."""
        raise StopSimulation(value)

    @property
    def queue_size(self) -> int:
        """Pending entries (cancelled ones included until they surface)."""
        return len(self._bucket) + sum(map(len, self._cohorts.values()))

    def peek(self) -> Optional[float]:
        """Virtual time of the next pending event, or None if idle."""
        if self._bucket:
            return self._now
        return self._queue[0] if self._queue else None


class _Callback:
    """Adapter turning a plain callable into a schedulable event."""

    __slots__ = ("fn", "cancelled")

    def __init__(self, fn: Callable[[], None]) -> None:
        self.fn = fn
        self.cancelled = False

    def fire(self) -> None:
        self.fn()


class EventLike:
    """Protocol for objects accepted by :meth:`Simulator.schedule`.

    Anything with a ``fire()`` method and a ``cancelled`` attribute
    qualifies; :class:`repro.sim.sync.Event` is the canonical
    implementation.  ``cancelled`` is **required** (a class attribute
    ``cancelled = False`` suffices): the dispatch loop reads it
    directly instead of paying a per-event ``getattr`` fallback.
    """

    cancelled: bool = False

    def fire(self) -> None:  # pragma: no cover - protocol stub
        raise NotImplementedError
