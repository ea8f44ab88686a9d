"""Generator-based cooperative processes.

A process wraps a generator.  Each time the generator yields an
:class:`~repro.sim.sync.Event`, the process suspends until the event fires;
the event's value is sent back into the generator (failures are thrown in).
``yield from`` composes sub-generators naturally, which is how the MPI API
facade exposes blocking calls.

A process may also yield a bare non-negative ``float``/``int``: a *CPU
charge*.  The process is then scheduled directly on the kernel queue
(its timestamp's cohort for positive charges, the now-time bucket for zero
charges) and resumed (with ``None``) that many virtual seconds later —
observationally identical to yielding ``Timeout(sim, seconds)``, including
the dispatched event count and FIFO sequencing, but without allocating an
event or running the callback machinery.  CPU-overhead charges are the single most
common event in MPI-heavy workloads, which makes this fast path worth its
special case.

Crash injection: :meth:`Process.crash` throws :class:`ProcessCrashed` into
the generator at the *current* simulation time, modelling fail-stop
behaviour.  A crashed process never runs again.  A charge-scheduled queue
entry for a crashed process fires as a no-op (and is still counted, just
as a dead process's pending Timeout would be).
"""

from __future__ import annotations

from heapq import heappush
from typing import Any, Callable, Generator, Optional

from repro.sim.kernel import Simulator, SimulationError
from repro.sim.sync import Event, Interrupt

__all__ = ["Process", "ProcessCrashed", "ProcessFailure"]


class _Charging:
    """Sentinel ``_waiting_on`` marker while a process sleeps on a charge."""

    label = "cpu-charge"
    triggered = False

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return "<charging>"


_CHARGING = _Charging()


class ProcessCrashed(Interrupt):
    """Thrown into a process generator to model a fail-stop crash."""


class ProcessFailure(RuntimeError):
    """Wraps an exception that escaped a process generator."""

    def __init__(self, process: "Process", cause: BaseException) -> None:
        super().__init__(f"process {process.name!r} died: {cause!r}")
        self.process = process
        self.cause = cause


class Process:
    """A cooperative process driven by the simulator.

    Parameters
    ----------
    sim:
        Owning simulator.
    generator:
        The process body.  It may yield Events and return a final value.
    name:
        Human-readable identifier used in traces and error messages.
    on_exit:
        Optional callback invoked as ``on_exit(process)`` when the body
        returns, raises, or crashes.
    """

    __slots__ = (
        "sim",
        "name",
        "_gen",
        "_send",
        "_throw",
        "_resume_cb",
        "_waiting_on",
        "alive",
        "crashed",
        "value",
        "exception",
        "terminated",
        "on_exit",
    )

    def __init__(
        self,
        sim: Simulator,
        generator: Generator[Event, Any, Any],
        name: str = "proc",
        on_exit: Optional[Callable[["Process"], None]] = None,
    ) -> None:
        if not hasattr(generator, "send"):
            raise TypeError(
                f"Process body must be a generator, got {type(generator).__name__}; "
                "did you forget to call the generator function?"
            )
        self.sim = sim
        self.name = name
        self._gen = generator
        # Resuming is the single hottest call in the simulator: one per
        # dispatched event.  Bind the generator entry points and our own
        # callback once instead of materializing bound methods per event.
        self._send = generator.send
        self._throw = generator.throw
        self._resume_cb = self._resume
        self._waiting_on: Optional[Event] = None
        self.alive = True
        self.crashed = False
        self.value: Any = None
        self.exception: Optional[BaseException] = None
        #: Event fired when the process terminates (for joins).
        self.terminated = Event(sim, label=f"terminated({name})")
        self.on_exit = on_exit
        # Kick off at the current time via the event queue so construction
        # order, not construction *site*, determines first-step order.
        # The start event completes immediately and nothing can ever block
        # on it, so it shares the process's name string instead of
        # allocating a per-process f-string label.
        start = Event(sim, label=name)
        start.add_callback(self._resume_cb)
        start.succeed(None)

    #: charge queue entries are never revoked (fire() guards on alive)
    cancelled = False

    # ------------------------------------------------------------- stepping
    def _resume(self, ev: Event) -> None:
        if not self.alive:
            return
        self._waiting_on = None
        try:
            # ev is always completed here (it just fired), so read the
            # slots directly rather than going through the checking
            # properties.
            if ev._ok:
                target = self._send(ev._value)
            else:
                target = self._throw(ev._value)
        except StopIteration as stop:
            self._finish(value=stop.value)
            return
        except ProcessCrashed:
            self._finish(crashed=True)
            return
        except BaseException as exc:  # noqa: BLE001 - escalate with context
            self._finish(exception=exc)
            return
        # _wait_on inlined: one call per dispatched event.
        if isinstance(target, Event):
            self._waiting_on = target
            if target._fired:
                target.add_callback(self._resume_cb)
            else:
                callbacks = target.callbacks
                if callbacks is None:
                    target.callbacks = [self._resume_cb]
                else:
                    callbacks.append(self._resume_cb)
            return
        cls = type(target)
        if (cls is float or cls is int) and target >= 0:
            sim = self.sim
            if target:
                sim._seq += 1
                when = sim._now + target
                cohort = sim._cohorts.get(when)
                if cohort is None:
                    sim._cohorts[when] = [(sim._seq, self)]
                    heappush(sim._queue, when)
                else:
                    cohort.append((sim._seq, self))
            else:
                sim._bucket.append(self)
            self._waiting_on = _CHARGING
            return
        self._wait_on(target)

    def fire(self) -> None:
        """Kernel entry point when this process was charge-scheduled.

        Equivalent to a Timeout with value ``None`` firing: resume the
        generator, then wait on whatever it yields next.
        """
        if not self.alive:
            return
        self._waiting_on = None
        try:
            target = self._send(None)
        except StopIteration as stop:
            self._finish(value=stop.value)
            return
        except ProcessCrashed:
            self._finish(crashed=True)
            return
        except BaseException as exc:  # noqa: BLE001 - escalate with context
            self._finish(exception=exc)
            return
        # _wait_on inlined: one call per dispatched event.
        if isinstance(target, Event):
            self._waiting_on = target
            if target._fired:
                target.add_callback(self._resume_cb)
            else:
                callbacks = target.callbacks
                if callbacks is None:
                    target.callbacks = [self._resume_cb]
                else:
                    callbacks.append(self._resume_cb)
            return
        cls = type(target)
        if (cls is float or cls is int) and target >= 0:
            sim = self.sim
            if target:
                sim._seq += 1
                when = sim._now + target
                cohort = sim._cohorts.get(when)
                if cohort is None:
                    sim._cohorts[when] = [(sim._seq, self)]
                    heappush(sim._queue, when)
                else:
                    cohort.append((sim._seq, self))
            else:
                sim._bucket.append(self)
            self._waiting_on = _CHARGING
            return
        self._wait_on(target)

    def _wait_on(self, target: Any) -> None:
        """Suspend until *target* — an Event, or a float/int CPU charge."""
        if isinstance(target, Event):
            self._waiting_on = target
            # Event.add_callback inlined (one call per dispatched event):
            # the immediate-run path for already-fired events falls back to
            # the real method.
            if target._fired:
                target.add_callback(self._resume_cb)
            else:
                callbacks = target.callbacks
                if callbacks is None:
                    target.callbacks = [self._resume_cb]
                else:
                    callbacks.append(self._resume_cb)
            return
        cls = type(target)
        if (cls is float or cls is int) and target >= 0:
            # CPU charge: schedule this process directly (see module docs).
            sim = self.sim
            if target:
                sim._seq += 1
                when = sim._now + target
                cohort = sim._cohorts.get(when)
                if cohort is None:
                    sim._cohorts[when] = [(sim._seq, self)]
                    heappush(sim._queue, when)
                else:
                    cohort.append((sim._seq, self))
            else:
                sim._bucket.append(self)
            self._waiting_on = _CHARGING
            return
        # Blocker protocol: an object (e.g. a fabric endpoint) that parks
        # the process itself and later schedules it directly — the
        # allocation-free analogue of yielding one of its waiter events.
        block = getattr(target, "block_process", None)
        if block is not None:
            self._waiting_on = target
            block(self)
            return
        self._finish(
            exception=SimulationError(
                f"process {self.name!r} yielded {target!r}; processes may "
                "only yield Event instances, non-negative float/int CPU "
                "charges, or blockers (use `yield from` for sub-generators)"
            )
        )

    def _finish(
        self,
        value: Any = None,
        exception: Optional[BaseException] = None,
        crashed: bool = False,
    ) -> None:
        self.alive = False
        self.crashed = crashed
        self.value = value
        self.exception = exception
        self._gen.close()
        if self.on_exit is not None:
            self.on_exit(self)
        if exception is not None:
            # Fail the join event so waiters see the error; if nobody joins,
            # surface it loudly instead of dying silently.
            self.terminated.fail(ProcessFailure(self, exception))
        else:
            self.terminated.succeed(value)

    # ------------------------------------------------------------ interface
    def crash(self) -> None:
        """Fail-stop this process immediately (idempotent)."""
        if not self.alive:
            return
        if self._waiting_on is not None and not self._waiting_on.triggered:
            # Detach: deliver the crash via a dedicated event so we do not
            # mutate the event the process was waiting on.
            waiting = self._waiting_on
            self._waiting_on = None
            try:
                self._gen.throw(ProcessCrashed())
            except (StopIteration, ProcessCrashed):
                pass
            except BaseException:  # noqa: BLE001 - crash wins over cleanup errors
                pass
            self._finish(crashed=True)
        else:
            # Process is on the run queue (event triggered but not fired):
            # mark dead; _resume guards on self.alive.
            try:
                self._gen.throw(ProcessCrashed())
            except (StopIteration, ProcessCrashed):
                pass
            except BaseException:  # noqa: BLE001
                pass
            self._finish(crashed=True)

    def abandon(self) -> None:
        """Tear down a process that will never run again (idempotent).

        End-of-run cleanup for blocked survivors of lost-rank scenarios:
        closing the generator unwinds it with ``GeneratorExit``, so the
        ownership guards in the PML receive pipeline see the abandonment
        and strand-account whatever the process was borrowing.  Unlike
        :meth:`crash`, no ``ProcessCrashed`` is delivered and the
        ``terminated`` event does not fire — the simulation is already
        over and nobody is left to observe either.
        """
        if not self.alive:
            return
        self.alive = False
        self._waiting_on = None
        self._gen.close()

    def join(self) -> Event:
        """Event that fires when this process terminates."""
        return self.terminated

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        state = "alive" if self.alive else ("crashed" if self.crashed else "done")
        return f"<Process {self.name!r} {state}>"
