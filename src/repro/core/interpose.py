"""The vProtocol-style interposition contract.

Open MPI's vProtocol framework lets a fault-tolerance layer wrap the PML
without reimplementing it (§4.1): it adds pre/post-treatment around
``pml_send`` and subscribes to the ``pml_match`` / ``pml_recv_complete``
events.  :class:`BaseProtocol` is that surface here.  The API facade calls
``app_isend`` / ``app_irecv``; protocols return :class:`SendHandle` /
:class:`RecvHandle` objects whose ``done`` predicate encodes any extra
completion conditions (SDR-MPI: "all r-1 acks collected").  Handles are
passive (:mod:`repro.mpi.handles`): the wait loops only read them, so a
protocol that must act later — post a follower's deferred receive, resend
after a failover — does so from its own ctrl handler or hook, never from
a wait loop.

:class:`NativeProtocol` is the identity interposition — unmodified Open
MPI — used for every "Native" column in the paper's tables.

Envelope ownership across this surface
--------------------------------------
Every envelope a protocol sees through the interposition surface is
**owned by the PML's recycling arena** (see :mod:`repro.mpi.pml`).  The
contract, per entry point:

* ``on_match(recv, env)`` / ``on_recv_complete(env, recv)`` / a
  ``ctrl_handlers`` callable — *env* is a **borrow**: valid while the
  handler runs (through every resumption, for generator handlers), recycled
  the moment it returns.  Handlers copy out the fields they need; to hold
  the whole message past the handler, call ``env.retain()`` (balanced later
  by ``pml.release_env(env)``) or take an arena-independent snapshot with
  ``env.copy()`` → :class:`~repro.mpi.pml.MessageView`.  When the runtime
  guard is enabled, :func:`guard_hook` audits the retain discipline: a
  hook whose retain is never balanced is named at end of run
  (``unbalanced_retain`` strand site) instead of leaking anonymously.
* ``incoming_filter(env)`` — ownership **transfers** to the filter when it
  returns False: the filter must hand the envelope to
  ``pml.deliver_to_matching`` (now or later — reorder buffers hold
  ownership while an envelope is parked) or return it via
  ``pml.release_env`` (duplicate drops).  A filter that *owns* an
  envelope across a ``yield`` must additionally route it to
  ``pml.strand_env`` if the generator is torn down mid-suspension (a
  fail-stop crash of the owning process) — see
  :meth:`repro.core.replicated.ReplicatedBase._filter_incoming` for the
  pattern — or the crash-aware arena balance will name the leak.
* ``pml.deliver_to_matching(env)`` — consumes the envelope: it ends up
  recycled after completion hooks, or parked in the unexpected queue
  (which the PML owns and reaps).

Payload references obtained inside the window (``env.data``,
``recv.data``) follow the copy-on-write snapshot discipline and stay valid
after recycling — only the envelope *shell* is recycled.  Protocol-side
retention (SDR's resend store, redMPI's vote state) therefore keeps
payloads, digests, or :class:`~repro.mpi.pml.MessageView` snapshots, never
raw envelopes.
"""

from __future__ import annotations

import os
from typing import Any, Callable, Dict, Generator, TYPE_CHECKING

from repro.mpi.datatypes import copy_payload, nbytes_of
from repro.mpi.handles import RecvHandle, SendHandle
from repro.mpi.pml import MessageView

if TYPE_CHECKING:  # pragma: no cover - annotations only
    from repro.mpi.pml import Envelope, Pml

__all__ = [
    "SendHandle",
    "RecvHandle",
    "MessageView",
    "BaseProtocol",
    "NativeProtocol",
    "filter_guard_enabled",
    "set_filter_guard",
    "guard_incoming_filter",
    "guard_hook",
]

#: runtime ownership guard for ``incoming_filter`` implementations (see
#: :func:`guard_incoming_filter`); defaults to the REPRO_FILTER_GUARD
#: environment variable so test/debug runs can flip it without code changes
_FILTER_GUARD = os.environ.get("REPRO_FILTER_GUARD", "") not in ("", "0")


def filter_guard_enabled() -> bool:
    """True when newly installed incoming filters get the runtime guard."""
    return _FILTER_GUARD


def set_filter_guard(enabled: bool) -> bool:
    """Flip the filter guard; returns the previous setting.

    Applies to filters installed *after* the call — ``Pml.incoming_filter``
    wraps at assignment time.  Debug aid, not a production switch: the
    guard adds one generator frame and a set operation per application
    frame received.
    """
    global _FILTER_GUARD
    previous = _FILTER_GUARD
    _FILTER_GUARD = enabled
    return previous


def guard_incoming_filter(
    pml: "Pml", fn: Callable[["Envelope"], Generator]
) -> Callable[["Envelope"], Generator]:
    """Wrap *fn* so an envelope-owning yield abandoned unguarded fails loudly.

    The ownership contract (below) requires a filter that *owns* an
    envelope across a ``yield`` to route it to ``pml.strand_env`` when the
    generator is torn down mid-suspension (a fail-stop crash of the owning
    process).  A filter that forgets strands silently — the leak only
    surfaces as an unattributed imbalance in the end-of-run arena check.
    This wrapper tracks the hand-off points (``deliver_to_matching``,
    ``release_env``, ``strand_env`` all clear the pending token) and, when
    the filter is torn down still holding the token, strands the envelope
    itself (keeping the balance provable) and raises an ``AssertionError``
    naming the filter — turning a silent leak into a pointed diagnostic.

    Installed automatically at ``pml.incoming_filter = ...`` assignment
    when :func:`filter_guard_enabled` is true.
    """

    def guarded(env: "Envelope") -> Generator[Any, Any, bool]:
        pending = pml._guard_pending
        if pending is None:
            pending = pml._guard_pending = set()
        token = id(env)
        pending.add(token)
        try:
            deliver = yield from fn(env)
        except BaseException as exc:
            if token in pending:
                pending.discard(token)
                pml.strand_env(env, "unguarded_filter")
                message = (
                    f"incoming_filter {getattr(fn, '__qualname__', fn)!r} on proc "
                    f"{pml.proc} was torn down while owning an envelope without "
                    "routing it to pml.strand_env — every envelope-owning yield "
                    "must be guarded (see the ownership contract in "
                    "repro.core.interpose)"
                )
                # Crash unwinding swallows exceptions raised during
                # teardown (the crash wins), so record the violation for
                # the harness to re-raise at end of run as well.
                if pml.guard_violations is None:
                    pml.guard_violations = []
                pml.guard_violations.append(message)
                raise AssertionError(message) from exc
            raise
        pending.discard(token)
        return deliver

    guarded.__wrapped__ = fn
    return guarded


#: env argument position per hook event: ``on_match(recv, env)`` vs
#: ``on_recv_complete(env, recv)``
_HOOK_ENV_INDEX = {"on_match": 1, "on_recv_complete": 0}


def guard_hook(pml: "Pml", fn: Callable[..., Any], kind: str) -> Callable[..., Generator]:
    """Wrap an ``on_match``/``on_recv_complete`` hook in retain accounting.

    Hooks receive the envelope as a *borrow*; ``env.retain()`` is the
    escape hatch, balanced later by ``pml.release_env``.  A hook that
    retains and forgets the release leaks silently — the shell never
    returns to the arena, and the end-of-run imbalance carries no clue
    about who held it.  This wrapper extends the ``incoming_filter``
    guard's token discipline to the hook surface: it snapshots the
    envelope's refcount around the hook invocation, and a net increase
    records the (envelope, hook) pair in the PML's retain ledger.  The
    ledger entry is cleared when the envelope finally recycles (the
    balancing release arrived, in whatever order); entries still present
    at end of run are stranded at the ``unbalanced_retain`` site and
    re-raised by the harness naming the hook —
    :meth:`repro.mpi.pml.Pml.reap_retain_ledger`.

    Installed automatically at ``pml.on_match.append(...)`` /
    ``pml.on_recv_complete.append(...)`` when :func:`filter_guard_enabled`
    is true (hook lists wrap at append time, like filters at assignment).
    """
    env_index = _HOOK_ENV_INDEX[kind]
    hook_name = getattr(fn, "__qualname__", repr(fn))

    def guarded(*args: Any) -> Generator:
        env = args[env_index]
        before = env._refs
        result = fn(*args)
        if result is not None:
            yield from result
        if env._refs > before:
            ledger = pml._retain_ledger
            if ledger is None:
                ledger = pml._retain_ledger = {}
            ledger[id(env)] = (env, hook_name)

    guarded.__wrapped__ = fn
    return guarded


class BaseProtocol:
    """Common state: per-destination application-message sequence numbers.

    ``seq`` is the per (my world rank → destination world rank) counter of
    application messages in program order.  Send-determinism (Definition 1)
    guarantees replicas assign identical numbers to corresponding messages —
    the invariant every replication protocol here keys on.
    """

    name = "base"
    #: a logical send reaches replicas of the receiver in *other* replica
    #: sets too, so the sets' senders meet on one downlink at one instant —
    #: a static hazard for :mod:`repro.sim.shard` (``classify_hazards``)
    replica_fanout = False

    #: protocols are one-per-physical-process; slots keep the per-instance
    #: footprint to the mutable residue (see ``ProtocolShared`` in
    #: :mod:`repro.core.replicated` for the shared read-only half)
    __slots__ = ("pml", "world_rank", "_send_seq", "app_sends", "app_recvs")

    def __init__(self, pml: Pml, world_rank: int) -> None:
        self.pml = pml
        self.world_rank = world_rank
        self._send_seq: Dict[int, int] = {}
        #: messages sent/received at the application level (metrics)
        self.app_sends = 0
        self.app_recvs = 0

    def next_seq(self, world_dst: int) -> int:
        seq = self._send_seq.get(world_dst, 0)
        self._send_seq[world_dst] = seq + 1
        return seq

    # ------------------------------------------------------------- interface
    def app_isend(
        self, ctx: Any, src_rank: int, tag: int, data: Any, world_dst: int,
        synchronous: bool = False,
    ) -> Generator[Any, Any, SendHandle]:  # pragma: no cover - abstract
        raise NotImplementedError

    def app_irecv(
        self, ctx: Any, source: int, tag: int, buf: Any = None
    ) -> Generator[Any, Any, RecvHandle]:  # pragma: no cover - abstract
        raise NotImplementedError

    def stats(self) -> dict:
        return {
            "app_sends": self.app_sends,
            "app_recvs": self.app_recvs,
            **self.pml.stats(),
        }


class NativeProtocol(BaseProtocol):
    """Identity interposition: world rank == physical process."""

    name = "native"

    __slots__ = ()

    def app_isend(self, ctx, src_rank, tag, data, world_dst, synchronous=False) -> Generator:
        self.app_sends += 1
        seq = self.next_seq(world_dst)
        # charge-then-post split of pml.isend (see Pml.post_send)
        pml = self.pml
        payload = copy_payload(data)
        nbytes = nbytes_of(payload)
        overhead = pml.send_cost(world_dst)
        if overhead > 0.0:
            yield overhead
        req = pml.post_send(
            ctx, src_rank, tag, payload, self.world_rank, world_dst, seq, world_dst, nbytes, synchronous
        )
        return SendHandle([req], world_dst, seq, nbytes=nbytes)

    def app_irecv(self, ctx, source, tag, buf=None) -> Generator:
        self.app_recvs += 1
        req = yield from self.pml.irecv(ctx=ctx, source=source, tag=tag, buf=buf)
        return RecvHandle(req)
