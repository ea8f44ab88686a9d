"""Failure detection and substitute election.

The paper assumes "failures are detected by an external service provided in
the system" delivering a consistent view to all processes (§3.2).  This
module is that service: by default a perfect (no false positives),
eventually-notifying detector.  When a process crashes, every live process
receives a notification ``detection_delay`` seconds later, processed — like
everything else — at its next MPI call (no asynchronous progress).

An opt-in :class:`DetectorConfig` replaces the instant oracle with an
*imperfect* heartbeat detector: detection happens only after the victim
misses ``suspicion_threshold`` consecutive heartbeats plus a timeout, each
notification delivery can be lost and is retried with backoff, and
:meth:`MembershipService.inject_suspicion` models the detector's false
positives — a live process reported suspect, later cleared.  Detection
latency, per-target notification loss and false-suspicion survival all
become measurable.  ``detector=None`` (the default) keeps the oracle path
byte-identical.

Substitute election (Algorithm 1 line 19) is deterministic: the lowest
replica index still alive for the failed rank.  Every process computes the
same answer from the same notification without extra communication.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import floor
from typing import Callable, Dict, List, Optional, Set, Tuple

from repro.core.worlds import ReplicaMap
from repro.network.fabric import Fabric
from repro.sim.kernel import Simulator

__all__ = ["MembershipService", "DetectorConfig", "elect_substitute"]


@dataclass(frozen=True)
class DetectorConfig:
    """Imperfect heartbeat failure detector (opt-in).

    Every process is assumed to heartbeat the detector each
    ``heartbeat_period`` seconds.  A crash at time *t* is *declared* once
    ``suspicion_threshold`` consecutive heartbeats have been missed and a
    further ``timeout`` has elapsed — analytically::

        declare(t) = (floor(t / period) + 1 + (threshold - 1)) * period + timeout

    Declaration then fans out per live target; each delivery attempt is
    lost with probability ``notify_drop_p`` (drawn from the membership rng
    stream) and retried up to ``notify_attempts`` times, ``notify_backoff``
    apart.  A target whose every attempt is lost never learns of the crash
    — that pathology is recorded in ``notify_failures``, not hidden.
    """

    heartbeat_period: float = 25e-6
    timeout: float = 50e-6
    suspicion_threshold: int = 2
    notify_attempts: int = 3
    notify_backoff: float = 5e-6
    notify_drop_p: float = 0.0

    def __post_init__(self) -> None:
        if self.heartbeat_period <= 0.0:
            raise ValueError(f"heartbeat_period must be positive, got {self.heartbeat_period}")
        if self.timeout < 0.0:
            raise ValueError(f"timeout must be non-negative, got {self.timeout}")
        if self.suspicion_threshold < 1:
            raise ValueError(f"suspicion_threshold must be >= 1, got {self.suspicion_threshold}")
        if self.notify_attempts < 1:
            raise ValueError(f"notify_attempts must be >= 1, got {self.notify_attempts}")
        if self.notify_backoff < 0.0:
            raise ValueError(f"notify_backoff must be non-negative, got {self.notify_backoff}")
        if not (0.0 <= self.notify_drop_p < 1.0):
            raise ValueError(f"notify_drop_p must be in [0, 1), got {self.notify_drop_p}")

    def declare_at(self, crash_time: float) -> float:
        """Virtual time at which a crash at *crash_time* is declared."""
        missed = floor(crash_time / self.heartbeat_period) + self.suspicion_threshold
        return missed * self.heartbeat_period + self.timeout


def elect_substitute(rmap: ReplicaMap, rank: int, alive: Callable[[int], bool]) -> Optional[int]:
    """Lowest alive replica index of *rank*, or None if all replicas died."""
    for rep in range(rmap.degree):
        if alive(rmap.phys(rank, rep)):
            return rep
    return None


class MembershipService:
    """Job-wide crash bookkeeping + per-process notification fan-out."""

    def __init__(
        self,
        sim: Simulator,
        fabric: Fabric,
        rmap: ReplicaMap,
        detection_delay: float = 10e-6,
        detector: Optional[DetectorConfig] = None,
        rng=None,
    ) -> None:
        self.sim = sim
        self.fabric = fabric
        self.rmap = rmap
        self.detection_delay = detection_delay
        #: opt-in imperfect detector; ``None`` keeps the instant oracle
        self.detector = detector
        #: dedicated numpy Generator for notification-loss draws (required
        #: when ``detector.notify_drop_p > 0``)
        self.rng = rng
        self.failed: List[int] = []
        #: ranks whose every replica has failed (application is lost)
        self.lost_ranks: Set[int] = set()
        self.on_rank_lost: List[Callable[[int], None]] = []
        #: live processes currently reported suspect by the detector
        self.suspected: Set[int] = set()
        #: detector observability: crash → declaration latency per victim,
        #: (proc, at) false suspicions injected, notification bookkeeping
        self.detection_latency: Dict[int, float] = {}
        self.false_suspicions: List[Tuple[int, float]] = []
        self.notify_attempts_made = 0
        self.notify_drops = 0
        #: (target, failed_proc) pairs where every delivery attempt was
        #: lost — the target never learns of the crash
        self.notify_failures: List[Tuple[int, int]] = []
        #: sharded-parallel filter (:mod:`repro.sim.shard`): when set, the
        #: oracle's notification fan-out schedules callbacks only for
        #: targets in this set.  A crash is replayed in *every* shard (the
        #: bookkeeping above must agree globally), but each svc delivery
        #: must fire exactly once — in the shard that owns the target.
        #: ``None`` (serial) notifies every live process.
        self.local_procs: Optional[Set[int]] = None
        fabric.on_crash.append(self._on_crash)

    def is_alive(self, proc: int) -> bool:
        return self.fabric.endpoints[proc].alive

    def alive_replicas(self, rank: int) -> List[int]:
        return [p for p in self.rmap.replicas_of(rank) if self.is_alive(p)]

    def substitute_rep(self, rank: int) -> Optional[int]:
        # Suspected replicas are not electable: a speculative failover that
        # elected the suspect itself would be a no-op, and a real failover
        # must not route duties to a process the detector distrusts.  With
        # the oracle detector `suspected` is always empty.
        if not self.suspected:
            return elect_substitute(self.rmap, rank, self.is_alive)
        return elect_substitute(
            self.rmap, rank, lambda p: self.is_alive(p) and p not in self.suspected
        )

    def crash(self, proc: int) -> None:
        """Inject a fail-stop crash (used by fault schedules)."""
        self.fabric.crash(proc)  # triggers _on_crash via the fabric listener

    def _on_crash(self, proc: int) -> None:
        self.failed.append(proc)
        self.suspected.discard(proc)  # a suspect that dies is a true positive
        rank = self.rmap.rank_of(proc)
        if not self.alive_replicas(rank):
            self.lost_ranks.add(rank)
            for cb in list(self.on_rank_lost):
                cb(rank)
        # Notify every live process.  Delivery is a service frame straight
        # into the endpoint (the detector is not an MPI peer), handled at
        # the victim's next MPI call.  The instant oracle notifies after a
        # fixed detection_delay; the imperfect detector only declares after
        # missed heartbeats + timeout, and each per-target delivery can be
        # lost and retried with backoff.
        detector = self.detector
        now = self.sim.now
        if detector is None:
            when = now + self.detection_delay
            fabric = self.fabric
            local = self.local_procs
            for p, ep in enumerate(fabric.endpoints):
                if p != proc and ep.alive and (local is None or p in local):
                    self.sim.call_at(
                        when,
                        lambda ep=ep, proc=proc: ep.deliver(
                            fabric.acquire("svc", -1, ep.proc, 0, data=proc, ctrl_key="failure")
                        ),
                    )
            return
        declare = detector.declare_at(now)
        self.detection_latency[proc] = declare - now
        for p, ep in enumerate(self.fabric.endpoints):
            if p != proc and ep.alive:
                self._notify(ep, ("failure", proc), declare)

    def _notify(self, ep, payload: tuple, when: float) -> None:
        """Deliver *payload* to *ep* at *when*, retrying per DetectorConfig.

        Attempt outcomes are drawn *now* (schedule time) from the dedicated
        membership rng stream, in deterministic target order — the schedule
        of a seeded campaign is reproducible from the seed alone.  Only the
        first surviving attempt is scheduled; a target whose every attempt
        is lost is recorded in :attr:`notify_failures`.
        """
        detector = self.detector
        fabric = self.fabric
        drop_p = detector.notify_drop_p
        for attempt in range(detector.notify_attempts):
            self.notify_attempts_made += 1
            if drop_p > 0.0 and self.rng.random() < drop_p:
                self.notify_drops += 1
                continue
            self.sim.call_at(
                when + attempt * detector.notify_backoff,
                lambda ep=ep, payload=payload: ep.deliver(
                    fabric.acquire("svc", -1, ep.proc, 0, data=payload[1], ctrl_key=payload[0])
                ),
            )
            return
        self.notify_failures.append((ep.proc, payload[1]))

    def inject_suspicion(self, proc: int, clear_after: Optional[float] = None) -> None:
        """False positive: report live *proc* suspect to every other live
        process now; optionally clear the suspicion *clear_after* seconds
        later.  Suspect/clear notifications ride the same unreliable
        delivery path as failure declarations.  No-op if *proc* is already
        dead (that is a true positive, handled by :meth:`_on_crash`).
        """
        if self.detector is None:
            raise RuntimeError("inject_suspicion requires an imperfect detector (DetectorConfig)")
        if not self.is_alive(proc):
            return
        now = self.sim.now
        self.suspected.add(proc)
        self.false_suspicions.append((proc, now))
        for p, ep in enumerate(self.fabric.endpoints):
            if p != proc and ep.alive:
                self._notify(ep, ("suspect", proc), now)
        if clear_after is not None:
            self.sim.call_at(now + clear_after, lambda proc=proc: self.clear_suspicion(proc))

    def clear_suspicion(self, proc: int) -> None:
        """The detector retracts its suspicion of *proc* (still alive)."""
        if proc not in self.suspected:
            return
        self.suspected.discard(proc)
        if not self.is_alive(proc):
            return
        now = self.sim.now
        for p, ep in enumerate(self.fabric.endpoints):
            if p != proc and ep.alive:
                self._notify(ep, ("clear", proc), now)

    def announce_recovery(self, proc: int) -> None:
        """Re-admit a respawned physical process (recovery, §3.4).

        Only fabric-level revival; the protocol-level notification is
        broadcast by the substitute over FIFO channels, as the paper
        requires — see :mod:`repro.core.recovery`.
        """
        self.fabric.revive(proc)
        if proc in self.failed:
            self.failed.remove(proc)
        self.suspected.discard(proc)
        self.lost_ranks.discard(self.rmap.rank_of(proc))
