"""Definition 1, operationally.

    An algorithm A is send-deterministic if, for a fixed initial state,
    every execution produces the same per-process sub-sequence of send
    events.

We cannot enumerate all executions, so we sample: replay the application
several times under perturbed message timing (random arrival jitter drawn
from differently-seeded streams).  Jitter changes arrival interleavings,
which flips the outcomes of ANY_SOURCE matches, MPI_Test polls and Waitany
races — precisely the internal non-determinism send-deterministic
applications must tolerate without externally visible divergence.

The checker is used two ways:

* positively, on the paper's workloads (NAS kernels, HPCCG, CM1 — all
  SPMD and send-deterministic per [Cappello et al. 2010]);
* negatively, on the master-worker pattern
  (:func:`repro.apps.patterns.master_worker`), the canonical
  non-send-deterministic counterexample from the same study.

Sends are captured on the kernel's ``trace_hook`` (:func:`capture_sends`).
In a native job each application send is one ``Pml.post_send``: it stamps
the envelope with the PML's next ``msg_id`` and puts one ``eager`` or
``rts`` frame on the wire.  The hook copies scalar fields out of that
frame's envelope (borrowed, never held), and sorting a process's sends by
``msg_id`` gives posting order, whatever order the jittered wire delivered
them in.  A send is ``(ctx, src_rank, world_dst, tag, nbytes)`` — *not*
its time, which legitimately varies across correct executions.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.harness.runner import Job, cluster_for
from repro.network.fabric import Frame
from repro.network.topology import Cluster
from repro.sim.rng import RngRegistry

__all__ = ["DeterminismReport", "capture_sends", "check_send_determinism"]

#: the frame an application send puts on the wire: eager, or a rendezvous request
_SEND_FRAMES = ("eager", "rts")


@dataclass
class DeterminismReport:
    """Outcome of a sampled send-determinism check."""

    send_deterministic: bool
    replays: int
    #: (proc, first differing send index, baseline key, divergent key)
    divergences: List[Tuple[int, int, Any, Any]] = field(default_factory=list)
    #: per-replay per-proc sequence lengths (diagnostics)
    lengths: List[Dict[int, int]] = field(default_factory=list)

    def __bool__(self) -> bool:  # truthy iff deterministic
        return self.send_deterministic


def capture_sends(job: Job) -> Callable[[], Dict[int, List[tuple]]]:
    """Install the send capture on *job*'s ``trace_hook`` (before ``run``).

    Returns the reader: after the run it gives proc -> send keys in posting
    order (S|p of Definition 1), an empty list for a process that never sent.
    """
    by_proc: Dict[int, Dict[int, tuple]] = {proc: {} for proc in job.pmls}

    def hook(_now: float, event: Any) -> None:
        if type(event) is Frame and event.kind in _SEND_FRAMES:
            sends = by_proc[event.src]
            sends[event.msg_id] = (event.ctx, event.src_rank, event.world_dst, event.tag, event.nbytes)

    job.sim.trace_hook = hook
    return lambda: {proc: [by_id[i] for i in sorted(by_id)] for proc, by_id in by_proc.items()}


def _first_divergence(base: List[tuple], other: List[tuple]) -> Optional[Tuple[int, Any, Any]]:
    for i, (a, b) in enumerate(zip(base, other)):
        if a != b:
            return i, a, b
    if len(base) != len(other):
        i = min(len(base), len(other))
        return (
            i,
            base[i] if i < len(base) else "<end>",
            other[i] if i < len(other) else "<end>",
        )
    return None


def check_send_determinism(
    app_factory: Callable[..., Any],
    n_ranks: int,
    replays: int = 4,
    jitter_scale: float = 0.5e-6,
    cluster: Optional[Cluster] = None,
    **app_kwargs: Any,
) -> DeterminismReport:
    """Replay *app_factory* under perturbed timing; compare send sequences.

    Replay 0 runs without jitter (the reference execution); replays 1..n-1
    add exponential arrival jitter from independently seeded streams, so
    *replays* must be at least 2 for the check to compare anything, and
    *n_ranks* at least 1 for a replay to send anything.
    """
    if replays < 2:
        raise ValueError(f"replays must be >= 2 (the reference run plus a perturbed replay), got {replays}")
    sequences: List[Dict[int, List[tuple]]] = []
    lengths: List[Dict[int, int]] = []
    for replay in range(replays):
        if replay == 0:
            jitter = None
        else:
            rng = RngRegistry(seed=1000 + replay).stream("net.jitter")
            jitter = lambda rng=rng: float(rng.exponential(jitter_scale))
        job = Job(
            n_ranks,
            cluster=cluster or cluster_for(n_ranks),
            jitter=jitter,
        )
        read_sends = capture_sends(job)
        job.launch(app_factory, **app_kwargs).run()
        seqs = read_sends()
        sequences.append(seqs)
        lengths.append({p: len(s) for p, s in seqs.items()})

    base = sequences[0]
    divergences: List[Tuple[int, int, Any, Any]] = []
    for replay_seqs in sequences[1:]:
        for proc, seq in replay_seqs.items():
            diff = _first_divergence(base[proc], seq)
            if diff is not None:
                divergences.append((proc, diff[0], diff[1], diff[2]))
    return DeterminismReport(
        send_deterministic=not divergences,
        replays=replays,
        divergences=divergences,
        lengths=lengths,
    )
