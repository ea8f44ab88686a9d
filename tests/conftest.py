"""Shared fixtures and helpers for the test suite."""

from __future__ import annotations

import functools
import json
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional

import numpy as np
import pytest
from hypothesis import settings

from repro.core.config import ReplicationConfig
from repro.harness.runner import Job, JobResult, cluster_for
from repro.mpi.datatypes import Phantom
from repro.mpi.errors import DeadlockError
from repro.network.topology import Cluster

# One profile, no switch: every ``@given`` test draws the same examples on
# every run, and no failing example persists in ``.hypothesis/`` between runs
# — tier-1 is the same test each time.
settings.register_profile("tier1", derandomize=True, database=None)
settings.load_profile("tier1")

PROTOCOLS = ["native", "sdr", "mirror", "leader", "redmpi"]

def make_job(
    protocol: str = "native",
    n: int = 4,
    degree: int = 2,
    cluster: Optional[Cluster] = None,
    **kwargs: Any,
) -> Job:
    """A native job, or *protocol* at replication *degree*, on the smallest
    paper-shaped cluster that fits it."""
    if protocol == "native":
        cfg = ReplicationConfig(degree=1, protocol="native")
    else:
        cfg = ReplicationConfig(degree=degree, protocol=protocol)
    return Job(n, cfg=cfg, cluster=cluster or cluster_for(n, cfg.degree), **kwargs)


def run_app(
    app: Callable[..., Any],
    n_ranks: int,
    protocol: str = "native",
    degree: int = 2,
    cluster: Optional[Cluster] = None,
    crash: Optional[tuple] = None,
    seed: int = 0,
    **kwargs: Any,
) -> JobResult:
    """One-line job runner used throughout the tests."""
    job = make_job(protocol, n_ranks, degree=degree, cluster=cluster, seed=seed)
    job.launch(app, **kwargs)
    if crash is not None:
        rank, rep, at = crash
        job.crash(rank, rep, at=at)
    return job.run()


# ------------------------------------------------------- engine fingerprints
_FABRIC_BALANCE = ("frames_acquired", "frames_released", "frames_stranded")


def norm(value: Any) -> Any:
    """Comparable form of an app result (numpy arrays → nested lists)."""
    if isinstance(value, np.ndarray):
        return ("ndarray", value.dtype.str, value.tolist())
    if isinstance(value, (list, tuple)):
        return [norm(v) for v in value]
    return value


def fingerprint(res: JobResult) -> Dict[str, Any]:
    """The engine fingerprint the equivalence suites compare: per-proc
    results, bit-identical virtual and finish times, dispatched-event and
    frame counts, strand attribution, the message balance, and every
    protocol/PML counter summed over the processes."""
    totals: Dict[str, int] = {}
    for stats in res.stats.values():
        for key, value in stats.items():
            if isinstance(value, int):
                totals[key] = totals.get(key, 0) + value
    return {
        "results": {proc: norm(v) for proc, v in sorted(res.app_results.items())},
        "runtime": repr(res.runtime),
        "finish": {p: repr(t) for p, t in sorted(res.finish_times.items())},
        "events": res.events,
        "frames": res.fabric["frames"],
        "bytes": res.fabric["bytes"],
        "by_kind": dict(sorted(res.fabric["by_kind"].items())),
        "unexpected": totals.get("unexpected_count", 0),
        "acks": totals.get("acks_sent", 0),
        "stranded": dict(sorted(res.stranded_by_site.items())),
        "stats": dict(sorted(totals.items())),
        "fabric": {key: res.fabric[key] for key in _FABRIC_BALANCE},
    }


def run_fingerprint(job: Job, **run_kwargs: Any) -> Any:
    """Fingerprint of ``job.run()``.  A wedged run fingerprints as its
    blocked-process set, and its arenas must still balance."""
    try:
        return fingerprint(job.run(**run_kwargs))
    except DeadlockError as err:
        job._assert_arenas_balanced()
        return ["deadlock", sorted(err.blocked.items())]


# ------------------------------------------------------------- corpus apps
def mixed_p2p(mpi, rounds, anonymous, tagset):
    """Eager p2p with optional wildcards: matched, unexpected and reorder
    paths — dense same-timestamp batches of completions and wake-ups."""
    acc = 0.0
    if mpi.rank == 0:
        for r in range(rounds):
            for _ in range(mpi.size - 1):
                src = mpi.ANY_SOURCE if anonymous else (_ % (mpi.size - 1)) + 1
                d, st_ = yield from mpi.recv(source=src, tag=tagset[r % len(tagset)])
                acc += float(d[0])
            for dst in range(1, mpi.size):
                yield from mpi.send(np.array([acc]), dest=dst, tag=tagset[r % len(tagset)])
    else:
        for r in range(rounds):
            yield from mpi.send(
                np.array([float(mpi.rank + r)]), dest=0, tag=tagset[r % len(tagset)]
            )
            d, _ = yield from mpi.recv(source=0, tag=tagset[r % len(tagset)])
            acc = float(d[0])
    return acc


def rendezvous_ring(mpi, iters, nbytes):
    """Modeled large payloads force the rts/cts/data handshake + a collective."""
    right = (mpi.rank + 1) % mpi.size
    left = (mpi.rank - 1) % mpi.size
    acc = 0.0
    for _ in range(iters):
        yield from mpi.sendrecv(Phantom(nbytes), dest=right, source=left, sendtag=5)
        acc += float((yield from mpi.allreduce(float(mpi.rank), op="sum")))
    return acc


def collective_mix(mpi, iters):
    acc = 0.0
    for it in range(iters):
        root = it % mpi.size
        data = yield from mpi.bcast(np.arange(4, dtype=np.float64) + it, root=root)
        acc += float(data[0])
        acc += float((yield from mpi.allreduce(float(mpi.rank + it), op="max")))
        gathered = yield from mpi.gather(mpi.rank + it, root=root)
        acc += float((yield from mpi.scatter(gathered if mpi.rank == root else None, root=root)))
    return acc


def mixed_traffic(mpi, rounds=3, nbytes=65536):
    """Eager p2p + ANY_SOURCE + rendezvous Phantoms + collectives: every
    path the memory layers touch (Phantom payloads, bursty arena use,
    wildcard match lanes, shared cost rows and protocol config)."""
    right = (mpi.rank + 1) % mpi.size
    left = (mpi.rank - 1) % mpi.size
    acc = 0.0
    for r in range(rounds):
        yield from mpi.sendrecv(Phantom(nbytes), dest=right, source=left, sendtag=1)
        if mpi.rank == 0:
            for _ in range(mpi.size - 1):
                d, _st = yield from mpi.recv(source=mpi.ANY_SOURCE, tag=2)
                acc += float(d[0])
        else:
            yield from mpi.send(np.array([float(mpi.rank + r)]), dest=0, tag=2)
        acc += float((yield from mpi.allreduce(float(mpi.rank), op="sum")))
        yield from mpi.compute(1e-6)
    return acc


def _status_obs(status):
    return None if status is None else (status.source, status.tag, status.nbytes)


def waiter_fanin(mpi, which, delays, per_peer):
    """Rank 0 posts ANY_SOURCE receives (plus sends back), then completes
    them through the wait call *which* names; peers send after per-sender
    compute delays, which set the completion order rank 0 observes."""
    if mpi.rank != 0:
        d = delays[(mpi.rank - 1) % len(delays)]
        for i in range(per_peer):
            yield from mpi.compute(d * 1e-6)
            yield from mpi.send(np.array([float(mpi.rank * 100 + i)]), dest=0, tag=7)
        got, _st = yield from mpi.recv(source=0, tag=8)
        return float(got[0])
    handles = []
    for _ in range(per_peer * (mpi.size - 1)):
        h = yield from mpi.irecv(source=mpi.ANY_SOURCE, tag=7)
        handles.append(h)
    # Mixed handle kinds: the farewell sends complete through the same loop.
    for dst in range(1, mpi.size):
        s = yield from mpi.isend(np.array([float(dst)]), dest=dst, tag=8)
        handles.append(s)
    obs = []
    if which == "waitall":
        statuses = yield from mpi.waitall(handles)
        obs.append([_status_obs(s) for s in statuses])
    elif which == "waitsome":
        pending = list(range(len(handles)))
        while pending:
            done = yield from mpi.waitsome([handles[i] for i in pending])
            got = {i for i, _s in done}
            obs.append(sorted((pending[i], _status_obs(s)) for i, s in done))
            pending = [p for j, p in enumerate(pending) if j not in got]
    else:  # waitany
        pending = list(range(len(handles)))
        while pending:
            i, s = yield from mpi.waitany([handles[p] for p in pending])
            obs.append((pending[i], _status_obs(s)))
            pending.pop(i)
    data = sorted(float(h.data[0]) for h in handles[: per_peer * (mpi.size - 1)])
    return (obs, data)


def run_traffic(job: Job, rounds: int = 3, crash_at: Optional[float] = None) -> Any:
    """``mixed_traffic`` with an optional fail-stop of replica 1 of rank 1."""
    job.launch(mixed_traffic, rounds=rounds)
    if crash_at is not None:
        job.crash(1, 1, at=crash_at)
    return run_fingerprint(job)


def _run_failover(job: Job, crash_us: int) -> Any:
    job.launch(mixed_p2p, rounds=3, anonymous=True, tagset=(1, 2))
    job.crash(1, 1, at=crash_us * 1e-6)
    return run_fingerprint(job, allow_lost_ranks=True)


#: corpus line kind -> ``run(job, **params)`` returning the fingerprint
CORPUS_RUNS: Dict[str, Callable[..., Any]] = {
    "p2p": lambda job, rounds, anonymous, tagset: run_fingerprint(
        job.launch(mixed_p2p, rounds=rounds, anonymous=anonymous, tagset=tuple(tagset))
    ),
    "rendezvous": lambda job, iters, nbytes: run_fingerprint(
        job.launch(rendezvous_ring, iters=iters, nbytes=nbytes)
    ),
    "collectives": lambda job, iters: run_fingerprint(job.launch(collective_mix, iters=iters)),
    "failover": _run_failover,
    "traffic": run_traffic,
    "wait": lambda job, which, delays, per_peer: run_fingerprint(
        job.launch(waiter_fanin, which=which, delays=delays, per_peer=per_peer)
    ),
}


# ------------------------------------------------------- recorded corpora
@functools.lru_cache(maxsize=None)
def load_corpus(name: str) -> List[dict]:
    """``tests/data/<name>``: one ``{kind, protocol, n, params, fingerprint}``
    line (plus ``degree`` where it is not 2) per configuration, recorded
    from a predecessor engine (parsed once per session; read-only)."""
    return [json.loads(line) for line in (Path(__file__).parent / "data" / name).open()]


def _without_envelope_arena(section: Dict[str, Any]) -> Dict[str, Any]:
    """A recorded ``stats``/``fabric`` section minus the envelope-arena
    counters (``env_*``, ``envs_*``): one object per message deleted the
    per-PML envelope pools and their duplication counter, so the engine no
    longer reports them.  The frame balance beside them is compared as
    recorded."""
    return {key: value for key, value in section.items() if not key.startswith(("env_", "envs_"))}


def assert_matches_corpus(
    corpus: List[dict], kind: str, spec: str, where: Callable[[dict], bool] = lambda case: True
) -> None:
    """Every recorded *kind* line admitted by *where*: the one engine must
    reproduce the fingerprint *spec* left behind, on exactly the keys the
    corpus recorded (compared in the corpus's JSON form)."""
    cases = [c for c in corpus if c["kind"] == kind and where(c)]
    assert cases, f"no such {kind} lines in the corpus"
    for case in cases:
        job = make_job(case["protocol"], case["n"], degree=case.get("degree", 2))
        got = CORPUS_RUNS[kind](job, **case["params"])
        got, want = json.loads(json.dumps(got)), case["fingerprint"]
        if isinstance(want, dict) and isinstance(got, dict):
            for key in ("stats", "fabric"):
                if key in want:
                    want = {**want, key: _without_envelope_arena(want[key])}
            got = {key: got[key] for key in want}
        assert got == want, (
            f"engine diverged from the recorded {spec} "
            f"({kind}, {case['protocol']}, n={case['n']}, degree={case.get('degree', 2)}, {case['params']})"
        )


class DeliverSpy:
    """Proxy standing in for a protocol's (slotted) Pml in filter tests.

    ``Pml`` has ``__slots__``, so tests can no longer monkeypatch
    ``deliver_to_matching`` on the instance; rebinding ``proto.pml`` to
    this proxy reroutes delivery while forwarding everything else."""

    def __init__(self, pml: Any, fake_deliver: Callable[[Any], Any]) -> None:
        self._pml = pml
        self.deliver_to_matching = fake_deliver

    def __getattr__(self, name: str) -> Any:
        return getattr(self._pml, name)


@pytest.fixture
def sim():
    from repro.sim.kernel import Simulator

    return Simulator()
