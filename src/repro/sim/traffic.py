"""Open-loop client-traffic engine: seeded arrivals, admission, skew.

Every workload before this module was *closed-loop*: each rank generates
its next message only after the previous one completed, so the offered
load adapts to however slow the cluster happens to be.  The service the
ROADMAP asks the replicated cluster to front is the opposite — an
*open-loop* population of clients submits requests at a rate the cluster
does not control, and the interesting questions are exactly the ones a
closed loop cannot ask: how many requests were **admitted**, how many
were **rejected** at a bounded queue, and how many admitted requests the
cluster **lost** when replicas failed mid-epoch.

The engine follows the geods-analyze client-node shape (SNIPPETS.md
Snippet 1): each logical rank doubles as a clock-skewed client that
accumulates arrivals in a bounded per-epoch admission queue and submits
the batch at its local epoch boundary.  Determinism is structural, not
incidental:

* arrivals are drawn at **bind time** from dedicated
  :class:`~repro.sim.rng.RngRegistry` streams (``traffic.skew`` plus one
  ``traffic.arrivals.<rank>`` stream per client), so the whole offered
  timeline is a pure function of ``(seed, TrafficConfig, n_ranks)`` and
  never consumes draws from the engine's jitter/fault streams;
* admission is computed **arithmetically** from the sampled arrival
  times (first ``queue_capacity`` arrivals per epoch window admitted,
  the rest rejected) — not from simulated queue timing — so the batch a
  replica submits is identical across replicas and across serial vs
  pooled sweep execution (send-determinism, Definition 1, survives);
* clock skew shifts where a client's sampling window sits on the global
  rate profile (a skewed client sees a shifted burst phase), which is
  observable in the arrival counts yet still seed-deterministic.

What stays *simulated* is the commit path: each epoch batch rides one
sum-allreduce through the replicated protocol under test, with a recovery
point per epoch, and the :class:`TrafficBook` marks an epoch completed
only when some replica of the rank finishes it.  Crash a rank's every
replica and its admitted-but-uncommitted requests surface as
``requests_lost`` — the open-loop loss accounting the closed-form balance
``offered == admitted + rejected`` and ``admitted == completed + lost``
audits on every run.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import lru_cache
from typing import Dict, List, Tuple

from repro.sim.rng import RngRegistry

__all__ = [
    "ARRIVAL_PROCESSES",
    "TrafficError",
    "TrafficConfig",
    "ClientPlan",
    "TrafficBook",
    "TrafficState",
    "build_plans",
    "open_loop_app",
    "expected_traffic_results",
    "scaled_config",
]

#: supported arrival-process shapes (the ``process`` knob)
ARRIVAL_PROCESSES: Tuple[str, ...] = ("poisson", "bursty", "diurnal")


class TrafficError(ValueError):
    """Invalid traffic configuration — raised at build time."""


@dataclass(frozen=True)
class TrafficConfig:
    """Knobs of one open-loop client population.

    ``rate`` is the *mean* arrival rate per client in requests per
    virtual second; the non-Poisson processes modulate an instantaneous
    rate around it (bursty on/off square wave, diurnal sinusoid) while
    preserving that mean.  ``epoch``/``epochs`` define the batching
    grid; a scenario binding ties them to the campaign's ``steps`` and
    ``active`` window so faults land under live traffic.
    """

    process: str = "poisson"
    #: mean arrivals per client per virtual second
    rate: float = 3.2e6
    #: epoch (batch) length in virtual seconds
    epoch: float = 5e-6
    #: number of epochs each client submits
    epochs: int = 12
    #: bounded admission queue: max requests admitted per epoch window
    queue_capacity: int = 12
    #: stddev of the per-client clock skew (seconds)
    skew_sigma: float = 5e-7
    #: bursty: on-phase fraction of each burst period
    burst_duty: float = 0.5
    #: bursty: burst period, in epochs
    burst_period_epochs: float = 4.0
    #: bursty: on-rate / off-rate ratio (mean rate is preserved)
    burst_ratio: float = 8.0
    #: diurnal: relative amplitude of the sinusoidal profile (0..1)
    diurnal_amplitude: float = 0.9
    #: diurnal: profile period, in epochs
    diurnal_period_epochs: float = 12.0

    def validate(self) -> "TrafficConfig":
        if self.process not in ARRIVAL_PROCESSES:
            raise TrafficError(
                f"unknown arrival process {self.process!r}; have {ARRIVAL_PROCESSES}"
            )
        if not self.rate > 0:
            raise TrafficError(f"rate must be > 0, got {self.rate}")
        if not self.epoch > 0:
            raise TrafficError(f"epoch must be > 0, got {self.epoch}")
        if self.epochs < 1:
            raise TrafficError(f"epochs must be >= 1, got {self.epochs}")
        if self.queue_capacity < 1:
            raise TrafficError(
                f"queue_capacity must be >= 1, got {self.queue_capacity}"
            )
        if self.skew_sigma < 0:
            raise TrafficError(f"skew_sigma must be >= 0, got {self.skew_sigma}")
        if not 0 < self.burst_duty < 1:
            raise TrafficError(f"burst_duty must be in (0, 1), got {self.burst_duty}")
        if self.burst_ratio < 1 or self.burst_period_epochs <= 0:
            raise TrafficError("bursty profile needs burst_ratio >= 1 and a positive period")
        if not 0 <= self.diurnal_amplitude < 1 or self.diurnal_period_epochs <= 0:
            raise TrafficError(
                "diurnal profile needs 0 <= amplitude < 1 and a positive period"
            )
        return self

    # ------------------------------------------------------- rate profile
    def peak_rate(self) -> float:
        """Upper bound of the instantaneous rate (thinning envelope)."""
        if self.process == "bursty":
            return self._burst_rates()[0]
        if self.process == "diurnal":
            return self.rate * (1.0 + self.diurnal_amplitude)
        return self.rate

    def _burst_rates(self) -> Tuple[float, float]:
        """(on, off) rates preserving the configured mean."""
        duty, ratio = self.burst_duty, self.burst_ratio
        off = self.rate / (duty * ratio + (1.0 - duty))
        return ratio * off, off

    def rate_at(self, t: float) -> float:
        """Instantaneous arrival rate at global time *t*."""
        if self.process == "bursty":
            on, off = self._burst_rates()
            period = self.burst_period_epochs * self.epoch
            return on if (t % period) < self.burst_duty * period else off
        if self.process == "diurnal":
            period = self.diurnal_period_epochs * self.epoch
            return self.rate * (
                1.0 + self.diurnal_amplitude * math.sin(2.0 * math.pi * t / period)
            )
        return self.rate


@dataclass(frozen=True)
class ClientPlan:
    """One client's precomputed, seed-deterministic traffic timeline."""

    rank: int
    #: this client's clock offset from global time (seconds)
    skew: float
    #: arrivals per epoch window, on the client's local clock
    offered: Tuple[int, ...]
    #: admitted per epoch: ``min(offered, queue_capacity)``
    admitted: Tuple[int, ...]
    #: rejected per epoch: admission-queue overflow
    rejected: Tuple[int, ...]


def build_plans(cfg: TrafficConfig, n_ranks: int, seed: int) -> List[ClientPlan]:
    """Sample every client's arrival/admission plan from *seed*.

    Thinning (Lewis) against the profile's peak rate: candidate arrivals
    come from a homogeneous Poisson process at ``peak_rate`` on the
    client's local clock, each kept with probability
    ``rate_at(local + skew) / peak``.  The Poisson process accepts every
    candidate but consumes the same draw, so the three profiles share one
    draw discipline.  Per-client RNG streams keep one client's plan
    independent of every other's.

    Memoised on its (frozen) arguments: a sweep binds the same population
    once per protocol and fault mix, and the plans are immutable.
    """
    return list(_sample_plans(cfg, n_ranks, seed))


@lru_cache(maxsize=32)
def _sample_plans(cfg: TrafficConfig, n_ranks: int, seed: int) -> Tuple[ClientPlan, ...]:
    cfg.validate()
    if n_ranks < 1:
        raise TrafficError(f"n_ranks must be >= 1, got {n_ranks}")
    registry = RngRegistry(seed)
    skew_rng = registry.stream("traffic.skew")
    window = cfg.epochs * cfg.epoch
    peak = cfg.peak_rate()
    plans: List[ClientPlan] = []
    for rank in range(n_ranks):
        skew = float(skew_rng.normal(0.0, cfg.skew_sigma)) if cfg.skew_sigma else 0.0
        rng = registry.stream(f"traffic.arrivals.{rank}")
        offered = [0] * cfg.epochs
        t = float(rng.exponential(1.0 / peak))
        while t < window:
            if float(rng.random()) * peak < cfg.rate_at(t + skew):
                offered[min(int(t / cfg.epoch), cfg.epochs - 1)] += 1
            t += float(rng.exponential(1.0 / peak))
        admitted = [min(o, cfg.queue_capacity) for o in offered]
        rejected = [o - a for o, a in zip(offered, admitted)]
        plans.append(
            ClientPlan(
                rank=rank,
                skew=skew,
                offered=tuple(offered),
                admitted=tuple(admitted),
                rejected=tuple(rejected),
            )
        )
    return tuple(plans)


class TrafficBook:
    """Request ledger one job's clients share: offered/admitted/rejected
    are fixed by the plans at bind time; ``completed`` advances as some
    replica of each rank commits an epoch (monotone max, so replicas and
    recovery forks record idempotently); ``lost`` is the admitted
    remainder the cluster never committed."""

    def __init__(self, plans: List[ClientPlan]) -> None:
        self.plans = list(plans)
        self._committed: Dict[int, int] = {p.rank: 0 for p in self.plans}

    def commit(self, rank: int, epochs_done: int) -> None:
        if self._committed[rank] < epochs_done:
            self._committed[rank] = epochs_done

    def committed_epochs(self, rank: int) -> int:
        return self._committed[rank]

    def totals(self) -> Dict[str, int]:
        offered = sum(sum(p.offered) for p in self.plans)
        admitted = sum(sum(p.admitted) for p in self.plans)
        rejected = sum(sum(p.rejected) for p in self.plans)
        completed = sum(
            sum(p.admitted[: self._committed[p.rank]]) for p in self.plans
        )
        return {
            "requests_offered": offered,
            "requests_admitted": admitted,
            "requests_rejected": rejected,
            "requests_completed": completed,
            "requests_lost": admitted - completed,
        }

    def audit(self) -> None:
        """Zero-loss-of-accounting balance (mirrors the arena audit)."""
        t = self.totals()
        assert t["requests_offered"] == t["requests_admitted"] + t["requests_rejected"], (
            f"traffic book imbalance: offered {t['requests_offered']} != "
            f"admitted {t['requests_admitted']} + rejected {t['requests_rejected']}"
        )
        assert t["requests_completed"] + t["requests_lost"] == t["requests_admitted"], (
            f"traffic book imbalance: completed {t['requests_completed']} + "
            f"lost {t['requests_lost']} != admitted {t['requests_admitted']}"
        )
        assert t["requests_lost"] >= 0, (
            f"traffic book overcommit: lost {t['requests_lost']} < 0"
        )


class TrafficState:
    """Snapshot/restore-able client state (recovery support, §3.4)."""

    def __init__(self) -> None:
        self.step = 0
        self.acc = 0.0


def open_loop_app(mpi, book: TrafficBook, service: float = 2.5e-7, state=None):
    """Per-rank client: submit each epoch's admitted batch via one
    sum-allreduce (the commit round every replica must agree on), mark
    the epoch committed in the shared book, and model the service time
    proportionally to the batch size.  The per-epoch recovery point lets
    a respawned replica fork mid-timeline without re-committing."""
    st = state or TrafficState()
    mpi.register_state(st)
    plan = book.plans[mpi.rank]
    epochs = len(plan.admitted)
    while st.step < epochs:
        batch = plan.admitted[st.step]
        total = yield from mpi.allreduce(float(batch), op="sum")
        st.acc += float(total)
        st.step += 1
        book.commit(mpi.rank, st.step)
        yield from mpi.recovery_point()
        yield from mpi.compute(service * batch + 1e-7)
    return st.acc


def expected_traffic_results(plans: List[ClientPlan]) -> Dict[int, float]:
    """Closed-form per-rank return value of :func:`open_loop_app` on a
    fault-free run: every epoch's global admitted total, accumulated.
    Batch counts are small integers, so the float sums are exact in any
    reduction order."""
    epochs = len(plans[0].admitted) if plans else 0
    acc = 0.0
    for e in range(epochs):
        acc += float(sum(p.admitted[e] for p in plans))
    return {p.rank: acc for p in plans}


def scaled_config(base: TrafficConfig, steps: int, active: float) -> TrafficConfig:
    """Fit *base* onto a campaign's batching grid: ``steps`` epochs
    spanning the campaign's fault-active window, so the seeded fault mixes
    land while clients are live."""
    if steps < 1 or not active > 0:
        raise TrafficError(f"need steps >= 1 and active > 0, got {steps}/{active}")
    return replace(base, epochs=steps, epoch=active / steps)
