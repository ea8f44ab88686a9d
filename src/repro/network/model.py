"""Analytic network cost models (LogGP family).

The paper's testbed is InfiniBand-20G (Mellanox ConnectX, 20 Gbps) where
native Open MPI achieves a 1-byte ping-pong latency of 1.67 µs.  The
:class:`InfiniBand20G` preset is calibrated so that:

* native one-way small-message latency  = o_send + L + o_recv = 1.67 µs,
* peak achievable bandwidth            ~ 2.5 GB/s (20 Gbps),
* SDR-MPI's per-message ack adds ~2·o to the small-message critical path,
  reproducing the paper's 2.37 µs replicated 1-byte latency (+42 %) and the
  ">25 % only below 100 B" shape of Fig. 7.

The model decomposes a message transfer into:

* ``send_overhead`` (o_s): CPU busy time on the sender per message,
* ``recv_overhead`` (o_r): CPU busy time on the receiver per frame handled,
* ``latency``       (L)  : wire propagation per frame,
* ``byte_time``     (G)  : serialization seconds per byte (1/bandwidth),

with store-and-forward serialization per ordered channel (a channel cannot
carry two frames at once), which yields LogGP's gap behaviour for streams.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Tuple

__all__ = [
    "NetworkCostModel",
    "LinearCostModel",
    "SharedMemoryModel",
    "InfiniBand20G",
    "LinkFaultWindow",
    "PartitionWindow",
    "FaultPlan",
    "FaultPlanError",
]


@dataclass(frozen=True)
class NetworkCostModel:
    """Base cost model: alpha/beta with explicit CPU overheads.

    All times in seconds, sizes in bytes.
    """

    #: CPU busy time on the sender per injected frame.
    send_overhead: float = 0.35e-6
    #: CPU busy time on the receiver per handled frame.
    recv_overhead: float = 0.35e-6
    #: Wire propagation latency per frame.
    latency: float = 0.97e-6
    #: Serialization time per byte (1 / bandwidth).
    byte_time: float = 1.0 / 2.5e9
    #: Eager/rendezvous switchover used by the PML for this network.
    eager_limit: int = 12 * 1024

    def serialization(self, nbytes: int) -> float:
        """Time the channel is occupied by a frame of *nbytes* payload."""
        return nbytes * self.byte_time

    def one_way(self, nbytes: int) -> float:
        """Analytic uncontended one-way time (diagnostics/calibration)."""
        return self.send_overhead + self.serialization(nbytes) + self.latency + self.recv_overhead


@dataclass(frozen=True)
class LinearCostModel(NetworkCostModel):
    """Plain alpha-beta model with zero CPU overhead (teaching/testing)."""

    send_overhead: float = 0.0
    recv_overhead: float = 0.0
    latency: float = 1.0e-6
    byte_time: float = 1.0 / 1.0e9


@dataclass(frozen=True)
class SharedMemoryModel(NetworkCostModel):
    """Intra-node transfers through shared memory: lower latency, higher bw."""

    send_overhead: float = 0.15e-6
    recv_overhead: float = 0.15e-6
    latency: float = 0.20e-6
    byte_time: float = 1.0 / 5.0e9
    eager_limit: int = 4 * 1024


@dataclass(frozen=True)
class InfiniBand20G(NetworkCostModel):
    """Calibrated to the paper's Grid'5000 Nancy testbed (Fig. 7 natives)."""

    send_overhead: float = 0.35e-6
    recv_overhead: float = 0.35e-6
    latency: float = 0.97e-6
    byte_time: float = 1.0 / 2.5e9
    eager_limit: int = 12 * 1024


# --------------------------------------------------------------- fault model
#
# The paper assumes reliable FIFO channels (§2.1); the fault plan below is
# the *adversary* that assumption is tested against.  A plan is pure data —
# each window checks itself when it is built, the fabric's fault runtime
# interprets it — and every probabilistic decision draws from one seeded
# generator, so a campaign run is reproducible from its seed alone.  An
# empty plan (the default everywhere) leaves the fabric byte-identical to
# the reliable wire.


class FaultPlanError(ValueError):
    """A fault plan that cannot mean anything sensible (bad probability,
    inverted window, empty partition...) — raised at build time, before any
    simulation runs, so a campaign never silently executes a typo."""


@dataclass(frozen=True)
class LinkFaultWindow:
    """Transient link degradation over ``[start, end)``.

    Each frame injected while the window is open (and matching the optional
    node filters) independently suffers:

    * drop with probability ``drop_p`` — the frame is stranded at the
      ``link_drop`` site, its envelope accounted, nothing arrives;
    * duplication with probability ``dup_p`` — a clone (fresh envelope,
      shared copy-on-write payload) is injected right behind the original;
    * a delay spike of ``delay`` seconds added to the arrival time (the
      per-channel FIFO clamp still applies, so ordering survives).

    ``src_nodes``/``dst_nodes`` restrict the window to frames whose source
    / destination *node* is listed; ``None`` means any.  Intra-node traffic
    is subject to the window too when its node matches both filters.
    """

    start: float
    end: float
    drop_p: float = 0.0
    dup_p: float = 0.0
    delay: float = 0.0
    src_nodes: Optional[Tuple[int, ...]] = None
    dst_nodes: Optional[Tuple[int, ...]] = None

    def __post_init__(self) -> None:
        if not (0.0 <= self.start < self.end):
            raise FaultPlanError(
                f"link-fault window must satisfy 0 <= start < end, got [{self.start}, {self.end})"
            )
        for name in ("drop_p", "dup_p"):
            p = getattr(self, name)
            if not (0.0 <= p <= 1.0):
                raise FaultPlanError(f"link-fault {name}={p} outside [0, 1]")
        if self.delay < 0.0:
            raise FaultPlanError(f"link-fault delay={self.delay} is negative")
        if self.drop_p == 0.0 and self.dup_p == 0.0 and self.delay == 0.0:
            raise FaultPlanError("link-fault window with no effect (all of drop_p/dup_p/delay zero)")
        for name in ("src_nodes", "dst_nodes"):
            nodes = getattr(self, name)
            if nodes is not None and (len(nodes) == 0 or any(n < 0 for n in nodes)):
                raise FaultPlanError(f"link-fault {name}={nodes!r} must be a non-empty tuple of node ids")


@dataclass(frozen=True)
class PartitionWindow:
    """Healing network partition over ``[start, end)``.

    ``groups`` are disjoint sets of node ids.  While the window is open,
    inter-group frames are stranded at the ``partition`` site; intra-group
    (and intra-node) traffic flows normally.  Nodes not named in any group
    form one implicit extra group.  At ``end`` the partition heals — the
    fabric drops nothing further, but frames lost during the window stay
    lost (fail-stop channels have no replay; recovery is the protocols'
    job, which is the point of the experiment).
    """

    start: float
    end: float
    groups: Tuple[Tuple[int, ...], ...] = ()

    def __post_init__(self) -> None:
        if not (0.0 <= self.start < self.end):
            raise FaultPlanError(
                f"partition window must satisfy 0 <= start < end, got [{self.start}, {self.end})"
            )
        if not self.groups:
            raise FaultPlanError("partition window needs at least one node group")
        seen: set = set()
        for group in self.groups:
            if len(group) == 0:
                raise FaultPlanError("partition group must not be empty")
            for node in group:
                if node < 0:
                    raise FaultPlanError(f"partition group names negative node {node}")
                if node in seen:
                    raise FaultPlanError(f"node {node} appears in more than one partition group")
                seen.add(node)


@dataclass(frozen=True)
class FaultPlan:
    """A seedable description of everything the wire does wrong, made of
    windows that each checked themselves when they were built."""

    windows: Tuple[LinkFaultWindow, ...] = field(default_factory=tuple)
    partitions: Tuple[PartitionWindow, ...] = field(default_factory=tuple)

    def __bool__(self) -> bool:
        return bool(self.windows or self.partitions)
