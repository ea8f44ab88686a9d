"""Cluster topology and process placement.

The paper's setup: 64 nodes, two quad-core Xeon L5420 each (8 cores/node),
256 MPI ranks with dual replication = 512 physical processes; "the first set
of 256 replicas run on the first half of the nodes, and the second set on
the other half" (§4.2).  :func:`split_halves_placement` reproduces exactly
that policy; :func:`round_robin_placement` is the unreplicated default.
"""

from __future__ import annotations

import operator
from collections import Counter
from dataclasses import dataclass, field
from typing import List

from repro.network.model import NetworkCostModel, InfiniBand20G, SharedMemoryModel

__all__ = [
    "Cluster",
    "Placement",
    "round_robin_placement",
    "split_halves_placement",
    "positive_count",
]


def positive_count(name: str, value: object) -> int:
    """*value* as a plain ``int`` >= 1, or ``ValueError`` naming *name*.

    Any integral type is accepted (numpy integers included, through
    ``operator.index``); a bool or a float is refused rather than counted.
    """
    if isinstance(value, bool):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    try:
        count = operator.index(value)  # type: ignore[arg-type]
    except TypeError:
        raise ValueError(f"{name} must be an integer, got {value!r}") from None
    if count < 1:
        raise ValueError(f"{name} must be >= 1, got {count}")
    return count


@dataclass
class Cluster:
    """A homogeneous cluster: *nodes* × *cores_per_node* cores.

    ``inter_node`` prices frames between distinct nodes; ``intra_node``
    prices frames between cores of the same node.
    """

    nodes: int = 64
    cores_per_node: int = 8
    inter_node: NetworkCostModel = field(default_factory=InfiniBand20G)
    intra_node: NetworkCostModel = field(default_factory=SharedMemoryModel)
    #: OS/system noise: lognormal sigma multiplying every compute phase.
    #: Replication couples each rank to its replica's timing through acks,
    #: so noise is amplified under replication — the dominant source of the
    #: paper's application-level overhead (cf. rMPI's scale results).
    compute_noise: float = 0.0

    def __post_init__(self) -> None:
        for knob in ("nodes", "cores_per_node"):
            setattr(self, knob, positive_count(knob, getattr(self, knob)))
        if not 0.0 <= self.compute_noise < float("inf"):  # NaN fails it too
            raise ValueError(f"compute_noise must be a finite sigma >= 0, got {self.compute_noise}")

    @property
    def total_cores(self) -> int:
        return self.nodes * self.cores_per_node

    def model_for(self, node_a: int, node_b: int) -> NetworkCostModel:
        return self.intra_node if node_a == node_b else self.inter_node


@dataclass
class Placement:
    """Mapping of physical process id -> node, checked when it is built:
    every node id in range, and no node holding more processes than it
    has cores.  ``proc_nodes`` is the one proc → node list that pricing
    (``CostTable``) and the shard planner index."""

    cluster: Cluster
    proc_nodes: List[int]

    def __post_init__(self) -> None:
        nodes, cores = self.cluster.nodes, self.cluster.cores_per_node
        for node, n in Counter(self.proc_nodes).items():
            if not 0 <= node < nodes:
                raise ValueError(f"proc {self.proc_nodes.index(node)}: node {node} out of range")
            if n > cores:
                raise ValueError(f"node {node} holds {n} processes on {cores} cores")

    def node_of(self, proc: int) -> int:
        return self.proc_nodes[proc]

    def __len__(self) -> int:
        return len(self.proc_nodes)


def round_robin_placement(cluster: Cluster, nprocs: int, fill_node_first: bool = True) -> Placement:
    """Pack processes onto cores; by-node filling is the common MPI default."""
    if nprocs > cluster.total_cores:
        raise ValueError(
            f"{nprocs} processes do not fit on {cluster.total_cores} cores"
        )
    if fill_node_first:
        return Placement(cluster, [proc // cluster.cores_per_node for proc in range(nprocs)])
    return Placement(cluster, [proc % cluster.nodes for proc in range(nprocs)])


def split_halves_placement(cluster: Cluster, n_ranks: int, degree: int) -> Placement:
    """The paper's replicated placement (§4.2).

    Replica set *k* occupies the *k*-th slice of ``nodes/degree`` nodes, so
    the two replicas of a logical rank always live on different nodes.
    Physical process ids are ordered replica-major: proc = rep * n_ranks + rank,
    matching :mod:`repro.core.worlds`.
    """
    if cluster.nodes % degree != 0:
        raise ValueError(f"{cluster.nodes} nodes not divisible by degree {degree}")
    nodes_per_set = cluster.nodes // degree
    if n_ranks > nodes_per_set * cluster.cores_per_node:
        raise ValueError(
            f"{n_ranks} ranks do not fit on {nodes_per_set} nodes "
            f"({cluster.cores_per_node} cores each)"
        )
    cores = cluster.cores_per_node
    return Placement(cluster, [
        rep * nodes_per_set + rank // cores for rep in range(degree) for rank in range(n_ranks)
    ])
