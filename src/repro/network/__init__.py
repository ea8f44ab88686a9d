"""Simulated cluster substrate: cost models, topology, and the wire fabric.

The fabric provides exactly the channel abstraction the paper assumes
(§2.1): reliable FIFO channels between every ordered pair of physical
processes, with no synchrony assumption.  Crash semantics are fail-stop: a
crashed endpoint stops sending; frames already on the wire are still
delivered (the SDR protocol's sequence-number dedup handles any overlap with
substitute resends).
"""

from repro.network.model import (
    InfiniBand20G,
    LinearCostModel,
    NetworkCostModel,
    SharedMemoryModel,
)
from repro.network.topology import Cluster, Placement, round_robin_placement, split_halves_placement
from repro.network.fabric import Endpoint, Fabric, Frame

__all__ = [
    "Cluster",
    "Endpoint",
    "Fabric",
    "Frame",
    "InfiniBand20G",
    "LinearCostModel",
    "NetworkCostModel",
    "Placement",
    "SharedMemoryModel",
    "round_robin_placement",
    "split_halves_placement",
]
