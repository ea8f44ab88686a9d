"""Unit tests for cost models, topology, and the fabric."""

import numpy as np
import pytest

from repro.network.fabric import Fabric, Frame
from repro.network.model import InfiniBand20G, LinearCostModel, NetworkCostModel, SharedMemoryModel
from repro.network.topology import Cluster, Placement, round_robin_placement, split_halves_placement
from repro.sim.kernel import Simulator


class TestModels:
    def test_ib20g_one_byte_latency_matches_paper(self):
        # paper Fig. 7a: native 1-byte latency 1.67 us
        assert InfiniBand20G().one_way(1) == pytest.approx(1.67e-6, rel=0.01)

    def test_ib20g_peak_bandwidth(self):
        m = InfiniBand20G()
        t = m.one_way(8 * 2**20)
        assert (8 * 2**20) / t == pytest.approx(2.5e9, rel=0.01)

    def test_serialization_linear_in_size(self):
        m = NetworkCostModel()
        assert m.serialization(2000) == pytest.approx(2 * m.serialization(1000))

    def test_shared_memory_faster_than_ib(self):
        assert SharedMemoryModel().one_way(64) < InfiniBand20G().one_way(64)

    def test_linear_model_has_no_cpu_overhead(self):
        m = LinearCostModel()
        assert m.send_overhead == 0.0 and m.recv_overhead == 0.0


class TestTopology:
    def test_cluster_total_cores(self):
        assert Cluster(nodes=4, cores_per_node=8).total_cores == 32

    def test_model_for_intra_vs_inter(self):
        c = Cluster(nodes=2)
        assert isinstance(c.model_for(0, 0), SharedMemoryModel)
        assert isinstance(c.model_for(0, 1), InfiniBand20G)

    def test_round_robin_fills_nodes_first(self):
        c = Cluster(nodes=4, cores_per_node=2)
        p = round_robin_placement(c, 5)
        assert [p.node_of(i) for i in range(5)] == [0, 0, 1, 1, 2]

    def test_round_robin_spread(self):
        c = Cluster(nodes=4, cores_per_node=2)
        p = round_robin_placement(c, 5, fill_node_first=False)
        assert [p.node_of(i) for i in range(5)] == [0, 1, 2, 3, 0]

    def test_round_robin_overflow_rejected(self):
        with pytest.raises(ValueError):
            round_robin_placement(Cluster(nodes=1, cores_per_node=2), 3)

    def test_split_halves_is_papers_placement(self):
        # §4.2: first replica set on the first half of the nodes
        c = Cluster(nodes=4, cores_per_node=2)
        p = split_halves_placement(c, n_ranks=4, degree=2)
        assert [p.node_of(i) for i in range(4)] == [0, 0, 1, 1]  # set 0
        assert [p.node_of(i) for i in range(4, 8)] == [2, 2, 3, 3]  # set 1

    def test_split_halves_replicas_on_distinct_nodes(self):
        c = Cluster(nodes=8, cores_per_node=4)
        p = split_halves_placement(c, n_ranks=16, degree=2)
        for rank in range(16):
            assert p.node_of(rank) != p.node_of(16 + rank)

    def test_split_halves_divisibility_enforced(self):
        with pytest.raises(ValueError):
            split_halves_placement(Cluster(nodes=3), n_ranks=2, degree=2)

    @pytest.mark.parametrize(
        "kwargs, message",
        [
            ({"nodes": 0}, "nodes must be >= 1"),
            ({"cores_per_node": 0}, "cores_per_node must be >= 1"),
            ({"nodes": True}, "nodes must be an integer, got True"),
            ({"cores_per_node": 2.5}, "cores_per_node must be an integer, got 2.5"),
            ({"compute_noise": float("nan")}, "compute_noise must be a finite sigma >= 0"),
            ({"compute_noise": -0.5}, "compute_noise must be a finite sigma >= 0"),
        ],
        ids=["no_nodes", "no_cores", "bool_nodes", "fractional_cores", "nan_noise", "negative_noise"],
    )
    def test_bad_cluster_refused_when_built(self, kwargs, message):
        # NaN and negative noise used to mean "no noise"; an empty cluster
        # fitted nothing and said so only at placement
        with pytest.raises(ValueError, match=message):
            Cluster(**kwargs)

    def test_numpy_integer_cluster_sizes_accepted(self):
        c = Cluster(nodes=np.int64(4), cores_per_node=np.int64(2))
        assert c == Cluster(nodes=4, cores_per_node=2) and type(c.total_cores) is int

    def test_placement_validate_detects_double_booking(self):
        c = Cluster(nodes=2, cores_per_node=2)
        assert Placement(c, [0, 0, 1]).proc_nodes == [0, 0, 1]
        with pytest.raises(ValueError, match="node 0 holds 3 processes on 2 cores"):
            Placement(c, [0, 0, 0])
        with pytest.raises(ValueError, match="node 2 out of range"):
            Placement(c, [0, 2])


def _fabric(nodes=2, cores=1, jitter=None):
    sim = Simulator()
    cluster = Cluster(nodes=nodes, cores_per_node=cores)
    placement = round_robin_placement(cluster, nodes * cores)
    return sim, Fabric(sim, placement, jitter=jitter)


class TestFabric:
    def test_delivery_time_matches_model(self):
        sim, fabric = _fabric()
        model = fabric.model_for(0, 1)
        fabric.inject(Frame(src=0, dst=1, size=1000, data="x"))
        sim.run()
        frame = fabric.endpoint(1).inbox[0]
        assert frame.arrived_at == pytest.approx(model.serialization(1000) + model.latency)

    def test_fifo_per_channel(self):
        sim, fabric = _fabric()
        for i in range(10):
            fabric.inject(Frame(src=0, dst=1, size=100, data=i))
        sim.run()
        assert [f.data for f in fabric.endpoint(1).inbox] == list(range(10))

    def test_stream_is_bandwidth_limited(self):
        sim, fabric = _fabric()
        model = fabric.model_for(0, 1)
        n, size = 10, 100_000
        for i in range(n):
            fabric.inject(Frame(src=0, dst=1, size=size, data=i))
        sim.run()
        last = fabric.endpoint(1).inbox[-1]
        assert last.arrived_at == pytest.approx(n * model.serialization(size) + model.latency)

    def test_fifo_per_channel_inter_node_under_jitter(self):
        # The FIFO clamp is keyed per ordered (src, dst) channel even though
        # inter-node contention is priced per node uplink/downlink: with
        # adversarial jitter (large then zero), a later frame's arrival must
        # be clamped to never precede an earlier frame on the same channel.
        jolts = iter([50e-6, 0.0, 0.0, 0.0])
        sim, fabric = _fabric(nodes=2, cores=1, jitter=lambda: next(jolts, 0.0))
        for i in range(4):
            fabric.inject(Frame(src=0, dst=1, size=10, data=i))
        sim.run()
        arrived = [f.arrived_at for f in fabric.endpoint(1).inbox]
        assert [f.data for f in fabric.endpoint(1).inbox] == [0, 1, 2, 3]
        assert arrived == sorted(arrived)
        # the jolted first frame pushes everything behind it
        assert all(t >= 50e-6 for t in arrived)

    def test_nic_contention_serializes_node_traffic(self):
        # two senders on node 0, two receivers on node 1: the shared uplink
        # forces the second transfer to queue behind the first.
        sim, fabric = _fabric(nodes=2, cores=2)
        size = 1_000_000
        model = fabric.model_for(0, 2)
        fabric.inject(Frame(src=0, dst=2, size=size, data="a"))
        fabric.inject(Frame(src=1, dst=3, size=size, data="b"))
        sim.run()
        t_b = fabric.endpoint(3).inbox[0].arrived_at
        assert t_b == pytest.approx(2 * model.serialization(size) + model.latency)

    def test_intra_node_bypasses_nic(self):
        sim, fabric = _fabric(nodes=1, cores=2)
        fabric.inject(Frame(src=0, dst=1, size=10, data="x"))
        sim.run()
        model = fabric.model_for(0, 1)
        assert fabric.endpoint(1).inbox[0].arrived_at == pytest.approx(
            model.serialization(10) + model.latency
        )

    def test_crashed_destination_drops_frames(self):
        sim, fabric = _fabric()
        fabric.crash(1)
        fabric.inject(Frame(src=0, dst=1, size=10, data="x"))
        sim.run()
        assert list(fabric.endpoint(1).inbox) == []

    def test_crashed_source_cannot_send(self):
        sim, fabric = _fabric()
        fabric.crash(0)
        fabric.inject(Frame(src=0, dst=1, size=10, data="x"))
        sim.run()
        assert list(fabric.endpoint(1).inbox) == []

    def test_crash_listener_fires_once(self):
        sim, fabric = _fabric()
        seen = []
        fabric.on_crash.append(seen.append)
        fabric.crash(1)
        fabric.crash(1)
        assert seen == [1]

    def test_in_flight_frames_delivered_after_sender_crash(self):
        sim, fabric = _fabric()
        fabric.inject(Frame(src=0, dst=1, size=10, data="x"))
        fabric.crash(0)
        sim.run()
        assert [f.data for f in fabric.endpoint(1).inbox] == ["x"]

    def test_revive_reattaches_endpoint(self):
        sim, fabric = _fabric()
        fabric.crash(1)
        fabric.revive(1)
        fabric.inject(Frame(src=0, dst=1, size=10, data="x"))
        sim.run()
        assert len(fabric.endpoint(1).inbox) == 1

    def test_jitter_preserves_fifo(self):
        import numpy as np

        rng = np.random.default_rng(0)
        sim, fabric = _fabric(jitter=lambda: float(rng.exponential(5e-6)))
        for i in range(50):
            fabric.inject(Frame(src=0, dst=1, size=10, data=i))
        sim.run()
        assert [f.data for f in fabric.endpoint(1).inbox] == list(range(50))

    def test_frame_counters(self):
        sim, fabric = _fabric()
        fabric.inject(Frame(src=0, dst=1, size=10, data="x", kind="data"))
        fabric.inject(Frame(src=0, dst=1, size=20, data="y", kind="ctrl"))
        sim.run()
        assert fabric.total_frames == 2
        assert fabric.total_bytes == 30
        assert fabric.frames_by_kind == {"data": 1, "ctrl": 1}

    def test_wait_for_frame_wakes_on_arrival(self):
        sim, fabric = _fabric()
        times = []
        fabric.endpoint(1).wait_for_frame().add_callback(lambda e: times.append(sim.now))
        sim.call_at(1e-3, lambda: fabric.inject(Frame(src=0, dst=1, size=1, data="x")))
        sim.run()
        assert len(times) == 1 and times[0] > 1e-3
