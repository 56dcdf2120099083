"""Integration tests for the electrical network."""

import random

import pytest

from repro.noc.flit import Packet
from repro.noc.network import ElectricalNetwork
from repro.noc.router import RouterConfig
from repro.noc.routing import DimensionOrderRouting
from repro.noc.topology import mesh
from repro.sim.engine import Simulator


def drive(topo, packets, routing=None, config=RouterConfig(n_vcs=4, vc_depth=8)):
    net = ElectricalNetwork(topo, router_config=config, routing=routing)
    sim = Simulator()
    sim.register(net)
    for packet in packets:
        net.submit(packet)
    drained = net.drain(sim, max_cycles=20_000)
    return net, drained


def random_packets(nodes, count, rng, n_flits=4):
    packets = []
    for _ in range(count):
        src, dst = rng.sample(nodes, 2)
        packets.append(Packet(src=src, dst=dst, n_flits=n_flits, flit_bits=32))
    return packets


@pytest.mark.parametrize(
    "topo_factory",
    [
        lambda: mesh(4, 4),
    ],
    ids=["mesh"],
)
class TestDeliveryAcrossTopologies:
    def test_all_packets_delivered(self, topo_factory):
        topo = topo_factory()
        rng = random.Random(5)
        packets = random_packets(topo.nodes(), 50, rng)
        net, drained = drive(topo, packets)
        assert drained, "network failed to drain"
        assert net.metrics.packets_delivered == 50

    def test_bits_conserved(self, topo_factory):
        topo = topo_factory()
        rng = random.Random(6)
        packets = random_packets(topo.nodes(), 30, rng)
        net, drained = drive(topo, packets)
        assert drained
        assert net.metrics.bits_delivered == sum(p.size_bits for p in packets)


class TestNetworkBehaviour:
    def test_latency_scales_with_distance(self):
        topo = mesh(4, 4)
        near = drive(topo, [Packet(src=0, dst=1, n_flits=4, flit_bits=32)])[0]
        far = drive(topo, [Packet(src=0, dst=15, n_flits=4, flit_bits=32)])[0]
        assert far.metrics.mean_latency > near.metrics.mean_latency

    def test_xy_routing_delivers(self):
        topo = mesh(4, 4)
        rng = random.Random(7)
        packets = random_packets(topo.nodes(), 60, rng)
        net, drained = drive(topo, packets, routing=DimensionOrderRouting(topo))
        assert drained
        assert net.metrics.packets_delivered == 60

    def test_heavy_contention_single_destination(self):
        """Many sources, one sink: everything still arrives (no deadlock)."""
        topo = mesh(3, 2)
        packets = [
            Packet(src=src, dst=0, n_flits=4, flit_bits=32)
            for src in range(1, 6)
            for _ in range(5)
        ]
        net, drained = drive(topo, packets)
        assert drained
        assert net.metrics.packets_delivered == 25

    def test_deterministic_given_same_input(self):
        topo = mesh(3, 3)
        rng1, rng2 = random.Random(9), random.Random(9)
        p1 = random_packets(topo.nodes(), 40, rng1)
        p2 = random_packets(topo.nodes(), 40, rng2)
        n1, _ = drive(topo, p1)
        n2, _ = drive(topo, p2)
        assert n1.metrics.latency_sum == n2.metrics.latency_sum
        assert n1.metrics.bits_delivered == n2.metrics.bits_delivered

    def test_reset_stats_mid_run(self):
        topo = mesh(2, 2)
        net = ElectricalNetwork(topo, router_config=RouterConfig(n_vcs=2, vc_depth=8))
        sim = Simulator()
        sim.register(net)
        net.submit(Packet(src=0, dst=1, n_flits=2, flit_bits=32))
        net.drain(sim)
        net.reset_stats(sim.cycle)
        assert net.metrics.packets_delivered == 0
        net.submit(Packet(src=1, dst=2, n_flits=2, flit_bits=32))
        net.drain(sim)
        assert net.metrics.packets_delivered == 1

    def test_mean_latency_zero_when_idle(self):
        topo = mesh(2, 2)
        net = ElectricalNetwork(topo)
        assert net.metrics.mean_latency == 0.0

    def test_delivered_gbps(self):
        topo = mesh(2, 2)
        net, _ = drive(topo, [Packet(src=0, dst=1, n_flits=4, flit_bits=32)])
        assert net.metrics.delivered_gbps(2.5e9) > 0
