"""Tests for the 3-stage wormhole VC router: one router alone, then two
joined by a link and a credit channel."""

import pytest

from repro.noc.flit import Packet, packetize
from repro.noc.link import LinkBusyError
from repro.noc.network import ElectricalNetwork
from repro.noc.router import Router, RouterConfig
from repro.noc.topology import mesh


class Harness:
    """One router with a local sink on port 1; injection on port 0."""

    def __init__(self, n_ports=2, config=RouterConfig(n_vcs=2, vc_depth=4)):
        self.delivered = []
        self.router = Router(
            node_id=0,
            n_ports=n_ports,
            config=config,
            route_fn=lambda dst: 1,  # everything routes to port 1
        )
        self.router.connect_output_sink(1, self.delivered.append)
        self.cycle = 0

    def inject_packet(self, n_flits=3, vc=0):
        packet = Packet(src=10, dst=20, n_flits=n_flits, flit_bits=32)
        for flit in packetize(packet):
            flit.vc = vc
            self.router.accept_flit(0, flit, self.cycle)
        return packet

    def run(self, cycles):
        for _ in range(cycles):
            self.router.tick(self.cycle)
            self.cycle += 1


class TestSingleRouter:
    def test_packet_traverses_to_sink(self):
        h = Harness()
        packet = h.inject_packet(n_flits=3)
        h.run(10)
        assert len(h.delivered) == 3
        assert all(f.packet is packet for f in h.delivered)

    def test_flit_order_preserved(self):
        h = Harness()
        h.inject_packet(n_flits=4)
        h.run(10)
        assert [f.seq for f in h.delivered] == [0, 1, 2, 3]

    def test_one_flit_per_cycle_per_output(self):
        h = Harness()
        h.inject_packet(n_flits=4)
        h.run(1)
        assert len(h.delivered) <= 1

    def test_two_vcs_interleave_fairly(self):
        h = Harness()
        h.inject_packet(n_flits=4, vc=0)
        h.inject_packet(n_flits=4, vc=1)
        h.run(20)
        assert len(h.delivered) == 8

    def test_stats_count_forwards(self):
        h = Harness()
        h.inject_packet(n_flits=3)
        h.run(10)
        assert h.router.flits_forwarded == 3
        assert h.router.bits_forwarded == 96

    def test_reset_stats(self):
        h = Harness()
        h.inject_packet()
        h.run(10)
        h.router.reset_stats(10)
        assert h.router.flits_forwarded == 0

    def test_missing_route_fn_raises(self):
        router = Router(0, 2, RouterConfig(n_vcs=1, vc_depth=4))
        flit = packetize(Packet(src=0, dst=1, n_flits=1, flit_bits=8))[0]
        router.accept_flit(0, flit, 0)
        with pytest.raises(RuntimeError):
            router.tick(0)

    def test_tick_reports_flits_still_held(self):
        h = Harness()
        assert h.router.tick(0) == 0
        h.inject_packet(n_flits=3)
        assert [h.router.tick(cycle) for cycle in range(4)] == [2, 1, 0, 0]

    def test_config_validation(self):
        with pytest.raises(ValueError):
            RouterConfig(n_vcs=0)
        with pytest.raises(ValueError):
            RouterConfig(vc_depth=0)


class TestTwoRouterCreditFlow:
    """Router A -> link -> router B -> sink, with credit return.

    Wired and driven by the real owner of what is in flight: a 2x2
    mesh ``ElectricalNetwork`` whose endpoint at node 0 (A) feeds A one
    flit per cycle, for node 1 (B) next to it.
    """

    def build(self, vc_depth=2):
        self.net = ElectricalNetwork(
            mesh(2, 2),
            router_config=RouterConfig(n_vcs=1, vc_depth=vc_depth),
        )
        self.a, self.b = self.net.routers[0], self.net.routers[1]
        self.delivered = []
        self.net.on_eject = lambda flit, cycle: self.delivered.append(flit)
        self.cycle = 0
        return self.a, self.b

    def run(self, cycles):
        for _ in range(cycles):
            self.net.tick(self.cycle)
            self.cycle += 1

    def inject(self, n_flits):
        self.net.submit(Packet(src=0, dst=1, n_flits=n_flits, flit_bits=32))

    def test_end_to_end_delivery(self):
        self.build()
        self.inject(4)
        self.run(20)
        assert [f.seq for f in self.delivered] == [0, 1, 2, 3]

    def test_flit_lands_after_link_latency(self):
        self.build()
        self.inject(1)
        self.run(1)  # injected and forwarded by A in cycle 0
        assert [due for due, _, _, _ in self.net._flits_due] == [1]
        assert self.b.inputs[0].occupancy == 0
        self.run(1)  # lands at the top of cycle 1; B ejects it at once
        assert not self.net._flits_due
        assert len(self.delivered) == 1
        # B's credit for the freed slot is due back at A at cycle 2.
        assert [(due, vc) for due, _, vc in self.net._credits_due] == [(2, 0)]
        assert self.a._credits[0] == [1]
        self.run(1)
        assert self.a._credits[0] == [2]
        assert self.net.is_idle()

    def test_credits_prevent_overflow(self):
        """With depth 2 and slow drain, A must throttle; B never overflows."""
        self.build(vc_depth=2)
        self.inject(8)
        # Run long enough; VirtualChannelBuffer raises on overflow, so
        # simply completing the run proves flow control works.
        self.run(40)
        assert len(self.delivered) == 8

    def test_credit_starvation_blocks_sender(self):
        self.build(vc_depth=2)
        self.inject(8)
        self.run(4)
        # A cannot have forwarded more than depth + returned credits allow.
        assert self.a.flits_forwarded <= 4

    def test_slow_credit_loop_throttles_sender(self):
        """One slot and a two-cycle credit round trip: A sends a flit,
        then stalls until its credit is back, so it sends every other
        cycle."""
        self.build(vc_depth=1)
        self.inject(8)
        self.run(6)
        assert self.a.flits_forwarded == 3
        self.run(40)
        assert len(self.delivered) == 8

    def test_throughput_one_flit_per_cycle(self):
        """Steady state moves ~1 flit/cycle despite the credit loop."""
        self.build(vc_depth=4)
        self.inject(16)
        self.run(20)
        assert len(self.delivered) == 16

    def test_credit_overflow_is_caught_where_credits_land(self):
        self.build()
        # A credit nothing freed: A's row for B is already full.
        self.net._credits_due.append((0, self.a._credits[0], 0))
        with pytest.raises(RuntimeError, match=r"r0: credit overflow on port 0 vc 0"):
            self.run(1)

    def test_second_send_on_a_link_in_one_cycle_raises(self):
        """A router ticked twice in one cycle: its crossbar opens a new
        tick, but the link has already carried this cycle's flit."""
        self.build(vc_depth=4)
        for flit in packetize(Packet(src=0, dst=1, n_flits=2, flit_bits=32)):
            self.a.accept_flit(self.net.local_port(0), flit, 0)
        self.a.tick(0)
        with pytest.raises(LinkBusyError, match=r"enet.0->1.*cycle 0"):
            self.a.tick(0)
