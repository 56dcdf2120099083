"""Tests for virtual-channel buffers."""

import pytest

from repro.noc.buffer import BufferError, PortBuffer, VirtualChannelBuffer
from repro.noc.flit import Flit, FlitType, Packet, packetize


def flit(ftype=FlitType.BODY, seq=0):
    packet = Packet(src=0, dst=1, n_flits=8, flit_bits=32)
    return Flit(packet, ftype, seq)


class TestVirtualChannelBuffer:
    def test_fifo_order(self):
        vc = VirtualChannelBuffer(depth=4)
        flits = [flit(seq=i) for i in range(3)]
        for i, f in enumerate(flits):
            vc.push(f, cycle=i)
        assert [vc.pop(cycle=5).seq for _ in range(3)] == [0, 1, 2]

    def test_overflow_raises(self):
        vc = VirtualChannelBuffer(depth=1)
        vc.push(flit())
        with pytest.raises(BufferError):
            vc.push(flit())

    def test_underflow_raises(self):
        with pytest.raises(BufferError):
            VirtualChannelBuffer(depth=1).pop()

    def test_occupancy_accounting(self):
        vc = VirtualChannelBuffer(depth=4)
        vc.push(flit(), cycle=0)
        vc.push(flit(), cycle=5)  # first flit resided 5 cycles so far
        assert vc.flit_cycles == 5
        vc.pop(cycle=10)  # both resided 5 more cycles
        assert vc.flit_cycles == 15

    def test_settle_flushes_accounting(self):
        vc = VirtualChannelBuffer(depth=4)
        vc.push(flit(), cycle=0)
        vc.settle(cycle=8)
        assert vc.flit_cycles == 8

    def test_wormhole_state_clears_on_tail(self):
        vc = VirtualChannelBuffer(depth=8)
        packet = Packet(src=0, dst=1, n_flits=3, flit_bits=32)
        for f in packetize(packet):
            vc.push(f)
        vc.route = 2
        vc.downstream_vc = 5
        vc.pop()  # head
        assert vc.route == 2
        vc.pop()  # body
        vc.pop()  # tail
        assert vc.route is None
        assert vc.downstream_vc is None

    def test_complete_packet_detection(self):
        vc = VirtualChannelBuffer(depth=8)
        packet = Packet(src=0, dst=1, n_flits=3, flit_bits=32)
        flits = packetize(packet)
        vc.push(flits[0])
        assert not vc.has_complete_packet()
        vc.push(flits[1])
        assert not vc.has_complete_packet()
        vc.push(flits[2])
        assert vc.has_complete_packet()

    def test_complete_packet_false_mid_packet(self):
        vc = VirtualChannelBuffer(depth=16)
        p1 = packetize(Packet(src=0, dst=1, n_flits=2, flit_bits=32))
        for f in p1:
            vc.push(f)
        vc.pop()  # head gone; tail of p1 at front
        assert not vc.has_complete_packet()

    def test_reset_stats_keeps_contents(self):
        vc = VirtualChannelBuffer(depth=4)
        vc.push(flit(), cycle=0)
        vc.settle(5)
        vc.reset_stats(5)
        assert vc.flit_cycles == 0
        assert len(vc) == 1

    def test_invalid_depth(self):
        with pytest.raises(ValueError):
            VirtualChannelBuffer(depth=0)


class TestPortBuffer:
    def test_table_3_3_shape(self):
        port = PortBuffer(n_vcs=16, depth=64)
        assert len(port.vcs) == 16
        assert all(vc.depth == 64 for vc in port.vcs)

    def test_first_free_vc(self):
        port = PortBuffer(n_vcs=3, depth=4)
        for vc in (0, 1):
            f = flit(FlitType.HEAD)
            f.vc = vc
            port.push(f)
        assert port.first_free_vc() == 2
        port.vcs[2].route = 0
        assert port.first_free_vc() is None

    def test_free_excludes_routed(self):
        port = PortBuffer(n_vcs=2, depth=4)
        port.vcs[0].route = 1  # owned by an in-flight wormhole
        assert port.first_free_vc() == 1

    def test_occupancy(self):
        port = PortBuffer(n_vcs=2, depth=4)
        a, b = flit(), flit()
        a.vc, b.vc = 0, 1
        port.push(a)
        port.push(b)
        assert port._occupancy == 2

    def test_flit_cycles_aggregates(self):
        port = PortBuffer(n_vcs=2, depth=4)
        f = flit()
        f.vc = 0
        port.push(f, cycle=0)
        port.settle(10)
        assert port.flit_cycles == 10
