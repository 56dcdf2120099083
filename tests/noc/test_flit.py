"""Tests for packets and flits."""

import pytest
from hypothesis import given, strategies as st

from repro.noc.flit import Flit, FlitType, Packet, packetize


def make_packet(n_flits=4, flit_bits=32, src=0, dst=1):
    return Packet(src=src, dst=dst, n_flits=n_flits, flit_bits=flit_bits)


class TestPacket:
    def test_size_bits(self):
        assert make_packet(64, 32).size_bits == 2048

    def test_table_3_3_geometries_are_2048_bits(self):
        # 64x32, 16x128, 8x256 all carry 2048-bit packets.
        for n, bits in ((64, 32), (16, 128), (8, 256)):
            assert make_packet(n, bits).size_bits == 2048

    def test_unique_pids(self):
        assert make_packet().pid != make_packet().pid

    def test_src_eq_dst_rejected(self):
        with pytest.raises(ValueError):
            Packet(src=3, dst=3, n_flits=1, flit_bits=32)

    def test_zero_flits_rejected(self):
        with pytest.raises(ValueError):
            Packet(src=0, dst=1, n_flits=0, flit_bits=32)

    def test_zero_flit_bits_rejected(self):
        with pytest.raises(ValueError):
            Packet(src=0, dst=1, n_flits=4, flit_bits=0)


class TestFlitType:
    """A flit carries its own head/tail flags, fixed from its type."""

    @staticmethod
    def flit(ftype):
        return Flit(make_packet(), ftype, 0)

    def test_head_properties(self):
        assert self.flit(FlitType.HEAD).is_head
        assert not self.flit(FlitType.HEAD).is_tail

    def test_tail_properties(self):
        assert self.flit(FlitType.TAIL).is_tail
        assert not self.flit(FlitType.TAIL).is_head

    def test_head_tail_is_both(self):
        assert self.flit(FlitType.HEAD_TAIL).is_head
        assert self.flit(FlitType.HEAD_TAIL).is_tail

    def test_body_is_neither(self):
        assert not self.flit(FlitType.BODY).is_head
        assert not self.flit(FlitType.BODY).is_tail


class TestPacketize:
    def test_single_flit_packet(self):
        flits = packetize(make_packet(n_flits=1))
        assert len(flits) == 1
        assert flits[0].ftype == FlitType.HEAD_TAIL

    def test_two_flit_packet(self):
        flits = packetize(make_packet(n_flits=2))
        assert [f.ftype for f in flits] == [FlitType.HEAD, FlitType.TAIL]

    def test_structure(self):
        flits = packetize(make_packet(n_flits=5))
        assert flits[0].ftype == FlitType.HEAD
        assert flits[-1].ftype == FlitType.TAIL
        assert all(f.ftype == FlitType.BODY for f in flits[1:-1])

    def test_sequence_numbers(self):
        flits = packetize(make_packet(n_flits=5))
        assert [f.seq for f in flits] == list(range(5))

    def test_flits_reference_packet(self):
        packet = make_packet()
        for flit in packetize(packet):
            assert flit.packet is packet
            assert flit.bits == packet.flit_bits

    @given(st.integers(1, 128))
    def test_flit_count_matches(self, n):
        assert len(packetize(make_packet(n_flits=n))) == n

    @given(st.integers(1, 128))
    def test_exactly_one_head_and_tail(self, n):
        flits = packetize(make_packet(n_flits=n))
        assert sum(1 for f in flits if f.is_head) == 1
        assert sum(1 for f in flits if f.is_tail) == 1

    @given(st.integers(1, 64), st.sampled_from([32, 128, 256]))
    def test_bits_conserved(self, n, bits):
        packet = Packet(src=0, dst=1, n_flits=n, flit_bits=bits)
        assert sum(f.bits for f in packetize(packet)) == packet.size_bits
