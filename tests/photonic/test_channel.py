"""Tests for SWMR data channels and reservation broadcast channels."""

import pytest

from repro.noc.flit import Packet, packetize
from repro.photonic.channel import (
    ChannelError,
    DataChannel,
    ReservationBroadcastChannel,
)
from repro.photonic.reservation import ReservationFlit


def make_flits(n_flits=8, flit_bits=32):
    packet = Packet(src=0, dst=4, n_flits=n_flits, flit_bits=flit_bits)
    return packetize(packet)


def make_reservation(n_flits=8, src=0, dst=1):
    return ReservationFlit(src_cluster=src, dst_cluster=dst, packet_id=1, n_flits=n_flits)


def transmit_fully(channel, flits, n_wavelengths, flit_bits=32, max_cycles=1000):
    """Feed-and-tick until the transmission completes; return the launch
    cycle of every flit."""
    channel.begin(make_reservation(len(flits)), len(flits), flit_bits, n_wavelengths, 0)
    pending = list(flits)
    launches = []
    for cycle in range(max_cycles):
        while pending and channel.wanted_flits() > 0:
            channel.feed(pending.pop(0))
        launches.extend([cycle] * channel.tick(cycle))
        if not channel.busy:
            break
    return launches


class TestDataChannel:
    def test_serialization_rate_set1_firefly(self):
        """4 wavelengths = 20 bits/cycle; 64x32b packet = 2048 bits ->
        ~103 cycles (the table 3-3 Firefly set-1 configuration)."""
        channel = DataChannel(0)
        launches = transmit_fully(channel, make_flits(64, 32), n_wavelengths=4)
        assert len(launches) == 64
        last_cycle = launches[-1]
        assert 100 <= last_cycle + 1 <= 106

    def test_doubling_wavelengths_halves_time(self):
        c4 = DataChannel(0)
        t4 = transmit_fully(c4, make_flits(64, 32), 4)[-1]
        c8 = DataChannel(0)
        t8 = transmit_fully(c8, make_flits(64, 32), 8)[-1]
        assert t8 == pytest.approx(t4 / 2, abs=2)

    def test_launch_cadence_follows_bit_credit(self):
        """16 x 128-bit flits at 40 bits/cycle, never starved: flit m
        leaves in the first cycle k with 40 (k + 1) >= 128 m."""
        channel = DataChannel(0)
        launches = transmit_fully(channel, make_flits(16, 128), 8, flit_bits=128)
        assert launches == [-(-128 * m // 40) - 1 for m in range(1, 17)]
        assert channel.stalled_cycles == 0

    def test_bits_accounted(self):
        channel = DataChannel(0)
        transmit_fully(channel, make_flits(8, 256), 16)
        assert channel.bits_transmitted == 2048
        assert channel.packets_transmitted == 1

    def test_wavelength_cycles_lit(self):
        channel = DataChannel(0)
        transmit_fully(channel, make_flits(64, 32), 4)
        assert channel.wavelength_cycles_lit == channel.busy_cycles * 4

    def test_starved_channel_stalls(self):
        """No fed flits -> lit but idle, credit does not accumulate."""
        channel = DataChannel(0)
        channel.begin(make_reservation(4), 4, 32, 4, 0)
        assert channel.tick(0) == 0
        assert channel.stalled_cycles == 1
        # After late feeding, transmission still completes correctly.
        for flit in make_flits(4, 32):
            channel.feed(flit)
        total = 0
        for cycle in range(1, 50):
            total += channel.tick(cycle)
            if not channel.busy:
                break
        assert total == 4

    def test_each_packet_streams_at_its_own_plan(self):
        """Rate and queue depth are fixed per transmission at ``begin``:
        the next packet, granted other wavelengths, gets its own."""
        channel = DataChannel(owner_cluster=0)
        channel.begin(make_reservation(8), 8, 32, 16, 0)
        assert (channel._active.per_cycle, channel._active.queue_target) == (80.0, 4)
        assert channel.wanted_flits() == 4
        channel = DataChannel(owner_cluster=0)
        fast = transmit_fully(channel, make_flits(8), n_wavelengths=16)
        assert fast[-1] == 3  # 256 bits at 80 bits/cycle
        slow = transmit_fully(channel, make_flits(8), n_wavelengths=1)
        assert slow[-1] == 51  # 256 bits at 5 bits/cycle
        channel.begin(make_reservation(8), 8, 32, 1, 0)
        assert (channel._active.per_cycle, channel._active.queue_target) == (5.0, 2)
        assert channel.wanted_flits() == 2

    def test_begin_while_busy_rejected(self):
        channel = DataChannel(0)
        channel.begin(make_reservation(4), 4, 32, 4, 0)
        with pytest.raises(ChannelError):
            channel.begin(make_reservation(4), 4, 32, 4, 0)

    def test_feed_without_begin_rejected(self):
        with pytest.raises(ChannelError):
            DataChannel(0).feed(make_flits(1)[0])

    def test_overfeed_rejected(self):
        channel = DataChannel(0)
        channel.begin(make_reservation(1), 1, 32, 4, 0)
        flits = make_flits(2)
        channel.feed(flits[0])
        with pytest.raises(ChannelError):
            channel.feed(flits[1])

    def test_feed_behind_flits_of_another_width_rejected(self):
        channel = DataChannel(0)
        channel.begin(make_reservation(4), 4, 32, 4, 0)
        channel.feed(make_flits(1, flit_bits=32)[0])
        with pytest.raises(ChannelError):
            channel.feed(make_flits(1, flit_bits=64)[0])

    def test_zero_wavelengths_rejected(self):
        with pytest.raises(ChannelError):
            DataChannel(0).begin(make_reservation(4), 4, 32, 0, 0)

    def test_reset_stats(self):
        channel = DataChannel(0)
        transmit_fully(channel, make_flits(4, 32), 4)
        channel.reset_stats()
        assert channel.bits_transmitted == 0
        assert channel.busy_cycles == 0

    def test_reset_stats_at_warmup_boundary_clears_stalls(self):
        """A channel starved across the warm-up boundary: the reset clears
        stalled cycles with busy cycles, so the measured window's stall
        ratio (stalled / busy) never exceeds 1."""
        channel = DataChannel(0)
        channel.begin(make_reservation(4), 4, 32, 4, 0)
        for cycle in range(3):
            assert channel.tick(cycle) == 0
        assert (channel.busy_cycles, channel.stalled_cycles) == (3, 3)
        channel.reset_stats()
        assert (channel.busy_cycles, channel.stalled_cycles) == (0, 0)
        # The transmission in progress survives the reset and keeps counting.
        assert channel.busy
        channel.tick(3)
        assert (channel.busy_cycles, channel.stalled_cycles) == (1, 1)


class TestReservationBroadcastChannel:
    def test_delivery_timing(self):
        """Arrival = serialization + propagation."""
        channel = ReservationBroadcastChannel(0, propagation_cycles=1)
        seen = []
        due = channel.broadcast(
            make_reservation(), serialization_cycles=1, cycle=10,
            deliver=seen.append,
        )
        assert due == 12
        channel.tick(11)
        assert seen == []
        channel.tick(12)
        assert len(seen) == 1

    def test_response_round_trip(self):
        channel = ReservationBroadcastChannel(0, propagation_cycles=1)
        responses = []
        due = channel.respond(
            make_reservation(), accepted=False, cycle=5,
            deliver=lambda resv, ok: responses.append(ok),
        )
        assert due == 6
        channel.tick(6)
        assert responses == [False]

    def test_stats(self):
        channel = ReservationBroadcastChannel(0)
        channel.broadcast(make_reservation(), 1, 0, lambda r: None, flit_bits=16)
        assert channel.reservations_sent == 1
        assert channel.reservation_bits_sent == 16

    def test_in_flight(self):
        channel = ReservationBroadcastChannel(0)
        channel.broadcast(make_reservation(), 1, 0, lambda r: None)
        assert channel.in_flight == 1
        channel.tick(10)
        assert channel.in_flight == 0

    def test_invalid_serialization(self):
        channel = ReservationBroadcastChannel(0)
        with pytest.raises(ValueError):
            channel.broadcast(make_reservation(), 0, 0, lambda r: None)
